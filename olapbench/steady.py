"""Steadiness report: repeat the benchmark on one commit and show how
much each end-to-end metric moves between runs.

    python3 olapbench/steady.py --seeds 1-10

Runs ``run.py`` once per seed on every workload of ``BENCHMARK.json``, one run at a time, and
prints for every metric its median, first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile
spread as a share of the median, beside the metric's unit and bound
from ``BENCHMARK.json``.  A metric whose spread exceeds its bound is
flagged, and the exit code is then 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import spread  # noqa: E402


def parse_seeds(text: str):
    """``"1-5"`` or ``"1,4,9"``."""
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    metrics = spec["end_to_end"]
    seeds = parse_seeds(args.seeds)
    flagged = []
    for workload in spec["workloads"]:
        name = workload["name"]
        print(f"{name}: {workload['why']}", flush=True)
        runs = [run_once(name, seed, args.seconds, 0) for seed in seeds]
        print(f"  {len(runs)} runs, seeds {args.seeds}, "
              f"{sum(r['failed'] for r in runs)} failed of "
              f"{sum(r['attempted'] for r in runs)} attempted")
        print(f"  {'metric':<18} {'unit':<6} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7} {'bound':>6}")
        for m in metrics:
            s = spread([r["metrics"][m["name"]]["value"] for r in runs])
            flag = s["spread"] > m["bound"]
            if flag:
                flagged.append((name, m["name"]))
            print(f"  {m['name']:<18} {m['unit']:<6} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['spread']:>7.3f} "
                  f"{m['bound']:>6.2f}{'  FLAG' if flag else ''}", flush=True)
    for workload, name in flagged:
        print(f"FLAG: {workload} {name} spread exceeds its bound")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
