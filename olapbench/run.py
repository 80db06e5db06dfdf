"""Run one benchmark workload and print its metrics.

    python3 olapbench/run.py --workload serve-read --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The library is imported from ``src/``
of that checkout.  The report goes to standard output: every metric of
the workload by name and unit, with the sample counts behind its
percentiles and the run's provenance; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that ``BENCHMARK.json`` names.

A traced run also writes ``olapbench/out/<workload>-seed<n>.trace.json``
(Chrome trace events; open it in Perfetto) and
``...layers.json`` (count, total and self time per span name).

Timings in the JSON line are scaled to a reference host speed (see
``hostspeed.py``); the report prints the raw timings too.

The exit code is 0 when every answer and selection checked out, 1 when
the oracle found a wrong one, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# the library must run serially and as the checkout has it
os.environ.pop("REPRO_WORKERS", None)
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    """Peak resident memory of this process, MiB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import numpy

    import workloads
    from hostspeed import REFERENCE_S
    from stats import median
    from tracing import NULL_TRACER, Tracer, chrome_trace, layer_summary

    tracer = Tracer() if args.trace else NULL_TRACER
    if args.workload == "advise-full":
        result = workloads.advise_full(args.seed, args.seconds, tracer)
    else:
        sqlite = args.workload == "serve-write"
        result = workloads.serve(args.seed, args.seconds, tracer, sqlite=sqlite)

    rss = peak_rss_mb()
    failed_frac = result.failed / result.attempted
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(ROOT),
        "client_threads": 1,
        "REPRO_WORKERS": os.environ.get("REPRO_WORKERS", "unset"),
        "reference_loop_ms": round(median(result.reference_s) * 1e3, 3),
        "reference_samples": len(result.reference_s),
        "reference_skipped": result.reference_skipped,
    }
    metrics = dict(result.metrics, peak_rss_mb=rss)
    report = result.report + [
        ("peak_rss_mb", rss, "MiB", "ru_maxrss of this process"),
        ("failed_frac", failed_frac, "ratio",
         f"{result.failed} failed of {result.attempted} attempted"),
    ]

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  (raw timings)")
    for name, value, unit, note in report:
        print(f"  {name:<18} {value:>14.6g} {unit:<10} {note}")
    print(f"end-to-end metrics at reference speed (reference loop "
          f"{REFERENCE_S * 1e3:g} ms; measured {provenance['reference_loop_ms']})")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<18} {metrics[m['name']]:>14.6g} {m['unit']}")
    for problem in result.problems[:20]:
        print(f"  FAILED: {problem}")
    print("provenance " + json.dumps(provenance))

    if args.trace:
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        summary = layer_summary(tracer.spans)
        trace_file = OUT / f"{stem}.trace.json"
        trace_file.write_text(json.dumps(chrome_trace(tracer.spans, meta=provenance)))
        (OUT / f"{stem}.layers.json").write_text(
            json.dumps({"provenance": provenance, "layers": summary}, indent=1)
        )
        print(f"  {'span':<28} {'count':>7} {'total_s':>10} {'self_s':>10}")
        for name, row in summary.items():
            print(f"  {name:<28} {row['count']:>7} {row['total_s']:>10.4f} "
                  f"{row['self_s']:>10.4f}")
        print(f"  trace written to {trace_file}")
        wanted = [m["name"] for m in spec["per_layer"]]
        # a layer the workload never calls did no work: it reads 0
        chosen = {name: result.layers.get(name, 0.0) for name in wanted}
    else:
        wanted = [m["name"] for m in spec["end_to_end"]]
        chosen = metrics
    line = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": float(chosen[name]), "unit": units[name]} for name in wanted
        },
    }
    print(json.dumps(line))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
