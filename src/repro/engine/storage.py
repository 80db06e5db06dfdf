"""Catalog persistence: save and reload the physical structures.

A warehouse's materialized views outlive the advisor process.  This
module writes a :class:`~repro.engine.catalog.Catalog` to a directory —
the fact table and every view table as ``.npz`` arrays, plus a manifest
of the built indexes — and loads it back, re-sorting the indexes from the
stored tables (index *contents* are derivable; only their identity needs
persisting, which keeps the format trivial and the indexes always
consistent with the tables).

Layout::

    <dir>/manifest.json     schema, view list, index list
    <dir>/fact.npz          raw fact columns + measures
    <dir>/view_<label>.npz  key columns + values per materialized view
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.index import Index
from repro.core.view import View
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.catalog import Catalog
from repro.engine.table import FactTable, ViewTable

PathLike = Union[str, Path]

_FORMAT_VERSION = 1


def _view_filename(label: str) -> str:
    safe = "".join(ch if ch.isalnum() else "_" for ch in label) or "none"
    return f"view_{safe}.npz"


def save_catalog(catalog: Catalog, directory: PathLike) -> None:
    """Write the catalog to a directory (created if needed)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    schema = catalog.fact.schema

    np.savez(
        directory / "fact.npz",
        measures=catalog.fact.measures,
        **{f"dim_{name}": catalog.fact.column(name) for name in schema.names},
        **{
            f"measure_{name}": column
            for name, column in catalog.fact.extra_measures.items()
        },
    )

    views = []
    for view in catalog.views():
        table = catalog.view_table(view)
        label = ",".join(table.attrs) if table.attrs else "none"
        filename = _view_filename(label)
        np.savez(
            directory / filename,
            values=table.values,
            **{f"key_{a}": table.key_columns[a] for a in table.attrs},
            **{
                f"measure_{name}": column
                for name, column in table.extra_values.items()
            },
        )
        views.append(
            {
                "attrs": list(table.attrs),
                "agg": table.agg,
                "measure": table.measure,
                "extra_measures": list(table.extra_values),
                "file": filename,
            }
        )

    indexes = [
        {"view": sorted(index.view.attrs), "key": list(index.key)}
        for index in catalog.indexes()
    ]
    manifest = {
        "format_version": _FORMAT_VERSION,
        "dimensions": {d.name: d.cardinality for d in schema.dimensions},
        "measure": schema.measure,
        "extra_measures": list(catalog.fact.extra_measures),
        "views": views,
        "indexes": indexes,
    }
    with open(directory / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")


def load_catalog(directory: PathLike) -> Catalog:
    """Reload a catalog saved with :func:`save_catalog`.

    Indexes are rebuilt from the stored view tables, so the loaded
    catalog is bit-for-bit equivalent for every query.
    """
    directory = Path(directory)
    with open(directory / "manifest.json") as f:
        manifest = json.load(f)
    if manifest.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported catalog format {manifest.get('format_version')!r}"
        )

    schema = CubeSchema(
        [Dimension(n, int(c)) for n, c in manifest["dimensions"].items()],
        measure=manifest.get("measure", "sales"),
    )
    extra_names = manifest.get("extra_measures", [])
    with np.load(directory / "fact.npz") as arrays:
        fact = FactTable(
            schema,
            {name: arrays[f"dim_{name}"] for name in schema.names},
            arrays["measures"],
            extra_measures={
                name: arrays[f"measure_{name}"] for name in extra_names
            },
        )
    catalog = Catalog(fact)

    for entry in manifest["views"]:
        attrs = tuple(entry["attrs"])
        with np.load(directory / entry["file"]) as arrays:
            table = ViewTable(
                View(attrs),
                attrs,
                {a: arrays[f"key_{a}"] for a in attrs},
                arrays["values"],
                agg=entry.get("agg", "sum"),
                extra_values={
                    name: arrays[f"measure_{name}"]
                    for name in entry.get("extra_measures", [])
                },
                measure=entry.get("measure", schema.measure),
            )
        catalog.add_view(table)

    for entry in manifest["indexes"]:
        index = Index(View(entry["view"]), tuple(entry["key"]))
        catalog.build_index(index)
    return catalog
