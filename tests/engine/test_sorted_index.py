"""The sorted index layout against the pointer-based B+tree it replaces.

A catalog index is the leaf level of a bulk-loaded B+tree: the view's
rows sorted by ``(key…, row id)``.  These tests check that a prefix
range over that layout visits exactly the rows, in exactly the order,
that :meth:`BPlusTree.prefix_scan` visits over the tree built from the
same entries — on random tables, after a maintenance delta, and after a
save/load round trip.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import Index
from repro.core.view import View
from repro.cube.generator import generate_fact_table
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.btree import BPlusTree
from repro.engine.catalog import Catalog, SortedIndex
from repro.engine.maintenance import apply_delta
from repro.engine.storage import load_catalog, save_catalog
from repro.engine.table import ViewTable

ATTRS = ("a", "b", "c")


def reference_tree(table: ViewTable, key) -> BPlusTree:
    """The B+tree index over ``(key values…, row id)`` entries carrying
    ``(row id, measure)`` — the tree a catalog index is the leaf level
    of.  A small order makes even tiny tables route through internal
    nodes."""
    key_cols = [table.key_columns[a] for a in key]
    entries = sorted(
        (
            tuple(int(col[row]) for col in key_cols) + (row,),
            (row, float(table.values[row])),
        )
        for row in range(table.n_rows)
    )
    return BPlusTree.bulk_load(entries, order=4)


def reference_rows(table: ViewTable, key, prefix=()) -> list:
    """Row ids a B+tree prefix scan visits, in scan order."""
    tree = reference_tree(table, key)
    return [row for __, (row, __value) in tree.prefix_scan(tuple(prefix))]


def assert_matches_tree(built: SortedIndex, table: ViewTable, key, prefix):
    expected = reference_rows(table, key, prefix)
    lo, hi = built.prefix_range(tuple(prefix))
    assert hi - lo == len(expected)
    assert built.prefix_rows(tuple(prefix)).tolist() == expected


@st.composite
def indexed_tables(draw):
    """A view table (duplicate full keys allowed), an index key over a
    subset of its attributes, and a prefix of that key whose values may
    lie outside the column domain."""
    n_attrs = draw(st.integers(1, len(ATTRS)))
    attrs = ATTRS[:n_attrs]
    n_rows = draw(st.integers(0, 40))
    domain = draw(st.integers(1, 5))
    values = st.integers(0, domain - 1)
    columns = {
        a: np.array(
            draw(st.lists(values, min_size=n_rows, max_size=n_rows)),
            dtype=np.int64,
        )
        for a in attrs
    }
    table = ViewTable(
        View(attrs), attrs, columns, np.arange(n_rows, dtype=np.float64)
    )
    order = draw(st.permutations(attrs))
    key = tuple(order[: draw(st.integers(1, n_attrs))])
    prefix_len = draw(st.integers(0, len(key)))
    prefix = tuple(draw(st.integers(-1, domain)) for __ in range(prefix_len))
    return table, key, prefix


class TestAgainstBPlusTree:
    @given(indexed_tables())
    @settings(max_examples=200, deadline=None)
    def test_prefix_range_is_tree_prefix_scan(self, case):
        table, key, prefix = case
        built = SortedIndex(Index(table.view, key), table)
        assert_matches_tree(built, table, key, prefix)

    @given(indexed_tables())
    @settings(max_examples=50, deadline=None)
    def test_full_layout_is_tree_leaf_level(self, case):
        table, key, __prefix = case
        built = SortedIndex(Index(table.view, key), table)
        leaves = list(reference_tree(table, key).items())
        assert len(built) == len(leaves) == table.n_rows
        assert built.perm.tolist() == [row for __, (row, __v) in leaves]
        for position, column in enumerate(built.keys):
            assert column.tolist() == [k[position] for k, __ in leaves]

    def test_existing_prefix_with_duplicates(self):
        columns = {
            "a": np.array([2, 0, 2, 1, 2, 0]),
            "b": np.array([1, 1, 0, 1, 1, 0]),
        }
        table = ViewTable(
            View(("a", "b")), ("a", "b"), columns, np.zeros(6)
        )
        built = SortedIndex(Index(table.view, ("a", "b")), table)
        assert built.prefix_rows((2,)).tolist() == [2, 0, 4]
        assert built.prefix_rows((2, 1)).tolist() == [0, 4]
        assert built.prefix_rows((3,)).tolist() == []
        assert built.prefix_range(()) == (0, 6)


def _catalog(rng):
    schema = CubeSchema([Dimension("a", 6), Dimension("b", 4), Dimension("c", 3)])
    catalog = Catalog(generate_fact_table(schema, 120, rng=rng))
    for attrs in (("a", "b"), ("a", "b", "c"), ("c",)):
        catalog.materialize(View(attrs))
    for view, key in (
        (("a", "b"), ("b", "a")),
        (("a", "b"), ("a",)),
        (("a", "b", "c"), ("c", "a", "b")),
        (("a", "b", "c"), ("b",)),
        (("c",), ("c",)),
    ):
        catalog.build_index(Index(View(view), key))
    return catalog


def _all_prefixes(catalog):
    """Every index paired with each of its prefixes, over values present
    and absent (one past the domain) in the current fact table."""
    schema = catalog.fact.schema
    for index in catalog.indexes():
        table = catalog.view_table(index.view)
        yield index, table, ()
        for length in range(1, len(index.key) + 1):
            attrs = index.key[:length]
            for values in np.ndindex(
                *(schema.cardinality(a) + 1 for a in attrs)
            ):
                yield index, table, tuple(int(v) for v in values)


class TestCatalogIndexes:
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 60))
    @settings(max_examples=15, deadline=None)
    def test_matches_tree_after_delta(self, seed, n):
        catalog = _catalog(seed)
        rng = np.random.default_rng(seed)
        apply_delta(
            catalog,
            {
                "a": rng.integers(0, 6, size=n),
                "b": rng.integers(0, 4, size=n),
                "c": rng.integers(0, 3, size=n),
            },
            rng.uniform(0, 10, size=n),
        )
        for index, table, prefix in _all_prefixes(catalog):
            assert_matches_tree(
                catalog.sorted_index(index), table, index.key, prefix
            )

    def test_matches_tree_after_round_trip(self, tmp_path):
        save_catalog(_catalog(3), tmp_path)
        loaded = load_catalog(tmp_path)
        for index, table, prefix in _all_prefixes(loaded):
            assert_matches_tree(
                loaded.sorted_index(index), table, index.key, prefix
            )
