"""The printed-table matcher: its verdicts and the size of its search."""

from collections import Counter
from math import factorial, prod
from types import SimpleNamespace

import pytest

from mckay3 import catalog, published
from mckay3.exactnum import Cyclotomic
from mckay3.pipeline import Analysis


def _computed(orders, sizes, rows):
    """A computed table as far as the matcher reads it, at conductor 1."""
    return SimpleNamespace(
        count=len(orders),
        conductor=1,
        class_orders=orders,
        class_sizes=sizes,
        values=tuple(tuple(Cyclotomic.rational(v) for v in row) for row in rows),
    )


def _printed(orders, sizes, rows):
    # recorded at conductor 3, so both sides are promoted before comparing
    return published.PrintedTable(
        "hand-built", orders, sizes, tuple(published._row(3, *row) for row in rows)
    )


def test_columns_that_share_metadata_match_across_a_swap():
    rows = [(1, 1, 1), (2, 0, -1)]
    swapped = [(1, 1, 1), (2, -1, 0)]
    assert sorted(rows) != sorted(swapped)  # the identity bijection fails
    computed = _computed((1, 2, 2), (1, 3, 3), rows)
    assert published.match_printed_table(computed, _printed((1, 2, 2), (1, 3, 3), swapped))


def test_no_bijection_crosses_metadata_kinds():
    # the rows agree once columns 1 and 2 trade places, but column 1 is an
    # involution class of size 3 and column 2 an order-3 class of size 2
    computed = _computed((1, 2, 3), (1, 3, 2), [(1, 1, 1), (2, 0, -1)])
    printed = _printed((1, 2, 3), (1, 3, 2), [(1, 1, 1), (2, -1, 0)])
    assert not published.match_printed_table(computed, printed)


@pytest.mark.parametrize(
    "name, printed, verdict",
    [
        ("G7", published.TABLE_G7, True),
        ("G7", published.TABLE_G7_AS_PRINTED, False),
        ("G8", published.TABLE_G8, True),
    ],
    ids=["G7", "G7-as-printed", "G8"],
)
def test_search_tries_at_most_the_per_kind_bijections(monkeypatch, name, printed, verdict):
    tried = []
    real = published.product

    def counted(*iterables):
        for combo in real(*iterables):
            tried.append(combo)
            yield combo

    monkeypatch.setattr(published, "product", counted)
    table = Analysis(catalog.parse_spec(name), 20000).table
    assert published.match_printed_table(table, printed) is verdict
    kinds = Counter(zip(table.class_orders, table.class_sizes))
    bound = prod(factorial(size) for size in kinds.values())
    # a failed match has tried every bijection, and no more than the bound
    assert 1 <= len(tried) <= bound
    assert verdict or len(tried) == bound
