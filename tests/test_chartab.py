"""Conjugacy classes and Dixon character tables on small known groups."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay3.catalog import abelian_table, build_group, parse_spec
from mckay3.chartab import (
    CharacterTable,
    NonIntegralMultiplicity,
    conjugacy_classes,
    decompose_product,
    dixon_table,
    natural_character,
    tables_match_by_reps,
    verify_orthogonality,
)
from mckay3.exactnum import Cyclotomic
from mckay3.matgroup import SquareMatrix, closure
from mckay3.mckay import adjacency, dual_transpose_check, eigenvector_check


def _s3():
    # coordinate permutations with odd ones signed into determinant one
    t = SquareMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    r = SquareMatrix([[-1, 0, 0], [0, 0, -1], [0, -1, 0]])
    return closure([t, r])


def _a4():
    t = SquareMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    k = SquareMatrix([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    return closure([t, k])


@pytest.fixture(scope="module")
def s3_table():
    g = _s3()
    return g, dixon_table(g)


@pytest.fixture(scope="module")
def a4_table():
    g = _a4()
    return g, dixon_table(g)


def test_s3_classes():
    g = _s3()
    classes = conjugacy_classes(g)
    assert classes.count == 3
    assert classes.sizes == (1, 2, 3)
    assert classes.orders == (1, 3, 2)
    assert classes.reps[0] == 0


def test_s3_table_shape(s3_table):
    _, t = s3_table
    assert t.dims == (1, 1, 2)
    assert t.order == 6
    assert all(v == 1 for v in t.values[0])
    assert [t.values[i][0] for i in range(3)] == [1, 1, 2]


def test_s3_standard_row(s3_table):
    _, t = s3_table
    row = t.values[2]
    assert [v.try_rational() for v in row] == [2, -1, 0]


def test_s3_orthogonality(s3_table):
    _, t = s3_table
    assert verify_orthogonality(t)


def test_a4_table(a4_table):
    _, t = a4_table
    assert t.dims == (1, 1, 1, 3)
    assert t.class_sizes == (1, 3, 4, 4)
    assert verify_orthogonality(t)


def test_a4_inverse_class_swaps_cycle_classes(a4_table):
    _, t = a4_table
    # the two order-3 classes are inverse to each other, the rest self-inverse
    k3 = [k for k in range(4) if t.class_orders[k] == 3]
    assert len(k3) == 2
    assert t.inverse_class[k3[0]] == k3[1]
    assert t.inverse_class[k3[1]] == k3[0]


def test_values_conjugate_through_inverse_class(a4_table):
    _, t = a4_table
    for i in range(t.count):
        for k in range(t.count):
            assert t.values[i][t.inverse_class[k]] == t.values[i][k].conjugate()


def test_natural_character_decomposes(s3_table):
    g, t = s3_table
    classes = conjugacy_classes(g)
    chi = natural_character(g, classes)
    assert chi[0] == 3
    m = decompose_product(t, chi)
    # pi tensor trivial = pi = sign + standard in this signed embedding
    assert m[0] == [0, 1, 1]


def test_decompose_product_against_trivial(s3_table):
    _, t = s3_table
    ones = tuple(Cyclotomic.rational(1, t.conductor) for _ in range(t.count))
    assert decompose_product(t, ones) == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]


def test_class_function_with_mixed_conductors():
    # chi = 1 + 2*sign on Z/2, its two values stored at conductors 3 and 4
    # while the table lives at conductor 2: the promotion target is lcm 12
    t = dixon_table(build_group(parse_spec("Hmn:2,1")))
    assert t.conductor == 2
    chi = (Cyclotomic.rational(3, 3), Cyclotomic.rational(-1, 4))
    q = adjacency(t, chi)
    assert q.matrix == ((1, 2), (2, 1))
    assert eigenvector_check(t, q, chi) == (True, True)
    assert dual_transpose_check(t, q, chi) is True


def test_decompose_product_rejects_non_characters():
    g = build_group(parse_spec("Hmn:2,2"))
    t = dixon_table(g)
    half = tuple(
        Cyclotomic.rational(Fraction(1, 2), t.conductor) for _ in range(t.count)
    )
    with pytest.raises(NonIntegralMultiplicity):
        decompose_product(t, half)


def test_orthogonality_catches_tampering(s3_table):
    _, t = s3_table
    rows = [list(r) for r in t.values]
    rows[2][1], rows[2][2] = rows[2][2], rows[2][1]
    broken = CharacterTable(
        conductor=t.conductor,
        order=t.order,
        dims=t.dims,
        values=tuple(tuple(r) for r in rows),
        class_sizes=t.class_sizes,
        class_orders=t.class_orders,
        inverse_class=t.inverse_class,
        class_reps=t.class_reps,
    )
    assert not verify_orthogonality(broken)


def _fake_table(dims, rows, sizes, inverse_class):
    return CharacterTable(
        conductor=1,
        order=sum(d * d for d in dims),
        dims=dims,
        values=tuple(tuple(Cyclotomic.rational(v) for v in row) for row in rows),
        class_sizes=sizes,
        class_orders=(1, 2),
        inverse_class=inverse_class,
    )


# the rows are orthogonal under these weights, but a class of size 4 in a
# group of order 5 makes the columns fail
_SIZE_NOT_DIVIDING = _fake_table((1, 2), ((1, 1), (2, Fraction(-1, 2))), (1, 4), (0, 1))
# the rows pass for i <= j, but the inverse map swaps classes of different
# sizes, so the rows for i > j and the columns fail
_SIZE_NOT_PRESERVED = _fake_table(
    (2, 4), ((2, Fraction(10, 3)), (4, Fraction(5, 3))), (4, -1), (1, 0)
)


def test_orthogonality_rejects_sizes_not_dividing_the_order(s3_table):
    _, t = s3_table
    assert not verify_orthogonality(replace(t, class_sizes=(1, 2, 4)))
    assert not verify_orthogonality(_SIZE_NOT_DIVIDING)


def _orthogonal_both_ways(t):
    """The former row-and-column check, kept as the reference."""
    r, n, sizes, inv, x = t.count, t.order, t.class_sizes, t.inverse_class, t.values
    zero = Cyclotomic.rational(0, t.conductor)
    rows = all(
        sum((sizes[k] * x[i][k] * x[j][inv[k]] for k in range(r)), zero)
        == (n if i == j else 0)
        for i in range(r)
        for j in range(i, r)
    )
    cols = rows and all(
        sum((x[i][k] * x[i][inv[l]] for i in range(r)), zero)
        == (n // sizes[k] if k == l else 0)
        for k in range(r)
        for l in range(k, r)
    )
    return (
        cols
        and sum(d * d for d in t.dims) == n
        and all(x[i][0] == t.dims[i] for i in range(r))
    )


def _tamperings(t):
    yield t
    rows = [list(row) for row in t.values]
    rows[-1][1], rows[-1][-1] = rows[-1][-1], rows[-1][1]
    yield replace(t, values=tuple(tuple(row) for row in rows))
    yield replace(t, values=(tuple(-v for v in t.values[0]),) + t.values[1:])
    yield replace(t, class_sizes=t.class_sizes[:-1] + (t.class_sizes[-1] + 1,))
    yield replace(t, inverse_class=t.inverse_class[1:] + t.inverse_class[:1])
    yield replace(t, order=t.order + 1)


def test_rows_only_orthogonality_matches_the_two_way_check(s3_table, a4_table):
    tables = [s3_table[1], a4_table[1], abelian_table(3, 2)]
    tables += [_SIZE_NOT_DIVIDING, _SIZE_NOT_PRESERVED]
    tables.append(dixon_table(build_group(parse_spec("G7"))))
    verdicts = []
    for t in tables:
        for variant in _tamperings(t):
            verdicts.append(verify_orthogonality(variant))
            assert verdicts[-1] == _orthogonal_both_ways(variant)
    assert True in verdicts and False in verdicts


def test_abelian_table_matches_dixon():
    g = build_group(parse_spec("Hmn:2,3"))
    assert tables_match_by_reps(abelian_table(2, 3), dixon_table(g))


def test_tables_match_rejects_different_groups():
    a = abelian_table(2, 2)
    b = abelian_table(4, 1)  # same order, different exponent
    assert not tables_match_by_reps(a, b)
    g24 = dixon_table(build_group(parse_spec("Hmn:2,4")))
    g42 = dixon_table(build_group(parse_spec("Hmn:4,2")))
    # isomorphic but distinct matrix groups: representatives differ
    assert not tables_match_by_reps(g24, g42)
    assert tables_match_by_reps(g24, g24)


@given(st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=16, deadline=None)
def test_abelian_tables_are_orthogonal(m, n):
    assert verify_orthogonality(abelian_table(m, n))
