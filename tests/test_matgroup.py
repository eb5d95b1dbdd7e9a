"""Matrix arithmetic and deterministic group closure."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay3.catalog import build_group, parse_spec
from mckay3.chartab import conjugacy_classes, dixon_table
from mckay3.exactnum import ConductorMismatch, root
from mckay3.matgroup import (
    FiniteMatrixGroup,
    OrderBoundExceeded,
    SingularMatrix,
    SquareMatrix,
    closure,
    to_common_conductor,
)
from mckay3.mckay import adjacency


def _cycle():
    return SquareMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def _klein():
    return SquareMatrix([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])


@pytest.fixture(scope="module")
def tetra():
    # <3-cycle, diag(-1,-1,1)> is the rotation group of the tetrahedron
    return closure([_cycle(), _klein()])


def test_constructor_rejects_ragged_input():
    with pytest.raises(ValueError):
        SquareMatrix([[1, 0], [0]])
    with pytest.raises(ValueError):
        SquareMatrix([])


def test_constructor_promotes_mixed_conductors():
    m = SquareMatrix([[root(1, 3), 0, 0], [0, root(1, 4), 0], [0, 0, 1]])
    assert m.conductor == 12
    assert m.det() == root(7, 12)


def test_identity_and_powers():
    t = _cycle()
    assert t.det() == 1
    assert t**3 == SquareMatrix.identity(3)
    assert (t**0) == SquareMatrix.identity(3)
    with pytest.raises(ValueError):
        t**-1


def test_trace_transpose_conjugate():
    m = SquareMatrix([[root(1, 8), 2, 0], [0, 0, 1], [1, 0, 0]])
    assert m.trace() == root(1, 8)
    assert m.transpose().transpose() == m
    assert m.conjugate().rows[0][0] == root(7, 8)


def test_key_distinguishes_and_caches():
    a = _cycle()
    b = _cycle().transpose()
    assert a.key() != b.key()
    assert a.key() == _cycle().key()


def test_to_common_conductor():
    mats = to_common_conductor(
        [SquareMatrix([[root(1, 3)]]), SquareMatrix([[root(1, 4)]])]
    )
    assert {m.conductor for m in mats} == {12}


def test_closure_of_cycle_is_order_three():
    g = closure([_cycle()])
    assert g.order == 3
    assert g.elements[0] == SquareMatrix.identity(3)


def test_closure_tetrahedral_order_and_exponent(tetra):
    assert tetra.order == 12
    assert tetra.exponent() == 6
    assert sorted(tetra.element_order(i) for i in range(12)).count(3) == 8


def test_closure_is_deterministic(tetra):
    again = closure([_cycle(), _klein()])
    assert [m.key() for m in again.elements] == [m.key() for m in tetra.elements]


def test_closure_rejects_mixed_conductors():
    a = SquareMatrix([[root(1, 3)]])
    b = SquareMatrix([[root(1, 4)]])
    with pytest.raises(ConductorMismatch):
        closure([a, b])


def test_closure_rejects_singular_generator():
    with pytest.raises(SingularMatrix):
        closure([SquareMatrix([[1, 0], [0, 0]])])


def test_closure_order_bound():
    z = root(1, 7)
    gen = SquareMatrix([[z, 0, 0], [0, z.inv(), 0], [0, 0, 1]])
    with pytest.raises(OrderBoundExceeded):
        closure([gen], max_order=5)
    # the bound counts the generator level and the identity too
    with pytest.raises(OrderBoundExceeded):
        closure([SquareMatrix([[-1, 0], [0, -1]])], max_order=1)
    with pytest.raises(OrderBoundExceeded):
        closure([SquareMatrix.identity(2)], max_order=0)


def test_group_multiplication_table_matches_matrices(tetra):
    # a repeated generator and the identity add generator positions, not elements
    padded = closure([_cycle(), SquareMatrix.identity(3), _cycle(), _klein()])
    assert [m.key() for m in padded.elements] == [m.key() for m in tetra.elements]
    for group in (tetra, padded):
        for i in range(group.order):
            row = group.left(i)
            for j in range(group.order):
                product = group.elements[i] * group.elements[j]
                assert group.mul(i, j) == row[j] == group.index_of(product)


def test_group_inverses(tetra):
    e = SquareMatrix.identity(3)
    for i in range(tetra.order):
        assert tetra.elements[i] * tetra.elements[tetra.inverse(i)] == e


def test_element_orders_divide_group_order(tetra):
    for i in range(tetra.order):
        o = tetra.element_order(i)
        assert tetra.order % o == 0
        assert tetra.elements[i] ** o == SquareMatrix.identity(3)


def test_index_of_rejects_outsiders(tetra):
    with pytest.raises(KeyError):
        tetra.index_of(SquareMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))


@given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_words_in_generators_stay_inside(tetra, word):
    gens = [tetra.elements[g] for g in tetra.generator_indices]
    acc = SquareMatrix.identity(3)
    idx = 0
    for letter in word:
        acc = acc * gens[letter]
        idx = tetra.mul(idx, tetra.generator_indices[letter])
    assert tetra.index_of(acc) == idx


@pytest.mark.parametrize("name", ["G7", "Gm3:3"])
def test_exact_products_reproduce_classes_table_and_quiver(name, monkeypatch):
    def analysis(group):
        classes = conjugacy_classes(group)
        table = dixon_table(group, classes)
        return classes, table, adjacency(table)

    def exact_mul(self, i, j):
        return self.index[(self.elements[i] * self.elements[j]).key()]

    spec = parse_spec(name)
    expected = analysis(build_group(spec))
    # every index product of a freshly built group from exact matrices,
    # single products and whole left-multiplication rows alike
    monkeypatch.setattr(FiniteMatrixGroup, "mul", exact_mul)
    monkeypatch.setattr(
        FiniteMatrixGroup,
        "left",
        lambda self, z: [exact_mul(self, z, y) for y in range(self.order)],
    )
    assert analysis(build_group(spec)) == expected


def test_products_keep_no_per_element_words():
    # a cyclic group of order 500 has tree depths 0..499, so a word per
    # element would hold about 125000 references
    z = root(1, 500)
    group = closure([SquareMatrix([[z, 0, 0], [0, z.inv(), 0], [0, 0, 1]])])
    tracemalloc.start()
    try:
        assert group.mul(5, 499) == 4
        assert group.element_order(7) == 500
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
