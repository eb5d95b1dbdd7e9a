"""Matrix arithmetic and deterministic group closure."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay3 import matgroup
from mckay3.catalog import build_group, generators, parse_spec
from mckay3.chartab import conjugacy_classes, dixon_table
from mckay3.exactnum import ConductorMismatch, Cyclotomic, root
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
    assert t * t * t == SquareMatrix.identity(3)


def test_trace():
    m = SquareMatrix([[root(1, 8), 2, 0], [0, 0, 1], [1, 0, 0]])
    assert m.trace() == root(1, 8)


def test_key_distinguishes_and_caches():
    a = _cycle()
    b = SquareMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
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
    assert sorted(len(tetra.powers(i)) for i in range(12)).count(3) == 8


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


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: _cycle() * SquareMatrix([[1, 0], [0, 1]]), ValueError, "dimension mismatch"),
        (lambda: SquareMatrix([[root(1, 3)]]) * SquareMatrix([[root(1, 4)]]), ConductorMismatch,
         "matrix conductors differ; promote first"),
        (lambda: closure([]), ValueError, "need at least one generator"),
        (lambda: closure([_cycle(), SquareMatrix([[0, 1], [1, 0]])]), ValueError,
         "generators must share one dimension"),
    ],
    ids=["mul-dimension", "mul-conductor", "closure-no-generators", "closure-mixed-dimensions"],
)
def test_malformed_operands_raise(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


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
                assert row[j] == group.index_of(product)


def test_group_inverses(tetra):
    # the last power of every element is its inverse
    e = SquareMatrix.identity(3)
    for i in range(tetra.order):
        assert tetra.elements[i] * tetra.elements[tetra.powers(i)[-1]] == e


def test_element_orders_divide_group_order(tetra):
    # powers(i) lists i^0 .. i^(o-1), each the matrix power, and i^o = 1
    for i in range(tetra.order):
        walk = tetra.powers(i)
        assert tetra.order % len(walk) == 0
        power = SquareMatrix.identity(3)
        for s in walk:
            assert tetra.index_of(power) == s
            power = power * tetra.elements[i]
        assert power == SquareMatrix.identity(3)


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
        idx = tetra.right[letter][idx]
    assert tetra.index_of(acc) == idx


@pytest.mark.parametrize("name", ["G7", "Gm3:3"])
def test_exact_products_reproduce_classes_table_and_quiver(name, monkeypatch):
    def analysis(group):
        classes = conjugacy_classes(group)
        table = dixon_table(group, classes)
        return classes, table, adjacency(table)

    def exact_mul(self, i, j):
        return self.index[(self.elements[i] * self.elements[j]).key()]

    class ExactRight:
        # right multiplication by elements[j], one exact product per lookup;
        # iteration ends at the IndexError one past the last element
        def __init__(self, group, j):
            self.group, self.j = group, j

        def __getitem__(self, i):
            return exact_mul(self.group, i, self.j)

    spec = parse_spec(name)
    expected = analysis(build_group(spec))
    # every index product of a freshly built group from exact matrices: the
    # right permutations behind the conjugations, and the whole
    # left-multiplication rows behind the power walks (orders, inverses and
    # power maps) and the class constants
    monkeypatch.setattr(
        FiniteMatrixGroup,
        "left",
        lambda self, z: [exact_mul(self, z, y) for y in range(self.order)],
    )
    group = build_group(spec)
    group.right = [ExactRight(group, g) for g in group.generator_indices]
    assert analysis(group) == expected


def test_products_keep_no_per_element_words():
    # a cyclic group of order 500 has tree depths 0..499, so a word per
    # element would hold about 125000 references
    z = root(1, 500)
    group = closure([SquareMatrix([[z, 0, 0], [0, z.inv(), 0], [0, 0, 1]])])
    tracemalloc.start()
    try:
        assert group.left(5)[499] == 4
        assert len(group.powers(7)) == 500
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_classes_read_one_left_row_per_class():
    # one generator of order 200, so r = |G|: a left row per class for the
    # power walks, and per generator the rows of g and g^-1 and one pass of
    # its right permutation, each row |G| - 1 reads of `right`
    base = closure([SquareMatrix([[root(1, 200)]])])
    reads = [0]

    class Counting(list):
        def __getitem__(self, i):
            reads[0] += 1
            return list.__getitem__(self, i)

        def __iter__(self):
            return (self[i] for i in range(len(self)))

    right = [Counting(perm) for perm in base.right]
    group = FiniteMatrixGroup(base.elements, right, base._tree)
    reads[0] = 0
    classes = conjugacy_classes(group)
    n, r = group.order, classes.count
    assert 0 < reads[0] <= n * (r + 2 * len(right) + 1)
    # every power walk is the run of exact matrix powers up to the inverse
    one = SquareMatrix.identity(1, group.conductor)
    for rep in classes.reps:
        walk, power = group.powers(rep), one
        for s in walk:
            assert group.elements[s] == power
            power = power * group.elements[rep]
        assert power == one


def _exact_closure(gens):
    """The breadth-first walk with every edge x*g an exact product: each
    level sorted by key, each parent the first hit in walk order."""
    identity = SquareMatrix.identity(gens[0].dim, gens[0].conductor)
    elements, index, tree = [identity], {identity.key(): 0}, [None]
    right = [[] for _ in gens]
    frontier = [0]
    while frontier:
        fresh, keys = {}, [[] for _ in gens]
        for x in frontier:
            for pos, g in enumerate(gens):
                y = elements[x] * g
                keys[pos].append(y.key())
                if y.key() not in index:
                    fresh.setdefault(y.key(), (y, x, pos))
        frontier = []
        for k in sorted(fresh):
            y, parent, pos = fresh[k]
            index[k] = len(elements)
            frontier.append(len(elements))
            elements.append(y)
            tree.append((parent, pos))
        for row, level_keys in zip(right, keys):
            row.extend(index[k] for k in level_keys)
    return elements, index, right, tree


def _assert_exact_walk(group, gens):
    elements, index, right, tree = _exact_closure(gens)
    assert list(group.elements) == elements
    assert group.index == index
    assert group.right == right
    assert group._tree == tree


@pytest.mark.parametrize(
    "name",
    [
        "G5",
        "G8",
        "G10",
        "G11",
        "G12",
        "SL2:2I",
        "Hmn:3,5",
        "Gm3:6",
        "Gm6:3",
        "SL2:binD:3:alpha=4",
        "SL2:cyclic:5:alpha=3",
    ],
)
def test_closure_matches_the_exact_walk(name):
    gens = generators(parse_spec(name))
    _assert_exact_walk(closure(gens), gens)


def _embed(rows):
    return SquareMatrix([[1, 0, 0], [0, *rows[0]], [0, *rows[1]]])


def test_unipotent_group_exceeds_the_bound():
    with pytest.raises(OrderBoundExceeded, match="more than 300 elements"):
        closure([SquareMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])], max_order=300)


def test_sl2z_exceeds_the_bound():
    # SL2(Z) is generated by an element of order 4 and one of order 6
    gens = [_embed([[0, -1], [1, 0]]), _embed([[0, -1], [1, 1]])]
    assert [closure([g]).order for g in gens] == [4, 6]
    with pytest.raises(OrderBoundExceeded, match="more than 300 elements"):
        closure(gens, max_order=300)


def test_a_denominator_closes_exactly():
    # d * cycle * d^-1 has the entries 5 and 1/5
    d = SquareMatrix([[5, 0, 0], [0, 1, 0], [0, 0, 1]])
    d_inv = SquareMatrix([[Fraction(1, 5), 0, 0], [0, 1, 0], [0, 0, 1]])
    gens = [d * _cycle() * d_inv]
    group = closure(gens)
    assert group.order == 3
    _assert_exact_walk(group, gens)


def test_closure_multiplies_each_value_pair_once(monkeypatch):
    # no element is built by a matrix product or a dot, and each distinct
    # pair of a row entry and a generator entry is multiplied at most once
    # (the bound also covers the generators' determinants)
    gens = generators(parse_spec("G12"))
    dots, products, value_products = [], [], []
    dot, product = matgroup.dot, SquareMatrix.__mul__
    value_product = Cyclotomic.__mul__

    def counted_dot(xs, ys):
        dots.append(1)
        return dot(xs, ys)

    def counted_product(self, other):
        products.append(1)
        return product(self, other)

    def counted_value_product(self, other):
        value_products.append(1)
        return value_product(self, other)

    monkeypatch.setattr(matgroup, "dot", counted_dot)
    monkeypatch.setattr(SquareMatrix, "__mul__", counted_product)
    monkeypatch.setattr(Cyclotomic, "__mul__", counted_value_product)
    group = closure(gens)
    rows = {r for m in group.elements for r in m.rows}
    row_values = {v for r in rows for v in r}
    gen_values = {v for g in gens for r in g.rows for v in r}
    assert group.order == 1080
    assert len(rows) == 270
    assert dots == []
    assert products == []
    assert len(value_products) <= len(row_values) * len(gen_values)


def test_closure_memo_stays_small():
    # G10 has 504 elements and 504 rows over 85 distinct entry values
    gens = generators(parse_spec("G10"))
    tracemalloc.start()
    try:
        assert closure(gens).order == 504
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20
