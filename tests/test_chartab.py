"""Conjugacy classes, Dixon character tables on small known groups, and the
tables of split monomial groups read off their little groups."""

import sys
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay3 import chartab, pipeline
from mckay3.catalog import abelian_table, all_specs, build_group, parse_spec
from mckay3.chartab import (
    CharacterTable,
    NonIntegralMultiplicity,
    OrthogonalityFailure,
    conjugacy_classes,
    decompose_product,
    dixon_table,
    little_group_table,
    natural_character,
    tables_match_by_reps,
    verify_orthogonality,
)
from mckay3.exactnum import Cyclotomic, root
from mckay3.matgroup import SquareMatrix, closure
from mckay3.mckay import Quiver, adjacency, eigenvector_check
from mckay3.modp import kernel_basis, rref


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
    _, t = s3_table
    chi = natural_character(t)
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
    assert [list(row) for row in q.matrix] == decompose_product(t, chi)
    assert eigenvector_check(t, q, chi) == (True, True)


def test_decompose_product_rejects_non_characters():
    g = build_group(parse_spec("Hmn:2,2"))
    t = dixon_table(g)
    half = tuple(
        Cyclotomic.rational(Fraction(1, 2), t.conductor) for _ in range(t.count)
    )
    with pytest.raises(NonIntegralMultiplicity):
        decompose_product(t, half)
    with pytest.raises(NonIntegralMultiplicity, match="not a degree"):
        adjacency(t, half)


def test_one_prime_orthogonality_matches_the_exact_check(small_tables):
    verdicts = []
    for t, _ in small_tables.values():
        for variant in _tamperings(t):
            verdicts.append(chartab._orthogonal_mod_prime(variant))
            assert verdicts[-1] == verify_orthogonality(variant)
    assert True in verdicts and False in verdicts


def test_adjacency_matches_decompose_product(small_tables):
    promoted = 0
    roster = [pipeline.Analysis(spec, 20000) for spec in all_specs()]
    for t, chi in (*small_tables.values(), *((an.table, an.chi) for an in roster)):
        promoted += chi[0].conductor != t.conductor
        assert [list(row) for row in adjacency(t, chi).matrix] == decompose_product(t, chi)
    assert promoted


def test_adjacency_prime_exceeds_every_multiplicity():
    # 50 copies of the regular character of Z/2: every m_ij is 50, so
    # R = |G| M has entries 100, and only the factor c = ||chi||_1 = 100 of
    # the integer Gram's prime bound 2 |G| c d_max^2 recovers them
    t = dixon_table(build_group(parse_spec("Hmn:2,1")))
    chi = (Cyclotomic.rational(100, 2), Cyclotomic.rational(0, 2))
    assert adjacency(t, chi).matrix == ((50, 50), (50, 50))
    assert decompose_product(t, chi) == [[50, 50], [50, 50]]


def test_adjacency_rejects_non_characters(small_tables):
    t, chi = small_tables["SL2:2T"]
    e = t.conductor
    # integral values: half the regular character, and a virtual character
    half_regular = (Cyclotomic.rational(t.order // 2, e),) + (
        Cyclotomic.rational(0, e),
    ) * (t.count - 1)
    virtual = tuple(a - b for a, b in zip(t.values[2], t.values[1]))
    # chi(1) = 3 is a degree, but another value has denominator 2
    halved = (chi[0],) + tuple(v * Fraction(1, 2) for v in chi[1:])
    for bad in (half_regular, virtual, halved):
        with pytest.raises(NonIntegralMultiplicity):
            decompose_product(t, bad)
        with pytest.raises(NonIntegralMultiplicity):
            adjacency(t, bad)
    with pytest.raises(NonIntegralMultiplicity, match="not an algebraic integer"):
        adjacency(t, halved)


def test_adjacency_rejects_a_chi_whose_gram_is_integral():
    # chi = (2, zeta_3 - 1, zeta_3 - 1) on Z/3 is not Galois-equivariant;
    # its Gram reads 2|G| I mod p, so every m_ij passes as 2 delta_ij, and
    # only row 0 giving 2 gamma_0 != chi back rejects it
    t = dixon_table(build_group(parse_spec("Hmn:3,1")))
    w = root(1, 3) - 1
    chi = (Cyclotomic.rational(2, 3), w, w)
    assert chartab._integer_gram(t, list(chi), 3) == [[6, 0, 0], [0, 6, 0], [0, 0, 6]]
    with pytest.raises(NonIntegralMultiplicity, match="does not give chi back"):
        adjacency(t, chi)
    with pytest.raises(NonIntegralMultiplicity):
        decompose_product(t, chi)


def test_class_functions_need_one_value_per_class(small_tables):
    t, chi = small_tables["G7"]
    q = adjacency(t, chi)
    for bad in (chi[:1], chi[:-1], chi + chi[:1]):
        for call in (adjacency, decompose_product):
            with pytest.raises(ValueError, match="values, the table"):
                call(t, bad)
        with pytest.raises(ValueError, match="values, the table"):
            eigenvector_check(t, q, bad)
    short = Quiver(q.dims[:-1], tuple(row[:-1] for row in q.matrix[:-1]), q.rep_dim)
    with pytest.raises(ValueError, match="vertices, the table"):
        eigenvector_check(t, short, chi)


def test_integer_gram_equals_the_exact_gram(small_tables):
    # a virtual character has negative multiplicities, so R = |G| M has
    # negative entries, which only the symmetric residues give back
    negative = 0
    for t, chi in small_tables.values():
        virtual = tuple(a - b for a, b in zip(t.values[-1], t.values[1]))
        for c in (chi, virtual):
            target = lcm(t.conductor, *(v.conductor for v in c))
            got = chartab._integer_gram(t, [v.promote(target) for v in c], target)
            exact = [[int(v.try_rational()) for v in row] for row in chartab._gram(t, c)]
            assert got == exact
            negative += any(v < 0 for row in got for v in row)
    assert negative


def test_adjacency_names_the_entry_decompose_product_names(small_tables):
    t, _ = small_tables["SL2:2T"]
    e = t.conductor
    half_regular = (Cyclotomic.rational(t.order // 2, e),) + (
        Cyclotomic.rational(0, e),
    ) * (t.count - 1)
    virtual = tuple(a - b for a, b in zip(t.values[2], t.values[1]))
    for bad in (half_regular, virtual):
        with pytest.raises(NonIntegralMultiplicity) as exact:
            decompose_product(t, bad)
        with pytest.raises(NonIntegralMultiplicity) as modular:
            adjacency(t, bad)
        assert str(modular.value) == str(exact.value)


@pytest.mark.parametrize("name", ["Gm3:12", "G12"])
def test_dixon_lift_shares_one_object_per_value(name):
    # Gm3:12 has 3136 cells over 31 distinct values
    table = dixon_table(build_group(parse_spec(name)))
    values = [v for row in table.values for v in row]
    assert len({id(v) for v in values}) == len(set(values)) < len(values)


def test_failed_orthogonality_certificate_raises(monkeypatch):
    monkeypatch.setattr(chartab, "_orthogonal_mod_prime", lambda table: False)
    with pytest.raises(OrthogonalityFailure, match="mod p'"):
        dixon_table(build_group(parse_spec("G7")))


def test_lift_checks_the_multiplicities_sum_to_the_degree(monkeypatch):
    # with z = 1 in place of a primitive root, the trivial character gets
    # mu_t = 1 for every t of an order-o class: each mu_t <= d, sum o != d
    monkeypatch.setattr(chartab, "root_of_unity", lambda q, n: 1)
    with pytest.raises(OrthogonalityFailure, match="do not sum to the degree"):
        dixon_table(build_group(parse_spec("SL2:cyclic:12")))


def test_lift_pins_each_column_to_its_modular_character(monkeypatch):
    # negating every exponent conjugates the whole table, which keeps it
    # orthogonal; only the reduction back to F_p sees the columns move
    root_sum = chartab.root_sum

    def negated(n, terms, den=1):
        return root_sum(n, ((-k, c) for k, c in terms), den)

    monkeypatch.setattr(chartab, "root_sum", negated)
    with pytest.raises(OrthogonalityFailure, match="do not reduce to their modular"):
        dixon_table(build_group(parse_spec("Hmn:3,1")))


def _sparse(mat):
    """A dense matrix in the (column, value) row form of `class_constants`."""
    return [[(i, a) for i, a in enumerate(row) if a] for row in mat]


def test_split_rejects_a_class_matrix_that_moves_the_subspace():
    # the swap of the two coordinates sends the line through (1, 0) off itself
    with pytest.raises(OrthogonalityFailure, match="does not preserve subspace"):
        chartab._split_subspace([[1, 0]], _sparse([[0, 1], [1, 0]]), 7)


def test_split_takes_the_kernel_when_the_krylov_vector_vanishes():
    # e_0 is already the eigenvector for 1, so (A - 1) e_0 = 0 is no line for 2
    lines = chartab._split_subspace([[1, 0], [0, 1]], _sparse([[1, 0], [0, 2]]), 7)
    assert lines == [[[1, 0]], [[0, 1]]]


def test_split_matches_the_kernels_at_a_repeated_root():
    # eigenvalues 2, 3, 2: the double root takes the kernel, 3 its Krylov line
    p = 7
    mj = [[2, 1, 0], [0, 3, 0], [0, 0, 2]]
    restricted = [list(col) for col in zip(*mj)]
    expected = []
    for lam in (2, 3):
        shifted = [
            [(a - (lam if i == k else 0)) % p for k, a in enumerate(row)]
            for i, row in enumerate(restricted)
        ]
        expected.append(rref(kernel_basis(shifted, p), p)[0])
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert chartab._split_subspace(identity, _sparse(mj), p) == expected
    assert [len(chunk) for chunk in expected] == [2, 1]


@pytest.mark.parametrize("spec, kernels", [("SL2:cyclic:30", 0), ("Gm3:4", 2)])
def test_split_takes_simple_roots_from_the_krylov_basis(monkeypatch, spec, kernels):
    # the kernel per eigenvalue made 30 and 10 calls on these groups
    calls = []

    def counted(mat, p):
        calls.append(len(mat))
        return kernel_basis(mat, p)

    monkeypatch.setattr(chartab, "kernel_basis", counted)
    dixon_table(build_group(parse_spec(spec)))
    assert len(calls) == kernels


@pytest.mark.parametrize("spec", ["G7", "Gm3:3", "SL2:binD:2"])
def test_class_constants_count_the_products_on_each_representative(spec):
    # brute force over C_i x C_j with exact matrix products, independent of
    # the left rows that `class_constants` reads; one entry per nonzero
    group = build_group(parse_spec(spec))
    classes = conjugacy_classes(group)
    target = {rep: k for k, rep in enumerate(classes.reps)}
    elements = group.elements
    counts = Counter()
    for x in range(group.order):
        for y in range(group.order):
            k = target.get(group.index[(elements[x] * elements[y]).key()])
            if k is not None:
                counts[classes.class_of[x], classes.class_of[y], k] += 1
    m = chartab.class_constants(group, classes)
    listed = [
        (i, j, k, a) for j, cols in enumerate(m) for k, col in enumerate(cols) for i, a in col
    ]
    assert sorted(listed) == sorted((*key, a) for key, a in counts.items())


def test_split_receives_every_subspace_in_rref(monkeypatch):
    # `_split_subspace` reads the pivots off the first nonzero of each row
    split = chartab._split_subspace
    bases = []

    def recorded(basis, mj, p):
        bases.append((basis, p))
        return split(basis, mj, p)

    monkeypatch.setattr(chartab, "_split_subspace", recorded)
    # every roster group but the H = 1 ones (Hmn, SL2:cyclic): Gm3 and Gm6
    # too, though the pipeline sends them past Dixon
    dixon = [build_group(s) for s in all_specs() if s.kind != "Hmn" and s.subtype != "cyclic"]
    assert len(dixon) == 29
    for g in dixon:
        dixon_table(g)
    assert bases
    assert all(basis == rref(basis, p)[0] for basis, p in bases)


def test_split_takes_the_charpoly_only_where_it_splits(monkeypatch):
    # a restricted class matrix lambda*I returns before its charpoly
    split, charpoly = chartab._split_subspace, chartab.charpoly
    polys, runs = [], []

    def counted_charpoly(mat, p):
        polys.append(len(mat))
        return charpoly(mat, p)

    def counted_split(basis, mj, p):
        before = len(polys)
        chunks = split(basis, mj, p)
        runs.append((len(polys) - before, len(chunks)))
        return chunks

    monkeypatch.setattr(chartab, "charpoly", counted_charpoly)
    monkeypatch.setattr(chartab, "_split_subspace", counted_split)
    dixon_table(build_group(parse_spec("Gm3:12")))
    assert all(n == (chunks >= 2) for n, chunks in runs)
    assert (len(runs), len(polys)) == (157, 10)


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
        power_classes=t.power_classes,
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
        power_classes=((0,), (0, 1)),
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
    assert not verify_orthogonality(t._replace(class_sizes=(1, 2, 4)))
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
    yield t._replace(values=tuple(tuple(row) for row in rows))
    yield t._replace(values=(tuple(-v for v in t.values[0]),) + t.values[1:])
    yield t._replace(class_sizes=t.class_sizes[:-1] + (t.class_sizes[-1] + 1,))
    yield t._replace(inverse_class=t.inverse_class[1:] + t.inverse_class[:1])
    yield t._replace(order=t.order + 1)


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


@pytest.mark.parametrize("side", [0, 1], ids=["first", "second"])
def test_tables_match_by_reps_needs_representatives(small_tables, side):
    table = small_tables["G7"][0]
    pair = [table, table]
    pair[side] = table._replace(class_reps=None)
    with pytest.raises(ValueError, match="^both tables need class representatives$"):
        tables_match_by_reps(*pair)


@pytest.mark.parametrize("field", ["class_sizes", "class_orders"])
def test_tables_match_by_reps_compares_column_metadata(small_tables, field):
    # the same representatives and rows, with the non-identity entries of
    # one column field reversed: only that field tells the tables apart
    table = small_tables["G7"][0]
    meta = getattr(table, field)
    assert meta[1:] != meta[:0:-1]
    altered = table._replace(**{field: meta[:1] + meta[:0:-1]})
    assert tables_match_by_reps(table, table)
    assert not tables_match_by_reps(table, altered)


@given(st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=16, deadline=None)
def test_abelian_tables_are_orthogonal(m, n):
    assert verify_orthogonality(abelian_table(m, n))


# ---------------------------------------------------------------------------
# split monomial groups: the table read off the little groups


def _tables_agree(g):
    """Is g's little-group table Dixon's, Galois action included?  False
    when the route declines g."""
    classes = conjugacy_classes(g)
    table = little_group_table(g, classes)
    return table is not None and table == dixon_table(g, classes)


def _diagonal_specs():
    """The H = 1 groups of the default roster: Hmn and SL2:cyclic."""
    return [s for s in all_specs() if s.kind == "Hmn" or s.subtype == "cyclic"]


def test_dixon_agrees_with_the_diagonal_table():
    # the H = 1 case: the pipeline sends these groups past Dixon, so this
    # keeps Dixon's coverage on them; the Klein four-group has conductor 1
    # and exponent 2
    specs = _diagonal_specs()
    assert len(specs) == 44
    diagonal = [build_group(spec) for spec in specs]
    diagonal += [build_group(parse_spec(name)) for name in ("SL2:cyclic:60", "Hmn:8,8")]
    diagonal.append(closure([
        SquareMatrix([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
        SquareMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, -1]]),
    ]))
    assert all(map(_tables_agree, diagonal))


def test_little_group_table_equals_dixon():
    # every eligible roster group up to m = 12 (Hmn, Gm3, Gm6, SL2:cyclic)
    # but the 44 the diagonal test above compares, and SL2:binD:3:alpha=4,
    # whose antidiagonal generator has order 2 at alpha = 4, so H = C2 is a
    # complement (at alpha = 1 or 2 it meets A)
    kinds = ("Hmn", "Gm3", "Gm6")
    specs = [s for s in all_specs(12) if s.kind in kinds or s.subtype == "cyclic"]
    assert len(specs) == 176
    compared = set(_diagonal_specs())
    specs = [s for s in specs if s not in compared]
    extra = ("SL2:cyclic:4:alpha=3", "Gm3:16", "Gm6:16", "SL2:binD:3:alpha=4")
    for spec in specs + [parse_spec(name) for name in extra]:
        assert _tables_agree(build_group(spec)), spec.name


def test_little_group_table_takes_irr_in_any_row_order(monkeypatch):
    # the trivial row is found by its values, not by its place: Irr(H_l)
    # handed back with its rows reversed still gives Dixon's table on G,
    # trivial row first
    groups = [build_group(parse_spec(name)) for name in ("Gm3:2", "Gm6:2", "Gm6:3")]
    expected = [dixon_table(g, conjugacy_classes(g)) for g in groups]
    reversed_calls = []

    def reversed_rows(g, classes):
        reversed_calls.append(g.order)
        table = dixon_table(g, classes)
        return table._replace(dims=table.dims[::-1], values=table.values[::-1])

    monkeypatch.setattr(chartab, "dixon_table", reversed_rows)
    for g, want in zip(groups, expected):
        table = little_group_table(g, conjugacy_classes(g))
        assert table == want
        assert all(v == 1 for v in table.values[0])
    assert reversed_calls


def test_little_group_table_refuses_a_duplicated_trivial_row(monkeypatch):
    # every rho the trivial character: the orbit of lambda = 1 gives it
    # once per row of Irr(H_l)
    def trivial_rows(g, classes):
        table = dixon_table(g, classes)
        return table._replace(values=(table.values[0],) * table.count)

    monkeypatch.setattr(chartab, "dixon_table", trivial_rows)
    g = build_group(parse_spec("Gm3:2"))
    with pytest.raises(OrthogonalityFailure, match="trivial character missing or duplicated"):
        little_group_table(g, conjugacy_classes(g))


def _refuse_everywhere(monkeypatch, fn):
    """Make every mckay3 namespace that binds fn raise when it is called."""

    def refuse(*args, **kwargs):
        raise AssertionError(f"{fn.__name__} called")

    for modname, module in list(sys.modules.items()):
        if modname == "mckay3" or modname.startswith("mckay3."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, refuse)


def test_diagonal_groups_skip_dixon(monkeypatch):
    _refuse_everywhere(monkeypatch, chartab.dixon_table)
    _refuse_everywhere(monkeypatch, chartab.class_constants)
    with pytest.raises(AssertionError, match="dixon_table called"):
        pipeline.Analysis(parse_spec("G7"), 20000)
    for name in ("Hmn:4,5", "SL2:cyclic:12", "SL2:cyclic:4:alpha=3"):
        report = pipeline.verify(parse_spec(name), 20000)
        assert "fail" not in report["checks"].values(), name


def _recording(monkeypatch, name, size):
    """Replace chartab.<name> with a wrapper that logs size(*args)."""
    real, log = getattr(chartab, name), []

    def recorded(*args):
        log.append(size(*args))
        return real(*args)

    monkeypatch.setattr(chartab, name, recorded)
    return log


def test_split_groups_skip_the_dixon_split_of_g(monkeypatch):
    # Dixon runs on the little groups alone, of at most 3! = 6 elements
    # and 3 classes: G's own class constants and split are never formed
    orders = _recording(monkeypatch, "dixon_table", lambda g, classes: g.order)
    constants = _recording(monkeypatch, "class_constants", lambda g, classes: g.order)
    splits = _recording(monkeypatch, "_split_subspace", lambda basis, mj, p: len(basis))
    for name in ("Gm3:6", "Gm6:6"):
        report = pipeline.verify(parse_spec(name), 20000)
        assert "fail" not in report["checks"].values(), name
    assert sorted(set(orders)) == sorted(set(constants)) == [2, 3, 6]
    assert max(splits) <= 3


def test_other_groups_take_dixon(monkeypatch):
    # no monomial generating set (G7, SL2:2T), or an antidiagonal generator
    # of order 4 whose H meets A (SL2:binD:3, twisted or not), or a
    # monomial entry that is no root of unity
    odd = closure([SquareMatrix([[1, 0, 0], [0, 0, 2], [0, Fraction(1, 2), 0]])])
    assert odd.order == 2 and little_group_table(odd, conjugacy_classes(odd)) is None
    orders = _recording(monkeypatch, "dixon_table", lambda g, classes: g.order)
    for name in ("G7", "SL2:2T", "SL2:binD:3", "SL2:binD:3:alpha=2"):
        orders.clear()
        an = pipeline.Analysis(parse_spec(name), 20000)
        assert little_group_table(an.group, an.classes) is None, name
        assert orders == [an.group.order], name
        report = pipeline.verify(parse_spec(name), 20000)
        assert "fail" not in report["checks"].values(), name


def test_diagonal_walk_short_of_the_order_raises(monkeypatch):
    g = build_group(parse_spec("Hmn:2,2"))
    classes = conjugacy_classes(g)
    # on SL3 eps_2 = (eps_0 eps_1)^-1, so the walk must lose eps_1 as well
    # to fall short: eps_0 alone reaches 2 of the 4 characters
    monkeypatch.setattr(g, "dim", 1)
    with pytest.raises(OrthogonalityFailure, match="do not reach"):
        little_group_table(g, classes)


def test_diagonal_table_refuses_a_group_with_fewer_classes():
    g = build_group(parse_spec("Hmn:2,2"))
    classes = conjugacy_classes(g)
    # four characters, but the last class dropped
    wrong = classes._replace(reps=classes.reps[:3])
    with pytest.raises(OrthogonalityFailure, match="4 characters for 3 classes"):
        little_group_table(g, wrong)


def test_diagonal_entries_must_be_roots_of_the_exponent():
    g = build_group(parse_spec("Hmn:2,2"))
    classes = conjugacy_classes(g)
    # orders of 1 give e = 1, and -1 is no power of zeta_1
    wrong = classes._replace(orders=(1,) * classes.count)
    with pytest.raises(OrthogonalityFailure, match="no e-th root"):
        little_group_table(g, wrong)


def test_little_group_exponent_must_divide_e():
    g = build_group(parse_spec("Gm3:2"))
    classes = conjugacy_classes(g)
    # e = 2 holds the diagonal entries +-1, but not the little group C_3
    wrong = classes._replace(orders=(2,) * classes.count)
    with pytest.raises(OrthogonalityFailure, match="does not divide e"):
        little_group_table(g, wrong)


def test_diagonal_table_failing_its_exact_checks_raises():
    g = build_group(parse_spec("Hmn:2,2"))
    classes = conjugacy_classes(g)
    # a class size of 3 does not divide |G| = 4
    wrong = classes._replace(sizes=(1, 1, 1, 3))
    with pytest.raises(OrthogonalityFailure, match="exact checks"):
        little_group_table(g, wrong)


def test_split_table_failing_its_certificate_raises(monkeypatch):
    # H != 1: the table is held to Dixon's certificate, not the exact checks
    monkeypatch.setattr(chartab, "_orthogonal_mod_prime", lambda table: False)
    g = build_group(parse_spec("Gm3:2"))
    with pytest.raises(OrthogonalityFailure, match="mod p'"):
        little_group_table(g, conjugacy_classes(g))
