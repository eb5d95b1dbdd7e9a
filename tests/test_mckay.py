"""Adjacency, Cartan matrices, exact PSD, quiver isomorphism, export."""

import json
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay3 import chartab, mckay, pipeline
from mckay3.catalog import abelian_table, all_specs, build_group, parse_spec
from mckay3.chartab import dixon_table
from mckay3.exactnum import ConductorMismatch, Cyclotomic, root
from mckay3.mckay import (
    NotSymmetric,
    Quiver,
    adjacency,
    char_poly,
    eigenvector_check,
    export_dot,
    export_json,
    gen_cartan,
    kernel_delta,
    pre_cartan,
    psd_check,
    quiver_iso,
)
from mckay3.modp import integer_charpoly


def _pipeline(name):
    group = build_group(parse_spec(name))
    table = dixon_table(group)
    quiver = adjacency(table)
    return table, quiver


@pytest.fixture(scope="module")
def h22():
    return _pipeline("Hmn:2,2")


def test_h22_adjacency_is_complete_graph(h22):
    _, q = h22
    assert q.dims == (1, 1, 1, 1)
    assert q.rep_dim == 3
    for i in range(4):
        for j in range(4):
            assert q.matrix[i][j] == (0 if i == j else 1)


def test_h22_cartan_chain(h22):
    _, q = h22
    b = pre_cartan(q)
    a = gen_cartan(b)
    assert b == tuple(
        tuple(3 if i == j else -1 for j in range(4)) for i in range(4)
    )
    assert a == tuple(
        tuple(6 if i == j else -2 for j in range(4)) for i in range(4)
    )
    assert char_poly(a) == (1, -24, 192, -512, 0)
    assert char_poly(b) == (1, -12, 48, -64, 0)
    assert psd_check(a).is_psd
    assert psd_check(b).is_psd
    assert kernel_delta(a, q.dims)
    assert kernel_delta(b, q.dims)


def test_trivial_group_quiver():
    _, q = _pipeline("Hmn:1,1")
    assert q.matrix == ((3,),)
    assert pre_cartan(q) == ((0,),)


def test_char_poly_small_cases():
    assert char_poly([[1, 0], [0, 1]]) == (1, -2, 1)
    assert char_poly([[2, 1], [1, 2]]) == (1, -4, 3)
    assert char_poly([[-1]]) == (1, 1)


def test_psd_check_edges():
    assert psd_check([[0]]).is_psd
    rep = psd_check([[-1]])
    assert not rep.is_psd
    assert rep.failing_index == 1
    with pytest.raises(NotSymmetric):
        psd_check([[0, 1], [0, 0]])


def test_kernel_delta_negative():
    assert not kernel_delta([[1]], (1,))


def _balance_quivers():
    """Every roster quiver, then Hmn:2,2's with (i, j, delta) moves: one
    extra arrow, a row-balanced and a column-balanced imbalance, and an
    antisymmetric one that A's kernel keeps while B's and B^T's lose it."""
    for spec in all_specs():
        yield spec.name, pipeline.Analysis(spec, 20000)
    for moves in (
        ((0, 1, 1),),
        ((0, 1, -1), (0, 2, 1)),
        ((1, 0, -1), (2, 0, 1)),
        ((0, 1, 1), (1, 0, -1)),
    ):
        an = pipeline.Analysis(parse_spec("Hmn:2,2"), 20000)
        rows = [list(row) for row in an.quiver.matrix]
        for i, j, delta in moves:
            rows[i][j] += delta
        an.quiver = Quiver(an.quiver.dims, tuple(map(tuple, rows)), an.quiver.rep_dim)
        yield moves, an


def test_kernel_reads_the_balances_of_m():
    # Analysis.kernel reads B.delta and B^T.delta off M's row and column
    # balances, and A.delta as their sum: the verdicts of kernel_delta on
    # A, B and B^T, with neither B nor A built
    seen = set()
    for name, an in _balance_quivers():
        got = an.kernel
        assert "b" not in vars(an) and "a" not in vars(an), name
        b = pre_cartan(an.quiver)
        mats = (gen_cartan(b), b, tuple(zip(*b)))
        assert got == tuple(kernel_delta(m, an.quiver.dims) for m in mats), name
        seen.add(got)
    assert seen == {
        (True, True, True),
        (False, False, False),
        (False, True, False),
        (False, False, True),
        (True, False, False),
    }


def test_eigenvector_check_per_class(h22):
    table, q = h22
    chi = tuple(m.trace() for m in table.class_reps)
    verdicts = eigenvector_check(table, q, chi)
    assert verdicts == (True,) * 4


def test_eigenvector_check_takes_a_row_without_arrows(h22):
    # the first row of a tampered quiver sums to 0, while chi(C_k) p_k[0] =
    # chi(C_k) is -1 or 3, so every class fails and nothing raises
    table, q = h22
    chi = tuple(m.trace() for m in table.class_reps)
    no_arrows = Quiver(q.dims, ((0,) * 4,) + q.matrix[1:], q.rep_dim)
    assert eigenvector_check(table, no_arrows, chi) == (False,) * 4


def test_eigenvector_check_recomputes_on_a_certified_quiver(h22, monkeypatch):
    # the same objects adjacency has just certified are checked afresh,
    # one product M X modulo one prime per call, and agree with the exact
    # per-entry loop
    table, _ = h22
    chi = tuple(m.trace() for m in table.class_reps)
    q = adjacency(table, chi)
    calls = []
    real = mckay.matmul

    def counted(a, b, p):
        calls.append(1)
        return real(a, b, p)

    monkeypatch.setattr(mckay, "matmul", counted)
    for _ in range(2):
        assert eigenvector_check(table, q, chi) == (True,) * 4
    assert len(calls) == 2
    assert _termwise_eigenvector_check(table, q, chi) == (True,) * 4


def test_dual_transpose_on_an_asymmetric_quiver():
    an = pipeline.Analysis(parse_spec("Hmn:2,4"), 20000)
    q = an.quiver
    assert q.matrix != tuple(zip(*q.matrix))  # genuinely directed
    assert an.dual_transpose


def _tamperings(q: Quiver):
    """The quiver, its transpose, and +-1 on three single entries."""
    r = q.count
    yield q.matrix
    yield tuple(zip(*q.matrix))
    for i, j in ((0, 1), (1, 0), (r - 1, r - 1)):
        for delta in (1, -1):
            rows = [list(row) for row in q.matrix]
            rows[i][j] += delta
            yield tuple(tuple(row) for row in rows)


def _termwise_eigenvector_check(table, quiver: Quiver, chi) -> tuple[bool, ...]:
    """The exact per-entry loop that the one-prime `eigenvector_check` is
    held to: one exact product and sum per nonzero m_ij."""
    target = lcm(table.conductor, *(v.conductor for v in chi))
    r = quiver.count
    verdicts = []
    for k in range(r):
        p_k = [table.values[i][k].promote(target) for i in range(r)]
        lam = chi[k].promote(target)
        ok = True
        for i in range(r):
            total = Cyclotomic.rational(0, target)
            for j in range(r):
                if quiver.matrix[i][j]:
                    total = total + quiver.matrix[i][j] * p_k[j]
            if total != lam * p_k[i]:
                ok = False
                break
        verdicts.append(ok)
    return tuple(verdicts)


@pytest.mark.parametrize("name", ["Hmn:2,4", "Gm3:3", "G5", "G8", "SL2:binD:3:alpha=3"])
def test_dual_transpose_matches_a_second_decomposition(name):
    table, q = _pipeline(name)
    chi = tuple(m.trace() for m in table.class_reps)
    # the reference: decompose conj(chi) * gamma_i afresh and compare with M^T
    dual = adjacency(table, tuple(v.conjugate() for v in chi)).matrix
    r = q.count
    verdicts = []
    per_class = set()
    for mat in _tamperings(q):
        tampered = Quiver(q.dims, mat, q.rep_dim)
        expected = all(dual[i][j] == mat[j][i] for i in range(r) for j in range(r))
        # the whole per-class tuple, since `cartan` prints how many classes pass
        eigen = eigenvector_check(table, tampered, chi)
        assert eigen == _termwise_eigenvector_check(table, tampered, chi)
        # the dual verdict `Analysis.dual_transpose` derives from it
        got = all(eigen)
        assert got == expected
        verdicts.append(got)
        per_class.add(eigen)
    assert verdicts[0] is True
    assert False in verdicts
    assert eigenvector_check(table, q, chi) == (True,) * r
    assert len(per_class) > 1


# ---------------------------------------------------------------------------
# the Galois action of the table, and the two certificates that read it


def _action_holds(table) -> bool:
    """X[i][pi_a k] == sigma_a X[i][k] for every class k and unit a mod e."""
    e = table.conductor
    units = [a for a in range(1, e + 1) if gcd(a, e) == 1]
    return all(
        row[walk[a % len(walk)]] == row[k].galois(a)
        for k, walk in enumerate(table.power_classes)
        for a in units
        for row in table.values
    )


def test_tables_carry_a_proven_galois_action(small_tables):
    # `adjacency` and `eigenvector_check` trust the stored action, so the
    # constructors' proofs are its only guard: every roster table, Dixon's
    # and the little-group route's, is held to it here
    g = build_group(parse_spec("Hmn:4,5"))
    tables = [t for t, _ in small_tables.values()]
    tables += [abelian_table(m, n) for m, n in ((1, 1), (3, 4), (2, 6))]
    tables.append(chartab.little_group_table(g, chartab.conjugacy_classes(g)))
    roster = [pipeline.Analysis(spec, 20000).table for spec in all_specs()]
    assert len(roster) == 73
    tables += roster
    for t in tables:
        # `mckay._trivial_row` reads row 0 of a quiver as the decomposition
        # of chi itself, so gamma_0 must be the trivial character
        assert all(v == 1 for v in t.values[0])
        assert len(t.power_classes) == t.count
        assert [len(walk) for walk in t.power_classes] == list(t.class_orders)
        for k, walk in enumerate(t.power_classes):
            assert walk[0] == 0 and walk[1 % len(walk)] == k
        assert _action_holds(t)


def test_modular_eigenvector_check_matches_the_termwise_loop(small_tables):
    seen = set()
    for t, chi in small_tables.values():
        q = adjacency(t, chi)
        conj = tuple(v.conjugate() for v in chi)
        for mat in _tamperings(q):
            for m, c in ((mat, chi), (tuple(zip(*mat)), conj)):
                tampered = Quiver(q.dims, m, q.rep_dim)
                got = eigenvector_check(t, tampered, c)
                assert got == _termwise_eigenvector_check(t, tampered, c)
                seen.add(got)
    # whole passes, whole failures, and orbits that pass beside ones that fail
    assert any(all(v) for v in seen) and any(not any(v) for v in seen)
    assert any(True in v and False in v for v in seen)


def test_chi_swapped_at_conjugate_classes_fails_modulo_one_prime(small_tables):
    # a swap inside an orbit of three or more classes breaks Galois
    # equivariance, one inside an orbit of two is sigma_-1 there; chi is
    # only compared with row 0 of M X, so both run modulo one prime
    orbit_sizes = set()
    for t, chi in small_tables.values():
        q = adjacency(t, chi)
        for orbit in chartab.galois_orbits(t):
            k1 = min(orbit)
            k2 = next((k for k in orbit if chi[k] != chi[k1]), None)
            if k2 is None:
                continue
            bad = list(chi)
            bad[k1], bad[k2] = bad[k2], bad[k1]
            got = eigenvector_check(t, q, bad)
            assert got == _termwise_eigenvector_check(t, q, bad)
            assert not got[k1] and not got[k2]
            orbit_sizes.add(len(orbit) > 2)
    assert orbit_sizes == {True, False}


def test_non_integral_chi_is_decided_modulo_one_prime(small_tables):
    # chi is never reduced mod p, so a denominator is no obstacle
    t, chi = small_tables["SL2:2T"]
    q = adjacency(t, chi)
    halved = (chi[0],) + tuple(v * Fraction(1, 2) for v in chi[1:])
    got = eigenvector_check(t, q, halved)
    assert got == _termwise_eigenvector_check(t, q, halved)
    assert got[0] and not all(got)


def test_modular_eigenvector_check_on_hand_built_quivers():
    # Z/3 with chi = mu, the trivial row, so only alpha = M X - X diag(mu)
    # decides.  First quiver: s = (4, 5, 4), alpha at class 0 is (0, 7, 0),
    # and 7 is the least prime = 1 (mod 3) above max_i s_i = 5; the s_0 d_i
    # term of the bound lifts p to 13.  Second: p = 13, and at class 1
    # alpha_2 = 1 - 3 zeta_3 has norm 13, so it lies in one prime above 13,
    # vanishing mod p at one class of the orbit {1, 2} and not at the other
    t = dixon_table(build_group(parse_spec("Hmn:3,1")))
    assert chartab.galois_orbits(t) == [{0: 0}, {1: 1, 2: 2}]
    for mat in (((-3, 0, 1), (1, 3, 1), (1, 0, -3)), ((2, -1, -1), (-2, 1, -2), (-1, -2, -2))):
        q = Quiver(t.dims, mat, 3)
        mu = mckay._trivial_row(t, mat[0])
        assert eigenvector_check(t, q, mu) == (False,) * 3
        assert _termwise_eigenvector_check(t, q, mu) == (False,) * 3


def _summed_row(table, row):
    """mu_k as the former exact sum of products, kept as the reference."""
    zero = Cyclotomic.rational(0, table.conductor)
    terms = [(m, table.values[j]) for j, m in enumerate(row) if m]
    return [sum((m * x[k] for m, x in terms), zero) for k in range(table.count)]


def test_trivial_row_is_the_exact_sum(small_tables):
    # one root_sum per class gives the sum of products on every
    # constructor's table, on quiver rows and on rows with negative and
    # zero entries; a value at another conductor raises as + does
    tables = [t for t, _ in small_tables.values()]
    tables += [abelian_table(3, 4), dixon_table(build_group(parse_spec("Hmn:3,1")))]
    tables += [pipeline.Analysis(spec, 20000).table for spec in all_specs()]
    for t in tables:
        q = adjacency(t)
        for row in (q.matrix[0], q.matrix[-1], tuple(range(-1, t.count - 1)), (0,) * t.count):
            got = mckay._trivial_row(t, row)
            want = _summed_row(t, row)
            assert [v.encode() for v in got] == [v.encode() for v in want]
    t = tables[0]
    shifted = list(t.values)
    shifted[1] = (shifted[1][0].promote(2 * t.conductor),) + shifted[1][1:]
    shifted = t._replace(values=tuple(shifted))
    for trivial_row in (mckay._trivial_row, _summed_row):
        with pytest.raises(ConductorMismatch):
            trivial_row(shifted, (0, 1) + (0,) * (t.count - 2))
        assert len(trivial_row(shifted, (1,) + (0,) * (t.count - 1))) == t.count


def test_certificates_never_apply_galois_to_chi(small_tables, monkeypatch):
    roster = [pipeline.Analysis(spec, 20000) for spec in all_specs()]
    cases = [(t, chi, adjacency(t, chi)) for t, chi in small_tables.values()]
    cases += [(an.table, an.chi, an.quiver) for an in roster]

    def refuse(self, t):
        raise AssertionError("sigma_t applied")

    monkeypatch.setattr(Cyclotomic, "galois", refuse)
    for t, chi, q in cases:
        assert adjacency(t, chi) == q
        assert all(eigenvector_check(t, q, chi))


def test_abelian_table_verdicts_match_the_exact_loop():
    for m, n in ((3, 4), (2, 6), (5, 1)):
        t = abelian_table(m, n)
        chi = tuple(rep.trace() for rep in t.class_reps)
        q = adjacency(t, chi)
        for mat in _tamperings(q):
            tampered = Quiver(q.dims, mat, q.rep_dim)
            got = eigenvector_check(t, tampered, chi)
            assert got == _termwise_eigenvector_check(t, tampered, chi)


def test_adjacency_matches_the_exact_decomposition_and_rejects_a_swapped_chi(small_tables):
    g = build_group(parse_spec("Hmn:4,5"))
    classes = chartab.conjugacy_classes(g)
    t = chartab.little_group_table(g, classes)
    diagonal = (t, chartab.natural_character(t))
    for t, chi in (*small_tables.values(), diagonal):
        assert [list(row) for row in adjacency(t, chi).matrix] == (
            chartab.decompose_product(t, chi)
        )
    # chi swapped at two classes of an orbit of three or more is not
    # Galois-equivariant, so it is no character: the integer Gram's row 0
    # does not give it back, and the exact decomposition agrees
    swapped = 0
    for t, chi in small_tables.values():
        for orbit in chartab.galois_orbits(t):
            k1 = min(orbit)
            k2 = next((k for k in orbit if chi[k] != chi[k1]), None)
            if len(orbit) < 3 or k2 is None:
                continue
            bad = list(chi)
            bad[k1], bad[k2] = bad[k2], bad[k1]
            with pytest.raises(chartab.NonIntegralMultiplicity):
                adjacency(t, bad)
            with pytest.raises(chartab.NonIntegralMultiplicity):
                chartab.decompose_product(t, bad)
            swapped += 1
    assert swapped


def test_adjacency_without_chi_needs_representatives(small_tables):
    table = small_tables["G7"][0]._replace(class_reps=None)
    with pytest.raises(ValueError, match="^table has no class representatives; pass chi$"):
        adjacency(table)


def test_verify_runs_one_eigenvector_check_per_group(small_tables, monkeypatch):
    calls = []
    real = mckay.eigenvector_check

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(mckay, "eigenvector_check", counted)
    for name, split in (("G7", False), ("Hmn:4,5", True)):
        calls.clear()
        report = pipeline.verify(parse_spec(name), 20000)
        assert report["checks"]["eigenvectorProp"] == "pass"
        an = pipeline.Analysis(parse_spec(name), 20000)
        assert (chartab.little_group_table(an.group, an.classes) is not None) == split
        assert calls == [1]
    calls.clear()
    for t, chi in small_tables.values():
        adjacency(t, chi)
    assert calls == []


def _hessenberg_calls(monkeypatch):
    calls = []
    real = mckay.integer_charpoly

    def counted(mat):
        calls.append(1)
        return real(mat)

    monkeypatch.setattr(mckay, "integer_charpoly", counted)
    return calls


_PSD_SPECS = list(all_specs(max_m=6)) + [parse_spec("Gm3:12"), parse_spec("Hmn:8,8")]


def test_orbit_product_equals_the_hessenberg_charpoly(monkeypatch):
    calls = _hessenberg_calls(monkeypatch)
    for spec in _PSD_SPECS:
        an = pipeline.Analysis(spec, 20000)
        assert an.char_poly == tuple(reversed(integer_charpoly(an.a))), spec.name
    assert calls == []


def test_psd_verdict_equals_the_hessenberg_sign_scan(monkeypatch):
    # the verdict read off the eigen certificate builds no polynomial
    calls = _hessenberg_calls(monkeypatch)
    for spec in _PSD_SPECS:
        an = pipeline.Analysis(spec, 20000)
        verdict = an.psd
        assert calls == []
        assert verdict == psd_check(an.a).is_psd, spec.name
        calls.clear()


def test_tampered_quiver_takes_the_hessenberg_path(monkeypatch):
    an = pipeline.Analysis(parse_spec("Hmn:3,3"), 20000)
    rows = [list(row) for row in an.quiver.matrix]
    rows[0][1] += 1
    an.quiver = Quiver(an.quiver.dims, tuple(map(tuple, rows)), an.quiver.rep_dim)
    calls = _hessenberg_calls(monkeypatch)
    assert not all(an.eigen)
    poly, verdict = an.char_poly, an.psd
    assert calls == [1]  # the polynomial and the verdict share one Hessenberg pass
    report = psd_check(an.a)
    assert (poly, verdict) == (report.char_poly, report.is_psd)


def test_spectrum_product_raises_when_an_orbit_is_not_galois_closed():
    # zeta_3 and zeta_3^2 are the eigenvalues of [[-1, -1], [1, 0]]: together
    # they give x^2 + x + 1, but apart neither factor x - zeta is in Z[x]
    conj = [root(1, 3), root(2, 3)]
    assert mckay.spectrum_product([conj]) == char_poly([[-1, -1], [1, 0]]) == (1, 1, 1)
    with pytest.raises(ValueError, match="not Galois-closed"):
        mckay.spectrum_product([conj[:1], conj[1:]])
    with pytest.raises(ValueError, match="not Galois-closed"):
        mckay.spectrum_product([conj[:1]])


# ---------------------------------------------------------------------------
# isomorphism search


def _relabel(q: Quiver, p) -> Quiver:
    n = q.count
    dims = [0] * n
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        dims[p[i]] = q.dims[i]
        for j in range(n):
            mat[p[i]][p[j]] = q.matrix[i][j]
    return Quiver(tuple(dims), tuple(tuple(r) for r in mat), q.rep_dim)


def _check_witness(q1: Quiver, q2: Quiver, p):
    assert sorted(p) == list(range(q1.count))
    for i in range(q1.count):
        assert q2.dims[p[i]] == q1.dims[i]
        for j in range(q1.count):
            assert q2.matrix[p[i]][p[j]] == q1.matrix[i][j]


def test_quiver_iso_identity(h22):
    _, q = h22
    assert quiver_iso(q, q) == (0, 1, 2, 3)


def test_quiver_iso_rejects_perturbation(h22):
    _, q = h22
    rows = [list(r) for r in q.matrix]
    rows[0][1] = 0
    other = Quiver(q.dims, tuple(tuple(r) for r in rows), 3)
    assert quiver_iso(q, other) is None


def test_quiver_iso_enforces_dimensions():
    mat = ((0, 1), (0, 0))
    assert quiver_iso(Quiver((1, 2), mat), Quiver((1, 2), mat)) is not None
    assert quiver_iso(Quiver((1, 2), mat), Quiver((2, 1), mat)) is None
    # equal bare digraphs whose dimension multisets differ, and a vertex
    # count that differs
    empty = ((0, 0), (0, 0))
    assert quiver_iso(Quiver((1, 1), empty), Quiver((1, 1), empty)) == (0, 1)
    assert quiver_iso(Quiver((1, 1), empty), Quiver((2, 2), empty)) is None
    assert quiver_iso(Quiver((1, 1), empty), Quiver((1,), ((0,),))) is None


def test_quiver_iso_rejects_on_colour_refinement(monkeypatch):
    # equal dimensions, but a 3-cycle has out-degrees 1,1,1 and a transitive
    # tournament 2,1,0: the colours differ, so no search is started
    def refuse(m):
        raise AssertionError("search reached")

    monkeypatch.setattr(mckay, "_distances", refuse)
    cycle = Quiver((1, 1, 1), ((0, 1, 0), (0, 0, 1), (1, 0, 0)), 1)
    tournament = Quiver((1, 1, 1), ((0, 1, 1), (0, 0, 1), (0, 0, 0)), 1)
    assert quiver_iso(cycle, tournament) is None
    assert quiver_iso(tournament, cycle) is None


@st.composite
def _quivers(draw):
    n = draw(st.integers(2, 5))
    dims = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    mat = [[draw(st.integers(0, 2)) for _ in range(n)] for _ in range(n)]
    return Quiver(tuple(dims), tuple(tuple(r) for r in mat), 3)


@given(_quivers(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_quiver_iso_finds_relabelings(q, rng):
    p = list(range(q.count))
    rng.shuffle(p)
    other = _relabel(q, p)
    w = quiver_iso(q, other)
    assert w is not None
    _check_witness(q, other, w)
    back = quiver_iso(other, q)
    assert back is not None
    _check_witness(other, q, back)


def test_quiver_iso_prunes_a_circulant_quiver():
    # the quiver of a cyclic group is a circulant, so colour refinement
    # separates no vertex and only the distance prune bounds the search
    proc = subprocess.run(
        [sys.executable, "-m", "mckay3", "verify", "--group", "SL2:cyclic:30", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["checks"]["expectedQuiverMatch"] == "pass"


# ---------------------------------------------------------------------------
# export


_EDGE = re.compile(r"^\s*r(\d+) -> r(\d+)(?: \[([^\]]*)\])?;$")


def _matrix_from_dot(text: str, n: int):
    m = [[0] * n for _ in range(n)]
    for line in text.splitlines():
        hit = _EDGE.match(line)
        if not hit:
            continue
        i, j = int(hit.group(1)), int(hit.group(2))
        attrs = hit.group(3) or ""
        label = re.search(r'label="(\d+)"', attrs)
        mult = int(label.group(1)) if label else 1
        m[i][j] += mult
        if "dir=none" in attrs:
            m[j][i] += mult
    return tuple(tuple(row) for row in m)


def test_dot_shape_for_h22(h22):
    _, q = h22
    text = export_dot(q)
    assert text.count("dir=none") == 6
    assert "r0 -> r0" not in text
    assert 'r0 [label="r0 (1)"];' in text


def test_dot_self_loop_label():
    _, q = _pipeline("Hmn:1,1")
    assert '  r0 -> r0 [label="3"];' in export_dot(q)


@pytest.mark.parametrize(
    "quiver",
    [
        Quiver((1, 1), ((0, 2), (1, 0))),
        Quiver((1, 2, 1), ((1, 1, 0), (1, 0, 1), (0, 2, 0))),
    ],
)
def test_dot_round_trip_hand_built(quiver):
    assert _matrix_from_dot(export_dot(quiver), quiver.count) == quiver.matrix


@pytest.mark.parametrize("name", ["Hmn:2,4", "SL2:2T", "G7"])
def test_dot_round_trip_computed(name):
    _, q = _pipeline(name)
    assert _matrix_from_dot(export_dot(q), q.count) == q.matrix


def test_export_dot_is_deterministic(h22):
    _, q = h22
    assert export_dot(q) == export_dot(q)


def test_export_json_reconstructs_matrix(h22):
    _, q = h22
    payload = export_json(q)
    assert payload["repDim"] == 3
    assert [n["dim"] for n in payload["nodes"]] == list(q.dims)
    m = [[0] * q.count for _ in range(q.count)]
    for e in payload["edges"]:
        m[e["from"]][e["to"]] = e["mult"]
    assert tuple(tuple(r) for r in m) == q.matrix
