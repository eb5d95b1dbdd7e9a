"""Adjacency, Cartan matrices, exact PSD, quiver isomorphism, export."""

import json
import re
import subprocess
import sys
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay3 import mckay, pipeline
from mckay3.catalog import build_group, parse_spec
from mckay3.chartab import dixon_table
from mckay3.exactnum import Cyclotomic
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
    # one exact dot per (class, row), and the verdict does not change
    table, _ = h22
    chi = tuple(m.trace() for m in table.class_reps)
    q = adjacency(table, chi)
    calls = []
    real = mckay.dot

    def counted(xs, ys):
        calls.append(1)
        return real(xs, ys)

    monkeypatch.setattr(mckay, "dot", counted)
    for _ in range(2):
        assert eigenvector_check(table, q, chi) == (True,) * 4
    assert len(calls) == 2 * 16


def test_dual_transpose_on_an_asymmetric_quiver():
    an = pipeline.analyze(parse_spec("Hmn:2,4"), 20000)
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
    """The per-entry loop `eigenvector_check` replaced by `dot`: one exact
    product and sum per nonzero m_ij."""
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
