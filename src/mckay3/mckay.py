"""McKay quivers and generalized Cartan matrices over exact arithmetic.

The quiver of a group with character table gamma_1..gamma_r against a chosen
representation pi has adjacency m[i][j] = <chi_pi * gamma_i, gamma_j>, the
multiplicity of gamma_j in pi tensor gamma_i, read off the integer Gram
matrix |G| M that also certifies the table (`chartab._integer_gram`) and
checked by its row 0, the decomposition of chi_pi itself.  From it we form
B = n*I - M (n the dimension of pi) and the generalized Cartan matrix
A = B + B^T, and check the structural facts exactly: the dimension vector
spans the kernel, and every table column is an eigenvector of M
(`eigenvector_check`, one pass per quiver), which on an orthogonal table
also proves that conjugating pi transposes the quiver and that A is
positive semidefinite, with a spectrum that `spectrum_product` multiplies
out (`pipeline.Analysis`).  `psd_check` decides from A alone.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

from .chartab import (
    CharacterTable, NonIntegralMultiplicity, _check_class_function, _integer_gram,
    _residue_rows, galois_orbits,
)
from .exactnum import ConductorMismatch, Cyclotomic, root_sum
from .modp import integer_charpoly, matmul, prime_one_mod


class NotSymmetric(ValueError):
    """Positive semidefiniteness is only tested for symmetric matrices."""


class Quiver(NamedTuple):
    """Weighted digraph on the irreducible characters of a group."""

    dims: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...]
    rep_dim: int = 3

    @property
    def count(self) -> int:
        return len(self.dims)


def adjacency(table: CharacterTable, chi=None) -> Quiver:
    """Quiver of the table against the class function chi.

    chi defaults to the trace of the stored class representatives, i.e. the
    natural (defining) representation.  A chi without one value per class
    raises ValueError; a chi(1) that is not a degree, or a value that is not
    an algebraic integer, raises NonIntegralMultiplicity.  M is
    `chartab._integer_gram` / |G|, read with the table's Galois action: the
    first m_ij that is not a nonnegative integer raises, as in
    `chartab.decompose_product`, and so does a row 0 that does not give chi
    back (`_trivial_row`).  Proof: a character is Galois-equivariant, so
    R = |G| M is exact and, gamma_0 being trivial, row 0 gives chi back; an
    equivariant chi that is no character has an exact m_ij that is not a
    nonnegative integer (else chi = sum_j m_0j gamma_j would be one).
    Conversely, nonnegative integers m_0j with chi = sum_j m_0j gamma_j make
    chi a character, so M is exact.
    """
    if chi is None:
        if table.class_reps is None:
            raise ValueError("table has no class representatives; pass chi")
        chi = tuple(m.trace() for m in table.class_reps)
    _check_class_function(table, chi)
    n = chi[0].try_rational()
    if n is None or n.denominator != 1 or n < 0:
        raise NonIntegralMultiplicity(f"chi(identity) = {chi[0]} is not a degree")
    for v in chi:
        if any(type(c) is not int for _, c in v.terms()):
            raise NonIntegralMultiplicity(f"chi value {v} is not an algebraic integer")
    t = lcm(table.conductor, *(v.conductor for v in chi))
    chi_t = [v.promote(t) for v in chi]
    order = table.order
    g = _integer_gram(table, chi_t, t)
    for i, row in enumerate(g):
        for j, total in enumerate(row):
            if total < 0 or total % order:
                raise NonIntegralMultiplicity(f"<chi*gamma_{i}, gamma_{j}> = {total} / {order}")
    m = tuple(tuple(v // order for v in row) for row in g)
    if [mu.promote(t) for mu in _trivial_row(table, m[0])] != chi_t:
        raise NonIntegralMultiplicity("row 0 of the quiver does not give chi back")
    return Quiver(table.dims, m, int(n))


def _trivial_row(table: CharacterTable, row) -> list[Cyclotomic]:
    """mu_k = sum_j row[j] X[j][k] over the nonzero row[j], one `root_sum` of
    integer terms (the callers reduce X by `residues` first) at the table's
    conductor; a value at another raises as `+` does.  As row 0 of every
    table is trivial, mu of M[0] is the chi that row 0 decomposes: m_0j = <chi, gamma_j>."""
    e = table.conductor
    rows = [(m, table.values[j]) for j, m in enumerate(row) if m]
    if any(v.conductor != e for _, x in rows for v in x):
        raise ConductorMismatch(f"a table value is not at conductor {e}")
    return [
        root_sum(e, [(i, m * c) for m, x in rows for i, c in x[k].terms()])
        for k in range(table.count)
    ]


def pre_cartan(quiver: Quiver) -> tuple[tuple[int, ...], ...]:
    """B = n*I - M."""
    n = quiver.rep_dim
    return tuple(
        tuple((n if i == j else 0) - quiver.matrix[i][j] for j in range(quiver.count))
        for i in range(quiver.count)
    )


def gen_cartan(b) -> tuple[tuple[int, ...], ...]:
    """Generalized Cartan matrix A = B + B^T."""
    r = len(b)
    return tuple(tuple(b[i][j] + b[j][i] for j in range(r)) for i in range(r))


def char_poly(mat) -> tuple[int, ...]:
    """Characteristic polynomial det(xI - mat), coefficients descending.

    Exact: Hessenberg form mod p, combined by CRT under a Hadamard bound
    (see `modp.integer_charpoly`).
    """
    return tuple(reversed(integer_charpoly(mat)))


def spectrum_product(orbits) -> tuple[int, ...]:
    """prod (x - lambda) over every lambda of every orbit, coefficients
    descending.  Each orbit is a list of Cyclotomic values closed under the
    Galois group, so its product lies in Z[x] and is multiplied out
    exactly; an orbit whose product does not raises ValueError."""
    poly = [1]
    for orbit in orbits:
        factor = [Cyclotomic.rational(1, orbit[0].conductor)]
        for lam in orbit:  # factor * (x - lam)
            factor = [a - lam * b for a, b in zip([0] + factor, factor + [0])]
        coeffs = [c.try_rational() for c in factor]
        if any(q is None or q.denominator != 1 for q in coeffs):
            raise ValueError(f"an orbit of {len(orbit)} values is not Galois-closed")
        product = [0] * (len(poly) + len(coeffs) - 1)
        for i, a in enumerate(poly):
            for j, q in enumerate(coeffs):
                product[i + j] += a * int(q)
        poly = product
    return tuple(reversed(poly))


class PsdReport(NamedTuple):
    is_psd: bool
    char_poly: tuple[int, ...]
    failing_index: int | None


def psd_check(mat) -> PsdReport:
    """Exact positive semidefiniteness for a symmetric integer matrix.

    A symmetric matrix has real spectrum, and det(xI - A) = sum_k (-1)^k
    e_k x^(r-k) with e_k the elementary symmetric functions of the
    eigenvalues; all eigenvalues are >= 0 exactly when every e_k >= 0.
    """
    r = len(mat)
    for i in range(r):
        for j in range(i + 1, r):
            if mat[i][j] != mat[j][i]:
                raise NotSymmetric(f"entry ({i},{j}) != ({j},{i})")
    poly = char_poly(mat)
    for k in range(1, r + 1):
        e_k = poly[k] if k % 2 == 0 else -poly[k]
        if e_k < 0:
            return PsdReport(False, poly, k)
    return PsdReport(True, poly, None)


def kernel_delta(mat, vec) -> bool:
    """Does mat * vec vanish exactly?"""
    r = len(mat)
    return all(sum(mat[i][j] * vec[j] for j in range(r)) == 0 for i in range(r))


def eigenvector_check(table: CharacterTable, quiver: Quiver, chi) -> tuple[bool, ...]:
    """Per-class test that each table column p_k = (gamma_i(C_k))_i satisfies
    M p_k = chi(C_k) p_k exactly, the same as B p_k = (n - chi(C_k)) p_k.

    chi and M need one value and one vertex per class, else ValueError.
    Every table constructor puts the trivial character at row 0, so row 0
    of M X is mu = `_trivial_row` of M[0], and class k passes when
    mu_k = chi(C_k), compared exactly at the lcm of the conductors, and
    M p_k = mu_k p_k, decided modulo one prime with the table's Galois
    action: chi is never reduced, so neither its integrality nor its
    equivariance is a premise.  Let alpha_ik = (M X)_ik - mu_k X[i][k] in Z[zeta_e], e the
    table's conductor, s_i = sum_j |m_ij| d_j, B = max_i (s_i + s_0 d_i),
    and map zeta_e -> z modulo the least prime p = 1 (mod e) above B
    (`chartab._residue_rows`).  M p_k = mu_k p_k is taken to hold when
    alpha_ic = 0 mod p for every i at every class c of k's Galois orbit.

    Proof.  m_ij is an integer and X[j][pi_a k] = sigma_a X[j][k], so
    sigma_a alpha_ik = alpha_(i, pi_a k).  The kernel of the map is a prime
    P above p; as p = 1 (mod e), p splits completely in Q(zeta_e), and the
    primes above it are the sigma_a^-1 P (Washington, Introduction to
    Cyclotomic Fields, ch. 2).  If alpha vanishes mod p across the orbit of
    k, then alpha_ik lies in every prime above p, so in their product
    p Z[zeta_e], and p^phi(e) divides N(alpha_ik).  As |X[j][c]| <= d_j,
    |mu_c| <= s_0, and each conjugate alpha_(i, pi_a k) is at most B in
    absolute value.  So |N(alpha_ik)| <= B^phi(e) < p^phi(e), hence
    alpha_ik = 0.  Conversely alpha_ik = 0 gives alpha = 0 on the whole
    orbit.  So each verdict is the exact one.
    """
    _check_class_function(table, chi)
    if quiver.count != table.count:
        raise ValueError(f"the quiver has {quiver.count} vertices, the table {table.count}")
    target = lcm(table.conductor, *(v.conductor for v in chi))
    e, dims = table.conductor, table.dims
    s = [sum(abs(m) * d for m, d in zip(row, dims)) for row in quiver.matrix]
    p = prime_one_mod(e, max(s_i + s[0] * d_i for s_i, d_i in zip(s, dims)))
    x = _residue_rows(table, e, p)
    mx = matmul(quiver.matrix, x, p)
    holds = [
        all((mx_i[k] - mx[0][k] * x_i[k]) % p == 0 for mx_i, x_i in zip(mx, x))
        for k in range(len(chi))
    ]
    mu = _trivial_row(table, quiver.matrix[0])
    verdicts = [False] * len(chi)
    for orbit in galois_orbits(table):
        ok = all(holds[k] for k in orbit)
        for k in orbit:
            verdicts[k] = ok and mu[k].promote(target) == chi[k].promote(target)
    return tuple(verdicts)


# ---------------------------------------------------------------------------
# isomorphism of labelled quivers


def quiver_iso(q1: Quiver, q2: Quiver) -> tuple[int, ...] | None:
    """A dimension-preserving digraph isomorphism q1 -> q2, or None.

    Returns a permutation p with q2.matrix[p[i]][p[j]] == q1.matrix[i][j]
    and q2.dims[p[i]] == q1.dims[i].  Deterministic: the search tries
    candidates in ascending vertex order.  An isomorphism preserves the
    directed distances, so a partial map that breaks one has no extension
    and is pruned; the first witness found is the same as without it.
    """
    n = q1.count
    if q2.count != n or sorted(q1.dims) != sorted(q2.dims):
        return None
    c1 = _refine_colors(q1)
    c2 = _refine_colors(q2)
    if sorted(c1) != sorted(c2):
        return None

    m1, m2 = q1.matrix, q2.matrix
    d1, d2 = _distances(m1), _distances(m2)
    mapping = [-1] * n
    used = [False] * n

    def compatible(i: int, j: int) -> bool:
        if c1[i] != c2[j] or m1[i][i] != m2[j][j]:
            return False
        for i2 in range(n):
            j2 = mapping[i2]
            if j2 >= 0:
                if m1[i][i2] != m2[j][j2] or m1[i2][i] != m2[j2][j]:
                    return False
                if d1[i][i2] != d2[j][j2] or d1[i2][i] != d2[j2][j]:
                    return False
        return True

    order = sorted(range(n), key=lambda i: (c1.count(c1[i]), i))

    def search(pos: int) -> bool:
        if pos == n:
            return True
        i = order[pos]
        for j in range(n):
            if not used[j] and compatible(i, j):
                mapping[i] = j
                used[j] = True
                if search(pos + 1):
                    return True
                mapping[i] = -1
                used[j] = False
        return False

    if search(0):
        return tuple(mapping)
    return None


def _distances(m) -> list[list[int]]:
    """d[i][j]: the number of arrows on a shortest path i -> j, -1 if none."""
    n = len(m)
    heads = [[b for b in range(n) if row[b]] for row in m]
    out = []
    for i in range(n):
        d = [-1] * n
        d[i] = 0
        layer = [i]
        while layer:
            nxt = []
            for a in layer:
                for b in heads[a]:
                    if d[b] < 0:
                        d[b] = d[a] + 1
                        nxt.append(b)
            layer = nxt
        out.append(d)
    return out


def _refine_colors(q: Quiver) -> list[int]:
    """Stable coloring refinement: start from dims, split by in/out profiles."""
    n = q.count
    m = q.matrix
    colors = list(q.dims)
    while True:
        sigs = []
        for i in range(n):
            out = sorted((m[i][j], colors[j]) for j in range(n) if m[i][j] and j != i)
            inn = sorted((m[j][i], colors[j]) for j in range(n) if m[j][i] and j != i)
            sigs.append((colors[i], m[i][i], tuple(out), tuple(inn)))
        canon = {s: idx for idx, s in enumerate(sorted(set(sigs)))}
        fresh = [canon[s] for s in sigs]
        if len(set(fresh)) == len(set(colors)):
            return fresh
        colors = fresh


# ---------------------------------------------------------------------------
# export


def export_dot(quiver: Quiver) -> str:
    """Graphviz source; opposite unit arrows are merged into undirected edges."""
    lines = ["digraph mckay {", "  node [shape=circle];"]
    for i, d in enumerate(quiver.dims):
        lines.append(f'  r{i} [label="r{i} ({d})"];')
    m = quiver.matrix

    def arrow(a: int, b: int, k: int, *attrs: str) -> None:
        """k arrows a -> b as one DOT edge; a count above 1 gets a label."""
        if k > 1:
            attrs += (f'label="{k}"',)
        if k:
            tail = f" [{', '.join(attrs)}]" if attrs else ""
            lines.append(f"  r{a} -> r{b}{tail};")

    for i in range(quiver.count):
        arrow(i, i, m[i][i])
        for j in range(i + 1, quiver.count):
            both = min(m[i][j], m[j][i])
            arrow(i, j, both, "dir=none")
            arrow(i, j, m[i][j] - both)
            arrow(j, i, m[j][i] - both)
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(quiver: Quiver) -> dict:
    nodes = [{"id": i, "dim": d} for i, d in enumerate(quiver.dims)]
    edges = [
        {"from": i, "to": j, "mult": quiver.matrix[i][j]}
        for i in range(quiver.count)
        for j in range(quiver.count)
        if quiver.matrix[i][j]
    ]
    return {"repDim": quiver.rep_dim, "nodes": nodes, "edges": edges}
