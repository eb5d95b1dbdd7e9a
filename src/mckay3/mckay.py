"""McKay quivers and generalized Cartan matrices over exact arithmetic.

The quiver of a group with character table gamma_1..gamma_r against a chosen
representation pi has adjacency m[i][j] = <chi_pi * gamma_i, gamma_j>, the
multiplicity of gamma_j in pi tensor gamma_i, read off the integer Gram
matrix |G| M that also certifies the table (`chartab._integer_gram`).  From
it we form B = n*I - M (n the dimension of pi) and the generalized Cartan
matrix A = B + B^T, and check the structural facts exactly: A is positive
semi-definite, the dimension vector spans the kernel, and every table
column is an eigenvector of M (`eigenvector_check`, one pass per quiver),
which on an orthogonal table also proves that conjugating pi transposes
the quiver (`pipeline.Analysis.dual_transpose`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .chartab import (
    CharacterTable, NonIntegralMultiplicity, _integer_gram, decompose_product, galois_orbits
)
from .exactnum import Cyclotomic, dot, residues
from .modp import integer_charpoly, matmul, prime_one_mod


class NotSymmetric(ValueError):
    """Positive semidefiniteness is only tested for symmetric matrices."""


@dataclass(frozen=True)
class Quiver:
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
    natural (defining) representation.  A chi(1) that is not a degree, or a
    value that is not an algebraic integer, is rejected first.  If the table
    has its Galois action and chi is equivariant (`_equivariant_orbits`),
    M = `chartab._integer_gram` / |G| exactly; if chi is no character, some
    m_ij is not a nonnegative integer (else chi = sum_j m_0j gamma_j would
    be one), and the first raises NonIntegralMultiplicity, as in
    `decompose_product`.  Other inputs take the exact `decompose_product`,
    which raises on a non-equivariant chi: every character is equivariant.
    """
    if chi is None:
        if table.class_reps is None:
            raise ValueError("table has no class representatives; pass chi")
        chi = tuple(m.trace() for m in table.class_reps)
    n = chi[0].try_rational()
    if n is None or n.denominator != 1 or n < 0:
        raise NonIntegralMultiplicity(f"chi(identity) = {chi[0]} is not a degree")
    for v in chi:
        if any(type(c) is not int for _, c in v.terms()):
            raise NonIntegralMultiplicity(f"chi value {v} is not an algebraic integer")
    t = lcm(table.conductor, *(v.conductor for v in chi))
    chi_t = [v.promote(t) for v in chi]
    if _equivariant_orbits(table, chi_t, t) is None:
        return Quiver(table.dims, tuple(map(tuple, decompose_product(table, chi))), int(n))
    order = table.order
    g = _integer_gram(table, chi_t, t)
    for i, row in enumerate(g):
        for j, total in enumerate(row):
            if total < 0 or total % order:
                raise NonIntegralMultiplicity(f"<chi*gamma_{i}, gamma_{j}> = {total} / {order}")
    return Quiver(table.dims, tuple(tuple(v // order for v in row) for row in g), int(n))


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


def char_poly(mat, eigenvalues=None) -> tuple[int, ...]:
    """Characteristic polynomial det(xI - mat), coefficients descending.

    Exact: Hessenberg form mod p, combined by CRT under a Hadamard bound
    (see `modp.integer_charpoly`).  A caller that has proved the spectrum
    of mat may pass it as `eigenvalues`: groups of Cyclotomic values that
    together are the eigenvalues with multiplicity, each group closed under
    the Galois group.  Each group's product of the x - lambda is then
    multiplied out exactly; if every one lies in Z[x], their product is the
    answer, and otherwise the Hessenberg path runs.
    """
    poly = None if eigenvalues is None else _integer_product(eigenvalues)
    if poly is None:
        poly = integer_charpoly(mat)
    return tuple(reversed(poly))


def _integer_product(groups) -> list[int] | None:
    """prod (x - lambda) over every lambda of every group, ascending, when
    each group's product lies in Z[x]; None when one does not."""
    poly = [1]
    for group in groups:
        factor = [Cyclotomic.rational(1, group[0].conductor)]
        for lam in group:  # factor * (x - lam)
            factor = [a - lam * b for a, b in zip([0] + factor, factor + [0])]
        coeffs = [c.try_rational() for c in factor]
        if any(q is None or q.denominator != 1 for q in coeffs):
            return None
        product = [0] * (len(poly) + len(coeffs) - 1)
        for i, a in enumerate(poly):
            for j, q in enumerate(coeffs):
                product[i + j] += a * int(q)
        poly = product
    return poly


@dataclass(frozen=True)
class PsdReport:
    is_psd: bool
    char_poly: tuple[int, ...]
    failing_index: int | None


def psd_check(mat, eigenvalues=None) -> PsdReport:
    """Exact positive semidefiniteness for a symmetric integer matrix.

    A symmetric matrix has real spectrum, and det(xI - A) = sum_k (-1)^k
    e_k x^(r-k) with e_k the elementary symmetric functions of the
    eigenvalues; all eigenvalues are >= 0 exactly when every e_k >= 0.
    `eigenvalues`, a proven spectrum, is passed on to `char_poly`.
    """
    r = len(mat)
    for i in range(r):
        for j in range(i + 1, r):
            if mat[i][j] != mat[j][i]:
                raise NotSymmetric(f"entry ({i},{j}) != ({j},{i})")
    poly = char_poly(mat, eigenvalues)
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
    M p_k = chi(C_k) p_k exactly.

    Since B = n*I - M, this is the same as B p_k = (n - chi(C_k)) p_k.  On a
    table with its Galois action the identity is decided modulo one prime
    (`_eigenvector_check_mod_p`).  Otherwise each row sum runs exactly,
    over the nonzero m_ij only; a row with none sums to 0.
    """
    target = lcm(table.conductor, *(v.conductor for v in chi))
    chi_p = [v.promote(target) for v in chi]
    verdicts = _eigenvector_check_mod_p(table, quiver, chi_p, target)
    if verdicts is not None:
        return verdicts
    cols = list(zip(*([v.promote(target) for v in row] for row in table.values)))
    support = [[j for j, m in enumerate(row) if m] for row in quiver.matrix]
    m = [
        [Cyclotomic.rational(row[j], target) for j in js]
        for row, js in zip(quiver.matrix, support)
    ]
    return tuple(
        all(
            (dot(m_i, [p_k[j] for j in js]) if js else 0) == lam * p_k[i]
            for i, (m_i, js) in enumerate(zip(m, support))
        )
        for p_k, lam in zip(cols, chi_p)
    )


def _equivariant_orbits(table, chi, t) -> list[list[int]] | None:
    """The Galois orbits of the classes if the one-prime certificates apply
    to chi, given at t = lcm(e, conductors of chi), else None: the table has
    its Galois action pi (`CharacterTable.power_classes`), chi has
    denominators 1, and chi(C_(pi_b k)) = sigma_b chi(C_k) for every unit
    b mod t at the first class k of each orbit.  Then it holds at each class:
    rep_(pi_a k)^b is conjugate to rep_k^(ba), so pi_b pi_a = pi_ba, and
    chi(C_(pi_b pi_a k)) = sigma_ba chi(C_k) = sigma_b chi(C_(pi_a k)).
    Every character is equivariant: chi(g^b) = sigma_b chi(g).
    """
    orbits = galois_orbits(table)
    if orbits is None or any(type(c) is not int for v in chi for _, c in v.terms()):
        return None
    units = [b for b in range(1, t + 1) if gcd(b, t) == 1]
    for k in (orbit[0] for orbit in orbits):
        walk = table.power_classes[k]
        if any(chi[walk[b % len(walk)]] != chi[k].galois(b) for b in units):
            return None
    return orbits


def _eigenvector_check_mod_p(table, quiver, chi, t) -> tuple[bool, ...] | None:
    """`eigenvector_check` modulo one prime; None off `_equivariant_orbits`.

    Test.  Let alpha_ik = sum_j m_ij X[j][k] - chi(C_k) X[i][k] in
    Z[zeta_t], and B = max_i (sum_j |m_ij| d_j + max_k ||chi(C_k)||_1 d_i)
    with ||.||_1 the l1 norm of the coefficient vector.  Take p = 1
    (mod t) above B and map zeta_t -> z (`exactnum.residues`).  A class
    passes when alpha_ik = 0 mod p for every i at every class of its orbit.

    Proof.  m_ij is an integer, X[j][pi_c k] = sigma_c X[j][k] and
    chi(C_(pi_c k)) = sigma_c chi(C_k), so sigma_c alpha_ik =
    alpha_(i, pi_c k).  The kernel of the map is a prime P above p; as
    p = 1 (mod t), p splits completely in Q(zeta_t), and the primes above
    it are the sigma_c^-1 P (Washington, Introduction to Cyclotomic
    Fields, ch. 2).  If alpha vanishes mod p across the orbit of k, then
    alpha_ik lies in every prime above p, so in their product p Z[zeta_t],
    and p^phi(t) divides N(alpha_ik).  Each conjugate alpha_(i, pi_c k) is
    at most B in absolute value, as every table value has |X[j][k']| <= d_j
    and every root of unity has modulus 1.  So |N(alpha_ik)| <= B^phi(t)
    < p^phi(t), hence alpha_ik = 0.  Conversely alpha_ik = 0 gives
    alpha = 0 on the whole orbit.  So each verdict is the exact one.
    """
    orbits = _equivariant_orbits(table, chi, t)
    if orbits is None:
        return None
    dims = table.dims
    chi_norm = max(sum(abs(c) for _, c in v.terms()) for v in chi)
    bound = max(
        sum(abs(m) * d for m, d in zip(row, dims)) + chi_norm * d_i
        for row, d_i in zip(quiver.matrix, dims)
    )
    p = prime_one_mod(t, bound)
    x = [residues(row, t, p) for row in table.values]
    lam = residues(chi, t, p)
    mx = matmul(quiver.matrix, x, p)
    holds = [
        all((s[k] - lam[k] * x_i[k]) % p == 0 for s, x_i in zip(mx, x))
        for k in range(len(chi))
    ]
    verdicts = [False] * len(chi)
    for orbit in orbits:
        ok = all(holds[k] for k in orbit)
        for k in orbit:
            verdicts[k] = ok
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
    n = quiver.count
    for i in range(n):
        if m[i][i]:
            label = f' [label="{m[i][i]}"]' if m[i][i] > 1 else ""
            lines.append(f"  r{i} -> r{i}{label};")
        for j in range(i + 1, n):
            both = min(m[i][j], m[j][i])
            if both:
                label = f', label="{both}"' if both > 1 else ""
                lines.append(f"  r{i} -> r{j} [dir=none{label}];")
            if m[i][j] > both:
                extra = m[i][j] - both
                label = f' [label="{extra}"]' if extra > 1 else ""
                lines.append(f"  r{i} -> r{j}{label};")
            if m[j][i] > both:
                extra = m[j][i] - both
                label = f' [label="{extra}"]' if extra > 1 else ""
                lines.append(f"  r{j} -> r{i}{label};")
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
