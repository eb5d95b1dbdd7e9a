"""Exact character tables of finite matrix groups.

The table is computed by the Dixon-Burnside method: work out the class
constants of the group, diagonalize the commuting family of class matrices
over a prime field F_p with p = 1 (mod exponent) and p^2 > 4|G|, read off the
modular characters, then lift each value to an exact cyclotomic integer by a
discrete Fourier transform over the value's own order.  The lifted table is
verified against the exact orthogonality relations before it is returned, so
a table that comes back is correct, not heuristically likely.

Everything downstream keys off the deterministic element order produced by
the closure walk, so classes, class constants and table rows come out in the
same order on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, lcm

from .exactnum import Cyclotomic, dot, root_sum
from .matgroup import FiniteMatrixGroup, SquareMatrix
from .modp import charpoly, eval_poly, kernel_basis, prime_one_mod, root_of_unity, rref


class OrthogonalityFailure(RuntimeError):
    """The lifted table failed an exact orthogonality identity."""


class NonIntegralMultiplicity(RuntimeError):
    """A tensor product decomposition produced a non-integer coefficient."""


@dataclass(frozen=True)
class ConjugacyClassSet:
    """Conjugacy classes of a group, ordered by (size, smallest element)."""

    members: tuple[tuple[int, ...], ...]
    reps: tuple[int, ...]
    class_of: tuple[int, ...]
    sizes: tuple[int, ...]
    orders: tuple[int, ...]
    inverse_class: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.members)


def conjugacy_classes(group: FiniteMatrixGroup) -> ConjugacyClassSet:
    n = group.order
    # x -> g^-1 x g for each generator g; its orbits are the classes
    conjugations = [
        [group.mul(y, g) for y in group.left(group.inverse(g))]
        for g in group.generator_indices
    ]
    class_id = [-1] * n
    raw: list[list[int]] = []
    for start in range(n):
        if class_id[start] >= 0:
            continue
        cid = len(raw)
        orbit = [start]
        class_id[start] = cid
        queue = [start]
        while queue:
            x = queue.pop()
            for conj in conjugations:
                y = conj[x]
                if class_id[y] < 0:
                    class_id[y] = cid
                    orbit.append(y)
                    queue.append(y)
        raw.append(sorted(orbit))

    # identity sits in class 0 after sorting by (size, least element)
    order_key = sorted(range(len(raw)), key=lambda c: (len(raw[c]), raw[c][0]))
    members = tuple(tuple(raw[c]) for c in order_key)
    relabel = {old: new for new, old in enumerate(order_key)}
    class_of = tuple(relabel[c] for c in class_id)
    reps = tuple(m[0] for m in members)
    sizes = tuple(len(m) for m in members)
    orders = tuple(group.element_order(r) for r in reps)
    inverse_class = tuple(class_of[group.inverse(r)] for r in reps)

    return ConjugacyClassSet(members, reps, class_of, sizes, orders, inverse_class)


def class_constants(
    group: FiniteMatrixGroup, classes: ConjugacyClassSet
) -> list[list[list[int]]]:
    """a[i][j][k] = number of pairs (x, y) in C_i x C_j with x*y = rep(C_k).

    Built from one row z*w (over all w) per class: for a fixed target z,
    every w in G contributes the unique pair (z*w, w^-1).
    """
    r = classes.count
    a = [[[0] * r for _ in range(r)] for _ in range(r)]
    class_of = classes.class_of
    inverse_class_of = [classes.inverse_class[c] for c in class_of]
    for k, z in enumerate(classes.reps):
        for w, zw in enumerate(group.left(z)):
            a[class_of[zw]][inverse_class_of[w]][k] += 1
    return a


@dataclass(frozen=True)
class CharacterTable:
    """Rows are irreducible characters, columns are conjugacy classes.

    Row 0 is the trivial character; the rest are sorted by (dimension,
    canonical value key).  Column 0 is the class of the identity, so
    dims[i] == values[i][0].
    """

    conductor: int
    order: int
    dims: tuple[int, ...]
    values: tuple[tuple[Cyclotomic, ...], ...]
    class_sizes: tuple[int, ...]
    class_orders: tuple[int, ...]
    inverse_class: tuple[int, ...]
    class_reps: tuple[SquareMatrix, ...] | None = None

    @property
    def count(self) -> int:
        return len(self.dims)


# ---------------------------------------------------------------------------
# Dixon-Burnside


def dixon_table(
    group: FiniteMatrixGroup, classes: ConjugacyClassSet | None = None
) -> CharacterTable:
    if classes is None:
        classes = conjugacy_classes(group)
    n = group.order
    r = classes.count
    e = lcm(*classes.orders)

    p = prime_one_mod(e, isqrt(4 * n))  # p^2 > 4|G|
    a = class_constants(group, classes)

    # split F_p^r under the commuting class matrices M_j[i][k] = a[j][i][k]
    subspaces: list[list[list[int]]] = [
        [[1 if c == i else 0 for c in range(r)] for i in range(r)]
    ]
    for j in range(1, r):
        if all(len(w) == 1 for w in subspaces):
            break
        # stored so that row-vector action v |-> v*mj realizes u |-> M_j u
        mj = [[a[j][i][k] % p for i in range(r)] for k in range(r)]
        refined: list[list[list[int]]] = []
        for w in subspaces:
            if len(w) == 1:
                refined.append(w)
                continue
            refined.extend(_split_subspace(w, mj, p))
        subspaces = refined
    if any(len(w) != 1 for w in subspaces):
        raise OrthogonalityFailure("class matrices failed to separate characters")

    # each line is spanned by the vector of algebra characters omega(c_k)
    omegas: list[list[int]] = []
    for w in subspaces:
        v = w[0]
        if v[0] % p == 0:
            raise OrthogonalityFailure("eigenvector vanishes at the identity class")
        inv0 = pow(v[0], -1, p)
        omegas.append([c * inv0 % p for c in v])

    inv_sizes = [pow(s, -1, p) for s in classes.sizes]
    rows_mod: list[tuple[int, list[int]]] = []
    for u in omegas:
        s = 0
        for k in range(r):
            s = (s + u[k] * u[classes.inverse_class[k]] * inv_sizes[k]) % p
        if s == 0:
            raise OrthogonalityFailure("degenerate norm sum for a character")
        d_sq = n * pow(s, -1, p) % p
        d = next(
            (x for x in range(1, (p + 1) // 2 + 1) if x * x % p == d_sq), None
        )
        if d is None:
            raise OrthogonalityFailure("character degree is not a square mod p")
        chi = [d * u[k] % p * inv_sizes[k] % p for k in range(r)]
        rows_mod.append((d, chi))

    # powers of each representative, as class indices, shared by all rows
    power_classes: list[list[int]] = []
    for k, g in enumerate(classes.reps):
        o = classes.orders[k]
        cur = 0
        walk = []
        for _ in range(o):
            walk.append(classes.class_of[cur])
            cur = group.mul(cur, g)
        power_classes.append(walk)

    z_e = root_of_unity(p, e)
    lifted: list[tuple[int, tuple[Cyclotomic, ...]]] = []
    for d, chi in rows_mod:
        vals: list[Cyclotomic] = []
        for k in range(r):
            o = classes.orders[k]
            z_o = pow(z_e, e // o, p)
            inv_o = pow(o, -1, p)
            terms = []
            for t in range(o):
                acc = 0
                for s in range(o):
                    acc += chi[power_classes[k][s]] * pow(z_o, (-s * t) % o, p)
                mu = acc * inv_o % p
                if mu > d:
                    raise OrthogonalityFailure(
                        "lifted Fourier coefficient out of range"
                    )
                terms.append(((e // o) * t, mu))
            vals.append(root_sum(e, terms))
        lifted.append((d, tuple(vals)))

    one = Cyclotomic.rational(1, e)
    trivial = [row for row in lifted if all(v == one for v in row[1])]
    if len(trivial) != 1:
        raise OrthogonalityFailure("trivial character missing or duplicated")
    rest = [row for row in lifted if row is not trivial[0]]
    rest.sort(key=lambda row: (row[0], tuple(v.encode() for v in row[1])))
    ordered = trivial + rest

    table = CharacterTable(
        conductor=e,
        order=n,
        dims=tuple(d for d, _ in ordered),
        values=tuple(vals for _, vals in ordered),
        class_sizes=classes.sizes,
        class_orders=classes.orders,
        inverse_class=classes.inverse_class,
        class_reps=tuple(group.elements[g] for g in classes.reps),
    )
    if not verify_orthogonality(table):
        raise OrthogonalityFailure("exact orthogonality check failed after lifting")
    return table


def _split_subspace(
    w: list[list[int]], mj: list[list[int]], p: int
) -> list[list[list[int]]]:
    """Split an invariant subspace into eigenspaces of one class matrix."""
    basis, pivots = rref(w, p)
    d = len(basis)
    r = len(basis[0])
    images = []
    for b in basis:
        img = [0] * r
        for i, c in enumerate(b):
            if c:
                row = mj[i]
                for k in range(r):
                    img[k] = (img[k] + c * row[k]) % p
        images.append(img)
    # coordinates of each image against the RREF basis
    coords_of = [[img[c] for c in pivots] for img in images]
    for b_idx in range(d):  # invariance sanity: image must lie in the span
        recon = [0] * r
        for c_idx, c in enumerate(coords_of[b_idx]):
            if c:
                for k in range(r):
                    recon[k] = (recon[k] + c * basis[c_idx][k]) % p
        if recon != images[b_idx]:
            raise OrthogonalityFailure("class matrix does not preserve subspace")
    # column convention: restricted[u][t] = coord u of the image of basis t
    restricted = [[coords_of[t][u] for t in range(d)] for u in range(d)]
    poly = charpoly(restricted, p)
    roots = [lam for lam in range(p) if eval_poly(poly, lam, p) == 0]
    if len(roots) <= 1:
        return [basis]
    grouped: list[list[list[int]]] = []
    for lam in roots:  # ascending, so the refinement order is reproducible
        shifted = [
            [(restricted[i][k] - (lam if i == k else 0)) % p for k in range(d)]
            for i in range(d)
        ]
        vecs = []
        for coords in kernel_basis(shifted, p):
            vec = [0] * r
            for c_idx, c in enumerate(coords):
                if c:
                    for k in range(r):
                        vec[k] = (vec[k] + c * basis[c_idx][k]) % p
            vecs.append(vec)
        chunk, _ = rref(vecs, p)
        grouped.append(chunk)
    return grouped


# ---------------------------------------------------------------------------
# class functions


def verify_orthogonality(table: CharacterTable) -> bool:
    """Exact orthogonality of the whole table, certified from its rows.

    Let X be the table, n = |G|, Y[i][k] = X[i][inv k] and D = diag(|C_k|).
    The loop checks (X.D.Y^T)[i][j] = n*delta_ij for i <= j.  When inv is an
    involution with |C_(inv k)| = |C_k|, substituting k -> inv k shows that
    X.D.Y^T is symmetric, so all of it equals n*I.  X is square, so then
    D.Y^T = n*X^-1, hence Y^T.X = n*D^-1, and its transpose X^T.Y = n*D^-1 is
    the column relation sum_i X[i][k]*X[i][inv l] = delta_kl*n/|C_k|.  A
    column check compares that sum with the integer n // |C_k|, and the two
    agree exactly when |C_k| divides n, which is checked too.  Conversely,
    rows (i <= j) and columns (k <= l) that both pass, with n >= 1, force inv
    to be such an involution and every |C_k| to divide n, so this verdict is
    the one that checking both would give.
    """
    r = table.count
    n = table.order
    sizes = table.class_sizes
    inv = table.inverse_class
    if any(inv[inv[k]] != k or sizes[inv[k]] != sizes[k] for k in range(r)):
        return False
    weighted = [[sizes[k] * row[k] for k in range(r)] for row in table.values]
    flipped = [[row[inv[k]] for k in range(r)] for row in table.values]
    for i in range(r):
        for j in range(i, r):
            if dot(weighted[i], flipped[j]) != (n if i == j else 0):
                return False
    if any(n % s for s in sizes) or sum(d * d for d in table.dims) != n:
        return False
    return all(table.values[i][0] == table.dims[i] for i in range(r))


def natural_character(
    group: FiniteMatrixGroup, classes: ConjugacyClassSet
) -> tuple[Cyclotomic, ...]:
    """Traces of the matrix representatives: the defining character."""
    return tuple(group.elements[g].trace() for g in classes.reps)


def decompose_product(
    table: CharacterTable, chi
) -> list[list[int]]:
    """Multiplicity matrix m[i][j] = <chi * gamma_i, gamma_j>.

    chi is a class function given on the table's classes; it may live at a
    different conductor, in which case everything is promoted to the lcm.
    """
    target = lcm(table.conductor, *(v.conductor for v in chi))
    rows = [
        tuple(v.promote(target) for v in row) for row in table.values
    ]
    chi_p = tuple(v.promote(target) for v in chi)
    r = table.count
    sizes = table.class_sizes
    inv = table.inverse_class
    flipped = [[row[inv[k]] for k in range(r)] for row in rows]
    out: list[list[int]] = []
    for i in range(r):
        weighted = [sizes[k] * (chi_p[k] * rows[i][k]) for k in range(r)]
        line = []
        for j in range(r):
            total = dot(weighted, flipped[j])
            q = total.try_rational()
            if q is None or q.denominator != 1 or q < 0 or q.numerator % table.order:
                raise NonIntegralMultiplicity(
                    f"<chi*gamma_{i}, gamma_{j}> = {total} / {table.order}"
                )
            line.append(q.numerator // table.order)
        out.append(line)
    return out


def tables_match_by_reps(a: CharacterTable, b: CharacterTable) -> bool:
    """Do two tables with class representatives agree up to row order?

    Columns are aligned through the representative matrices (exact key
    equality, so both tables must live at the same conductor), then the
    rows are compared as multisets.
    """
    if a.conductor != b.conductor or a.order != b.order or a.count != b.count:
        return False
    if a.class_reps is None or b.class_reps is None:
        raise ValueError("both tables need class representatives")
    pos = {rep.key(): k for k, rep in enumerate(a.class_reps)}
    perm = []
    for rep in b.class_reps:
        k = pos.get(rep.key())
        if k is None:
            return False
        perm.append(k)
    for k in range(b.count):
        if a.class_sizes[perm[k]] != b.class_sizes[k]:
            return False
        if a.class_orders[perm[k]] != b.class_orders[k]:
            return False
    rows_a = sorted(
        tuple(row[perm[k]].encode() for k in range(b.count)) for row in a.values
    )
    rows_b = sorted(tuple(v.encode() for v in row) for row in b.values)
    return rows_a == rows_b
