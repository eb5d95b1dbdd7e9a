"""Named families of finite subgroups of SL(3, C) with explicit generators.

Five constructions are available through a small spec language:

  Hmn:m,n        diagonal subgroup diag(z_m^i, z_n^j, z_m^-i z_n^-j)
  Gm3:m          H(m,m) extended by the cyclic coordinate shift
  Gm6:m          H(m,m) extended by the shift and a twisted transposition
  SL2:...        image of a finite subgroup of SL(2, C) under 1 + std,
                 optionally twisted by a scalar alpha (a root of unity)
  G5 .. G12      the eight exceptional groups, by explicit matrices

Besides generators and groups, the module knows what to expect: orders,
irreducible dimension multisets, and for most families an independently
constructed adjacency matrix of the natural-representation quiver (torus
translation rule for Hmn, induced characters of the wreath-like products
for Gm3/Gm6, affine ADE diagrams for the SL(2) embeddings, and recorded
fusion data for G5/G6/G8/G9/G10).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .chartab import CharacterTable, with_galois_action
from .exactnum import Cyclotomic, common_conductor, dot, root, root_sum, sqrt_constant
from .matgroup import (
    FiniteMatrixGroup,
    OrderBoundExceeded,
    SquareMatrix,
    closure,
    to_common_conductor,
)
from .mckay import Quiver


class SpecError(ValueError):
    """The group spec string could not be parsed."""


class CatalogError(RuntimeError):
    """A constructed group failed a sanity check (order or determinant)."""


_EXCEPTIONAL = ("G5", "G6", "G7", "G8", "G9", "G10", "G11", "G12")
_SL2_SUBTYPES = ("cyclic", "binD", "2T", "2O", "2I")


@dataclass(frozen=True)
class GroupSpec:
    kind: str
    m: int = 0
    n: int = 0
    subtype: str = ""
    k: int = 0
    alpha: int = 1

    @property
    def name(self) -> str:
        if self.kind == "Hmn":
            return f"Hmn:{self.m},{self.n}"
        if self.kind == "Gm3":
            return f"Gm3:{self.m}"
        if self.kind == "Gm6":
            return f"Gm6:{self.m}"
        if self.kind == "SL2":
            parts = ["SL2", self.subtype]
            if self.subtype in ("cyclic", "binD"):
                parts.append(str(self.k))
            if self.alpha != 1:
                parts.append(f"alpha={self.alpha}")
            return ":".join(parts)
        return self.kind


def parse_spec(text: str) -> GroupSpec:
    """Parse a spec string; raises SpecError on malformed input."""
    text = text.strip()
    if text in _EXCEPTIONAL:
        return GroupSpec(kind=text)
    head, _, rest = text.partition(":")
    if head == "Hmn":
        m = re.fullmatch(r"([0-9]+),([0-9]+)", rest)
        if not m:
            raise SpecError(f"expected Hmn:m,n, got {text!r}")
        mm, nn = int(m.group(1)), int(m.group(2))
        if mm < 1 or nn < 1:
            raise SpecError("Hmn parameters must be >= 1")
        return GroupSpec(kind="Hmn", m=mm, n=nn)
    if head in ("Gm3", "Gm6"):
        if not re.fullmatch(r"[0-9]+", rest):
            raise SpecError(f"expected {head}:m, got {text!r}")
        mm = int(rest)
        if mm < 1:
            raise SpecError(f"{head} parameter must be >= 1")
        return GroupSpec(kind=head, m=mm)
    if head == "SL2":
        parts = rest.split(":") if rest else []
        if not parts or parts[0] not in _SL2_SUBTYPES:
            raise SpecError(
                f"expected SL2:<{'|'.join(_SL2_SUBTYPES)}>..., got {text!r}"
            )
        subtype = parts[0]
        pos = 1
        k = 0
        if subtype in ("cyclic", "binD"):
            if pos >= len(parts) or not re.fullmatch(r"[0-9]+", parts[pos]):
                raise SpecError(f"{subtype} needs a parameter: SL2:{subtype}:k")
            k = int(parts[pos])
            if k < 1:
                raise SpecError(f"{subtype} parameter must be >= 1")
            pos += 1
        alpha = 1
        if pos < len(parts):
            m = re.fullmatch(r"alpha=([0-9]+)", parts[pos])
            if not m:
                raise SpecError(f"unexpected suffix {parts[pos]!r} in {text!r}")
            alpha = int(m.group(1))
            if alpha < 1:
                raise SpecError("alpha order must be >= 1")
            pos += 1
        if pos != len(parts):
            raise SpecError(f"trailing junk in {text!r}")
        return GroupSpec(kind="SL2", subtype=subtype, k=k, alpha=alpha)
    raise SpecError(f"unknown group kind {text!r}")


def all_specs(max_m: int = 6) -> tuple[GroupSpec, ...]:
    """The standard roster walked by `verify --all`.

    max_m bounds the parameters of the three parametric families; the SL2
    subtypes and the exceptional groups are a fixed list.
    """
    out = []
    for m in range(1, max_m + 1):
        for n in range(1, max_m + 1):
            out.append(GroupSpec(kind="Hmn", m=m, n=n))
    for m in range(1, max_m + 1):
        out.append(GroupSpec(kind="Gm3", m=m))
    for m in range(1, max_m + 1):
        out.append(GroupSpec(kind="Gm6", m=m))
    for k in range(1, 9):
        out.append(GroupSpec(kind="SL2", subtype="cyclic", k=k))
    for k in range(1, 7):
        out.append(GroupSpec(kind="SL2", subtype="binD", k=k))
    for st in ("2T", "2O", "2I"):
        out.append(GroupSpec(kind="SL2", subtype=st))
    for name in _EXCEPTIONAL:
        out.append(GroupSpec(kind=name))
    return tuple(out)


# ---------------------------------------------------------------------------
# generators


def _mat(rows, scale=None) -> SquareMatrix:
    if scale is not None:
        rows = [[scale * e for e in row] for row in rows]
    return SquareMatrix(rows)


def _diag(a, b, c) -> SquareMatrix:
    return SquareMatrix([[a, 0, 0], [0, b, 0], [0, 0, c]])


def _shift() -> SquareMatrix:
    return SquareMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def _scalar_w() -> SquareMatrix:
    z3 = root(1, 3)
    return _diag(z3, z3, z3)


def _gens_hmn(m: int, n: int) -> list[SquareMatrix]:
    zm, zn = root(1, m), root(1, n)
    return [_diag(zm, 1, zm.conjugate()), _diag(1, zn, zn.conjugate())]


def _gens_sl2(subtype: str, k: int, alpha: int) -> list[SquareMatrix]:
    def embed(two_by_two) -> SquareMatrix:
        (p, q), (r, s) = two_by_two
        entries = [
            v if isinstance(v, Cyclotomic) else Cyclotomic.rational(v)
            for v in (p, q, r, s)
        ]
        av, p2, q2, r2, s2 = common_conductor(root(1, alpha), *entries)
        ai2 = av.conjugate() * av.conjugate()
        return SquareMatrix(
            [[ai2, 0, 0], [0, av * p2, av * q2], [0, av * r2, av * s2]]
        )

    if subtype == "cyclic":
        z = root(1, k)
        return [embed([[z, 0], [0, z.conjugate()]])]
    if subtype == "binD":
        z = root(1, 2 * k)
        i4 = root(1, 4)
        return [embed([[z, 0], [0, z.conjugate()]]), embed([[0, i4], [i4, 0]])]
    if subtype in ("2T", "2O"):
        z8 = root(1, 8)
        b2 = [[0, z8 ** 2], [z8 ** 2, 0]]
        half = sqrt_constant(2).inv()
        c2 = [[half * z8 ** 7, half * z8 ** 7], [half * z8 ** 5, half * z8]]
        if subtype == "2T":
            return [embed([[z8 ** 2, 0], [0, z8 ** 6]]), embed(b2), embed(c2)]
        return [embed([[z8, 0], [0, z8 ** 7]]), embed(b2), embed(c2)]
    if subtype == "2I":
        z5 = root(1, 5)
        mu = z5 + z5 ** 4
        pref = (z5 ** 2 - z5 ** 3).inv()
        c2 = [[pref * mu, pref], [pref, pref * (-1) * mu]]
        return [
            embed([[-(z5 ** 3), 0], [0, -(z5 ** 2)]]),
            embed([[0, 1], [-1, 0]]),
            embed(c2),
        ]
    raise SpecError(f"unknown SL2 subtype {subtype!r}")


def _gens_exceptional(name: str) -> list[SquareMatrix]:
    t = _shift()
    z3 = root(1, 3)
    if name in ("G5", "G6", "G11"):
        s = _diag(1, z3, z3 ** 2)
        pref = sqrt_constant(-3).inv()
        v = _mat(
            [[1, 1, 1], [1, z3, z3 ** 2], [1, z3 ** 2, z3]], scale=pref
        )
        if name == "G5":
            return [t, s, v]
        if name == "G6":
            kmat = _mat(
                [[1, 1, z3 ** 2], [1, z3, z3], [z3, 1, z3]], scale=pref
            )
            return [t, s, v, kmat]
        eps = root(2, 9)
        return [t, s, v, _diag(eps, eps, eps * root(3, 9))]
    if name in ("G7", "G9", "G12"):
        z5 = root(1, 5)
        mu_p = z5 + z5 ** 4
        mu_m = z5 ** 2 + z5 ** 3
        e2 = _diag(1, -1, -1)
        e3 = _mat(
            [[-1, mu_m, mu_p], [mu_m, mu_p, -1], [mu_p, -1, mu_m]],
            scale=Fraction(1, 2),
        )
        if name == "G7":
            return [t, e2, e3]
        if name == "G9":
            return [t, e2, e3, _scalar_w()]
        w6 = root(1, 6)
        e4 = SquareMatrix([[1, 0, 0], [0, 0, -w6], [0, -(w6 ** 2), 0]])
        return [t, e2, e3, e4]
    if name in ("G8", "G10"):
        b = root(1, 7)
        x7 = _diag(b, b ** 2, b ** 4)
        pref = sqrt_constant(-7).inv() * (-1)
        p, q, r = b ** 4 - b ** 3, b ** 2 - b ** 5, b - b ** 6
        u = _mat([[p, q, r], [q, r, p], [r, p, q]], scale=pref)
        if name == "G8":
            return [t, x7, u]
        return [t, x7, u, _scalar_w()]
    raise SpecError(f"unknown exceptional group {name!r}")


def generators(spec: GroupSpec) -> list[SquareMatrix]:
    """Generators of the group, promoted to a shared conductor."""
    if spec.kind == "Hmn":
        gens = _gens_hmn(spec.m, spec.n)
    elif spec.kind == "Gm3":
        gens = _gens_hmn(spec.m, spec.m) + [_shift()]
    elif spec.kind == "Gm6":
        r = SquareMatrix([[-1, 0, 0], [0, 0, -1], [0, -1, 0]])
        gens = _gens_hmn(spec.m, spec.m) + [_shift(), r]
    elif spec.kind == "SL2":
        gens = _gens_sl2(spec.subtype, spec.k, spec.alpha)
    elif spec.kind in _EXCEPTIONAL:
        gens = _gens_exceptional(spec.kind)
    else:
        raise SpecError(f"unknown group kind {spec.kind!r}")
    return list(to_common_conductor(gens))


_EXCEPTIONAL_ORDERS = {
    "G5": 108,
    "G6": 216,
    "G7": 60,
    "G8": 168,
    "G9": 180,
    "G10": 504,
    "G11": 648,
    "G12": 1080,
}


def expected_order(spec: GroupSpec) -> int | None:
    """Known group order, or None when the spec leaves it open (alpha != 1)."""
    if spec.kind == "Hmn":
        return spec.m * spec.n
    if spec.kind == "Gm3":
        return 3 * spec.m * spec.m
    if spec.kind == "Gm6":
        return 6 * spec.m * spec.m
    if spec.kind == "SL2":
        if spec.alpha != 1:
            return None
        return {
            "cyclic": spec.k,
            "binD": 4 * spec.k,
            "2T": 24,
            "2O": 48,
            "2I": 120,
        }[spec.subtype]
    return _EXCEPTIONAL_ORDERS[spec.kind]


def build_group(spec: GroupSpec, max_order: int = 20000) -> FiniteMatrixGroup:
    """Close the generators and cross-check determinants and the order.

    A spec whose order the catalog knows is held to max_order before any
    generator is built, since a generator at a large conductor can itself
    cost memory before the closure counts a single element.  So is a lower
    bound on a twisted order: each SL2 generator is block-diagonal with
    (1,1) entry conj(a)^2, a a primitive alpha-th root of unity, so
    g -> g[0][0] maps the group onto a cyclic group of order
    alpha / gcd(alpha, 2).
    """
    want = expected_order(spec)
    if (want or spec.alpha // gcd(spec.alpha, 2)) > max_order:
        raise OrderBoundExceeded(
            f"more than {max_order} elements; raise max_order if intended"
        )
    gens = generators(spec)
    for g in gens:
        if g.det() != 1:
            raise CatalogError(f"{spec.name}: generator determinant is not 1")
    group = closure(gens, max_order=max_order)
    if want is not None and group.order != want:
        raise CatalogError(
            f"{spec.name}: closure has {group.order} elements, expected {want}"
        )
    return group


# ---------------------------------------------------------------------------
# expected invariants


@dataclass(frozen=True)
class Profile:
    """What the character table of a catalog group must look like."""

    order: int
    class_count: int
    dims: tuple[int, ...]
    degenerate: bool = False
    notes: tuple[str, ...] = ()


def _profile_from_dims(dims, degenerate=False, notes=()) -> Profile:
    dims = tuple(sorted(dims))
    return Profile(
        order=sum(d * d for d in dims),
        class_count=len(dims),
        dims=dims,
        degenerate=degenerate,
        notes=tuple(notes),
    )


_EXCEPTIONAL_DIMS = {
    "G5": (1,) * 4 + (3,) * 8 + (4,) * 2,
    "G6": (1,) * 4 + (2,) + (3,) * 8 + (6,) * 2 + (8,),
    "G7": (1, 3, 3, 4, 5),
    "G8": (1, 3, 3, 6, 7, 8),
    "G9": (1,) * 3 + (3,) * 6 + (4,) * 3 + (5,) * 3,
    "G10": (1,) * 3 + (3,) * 6 + (6,) * 3 + (7,) * 3 + (8,) * 3,
    "G11": (1,) * 3 + (2,) * 3 + (3,) * 7 + (6,) * 6 + (8,) * 3 + (9,) * 2,
    "G12": (1,) + (3,) * 4 + (5,) * 2 + (6,) * 2 + (8,) * 2 + (9,) * 3
    + (10,) + (15,) * 2,
}


def expected_profile(spec: GroupSpec) -> Profile | None:
    """Expected order, class count, and dimension multiset; None if unknown."""
    if spec.kind == "Hmn":
        notes = ("trivial group",) if spec.m == spec.n == 1 else ()
        return _profile_from_dims(
            (1,) * (spec.m * spec.n),
            degenerate=spec.m == spec.n == 1,
            notes=notes,
        )
    if spec.kind == "Gm3":
        m = spec.m
        if m % 3 == 0:
            dims = (1,) * 9 + (3,) * ((m * m - 3) // 3)
        else:
            dims = (1,) * 3 + (3,) * ((m * m - 1) // 3)
        deg = m == 1
        return _profile_from_dims(
            dims, degenerate=deg, notes=("cyclic of order 3",) if deg else ()
        )
    if spec.kind == "Gm6":
        m = spec.m
        if m % 3 == 0:
            dims = (1,) * 2 + (2,) * 4 + (3,) * (2 * (m - 1)) + (6,) * (
                (m * m - 3 * m) // 6
            )
        else:
            dims = (1,) * 2 + (2,) + (3,) * (2 * (m - 1)) + (6,) * (
                (m * m - 3 * m + 2) // 6
            )
        notes = ()
        if m == 1:
            notes = ("isomorphic to the symmetric group S3",)
        elif m == 2:
            notes = ("isomorphic to the symmetric group S4",)
        return _profile_from_dims(dims, degenerate=m <= 2, notes=notes)
    if spec.kind == "SL2":
        if spec.alpha != 1:
            return None
        if spec.subtype == "cyclic":
            deg = spec.k == 1
            return _profile_from_dims(
                (1,) * spec.k,
                degenerate=deg,
                notes=("trivial group",) if deg else (),
            )
        if spec.subtype == "binD":
            if spec.k == 1:
                return _profile_from_dims(
                    (1,) * 4, degenerate=True, notes=("cyclic of order 4",)
                )
            return _profile_from_dims((1,) * 4 + (2,) * (spec.k - 1))
        dims = {
            "2T": (1, 1, 1, 2, 2, 2, 3),
            "2O": (1, 1, 2, 2, 2, 3, 3, 4),
            "2I": (1, 2, 2, 3, 3, 4, 4, 5, 6),
        }[spec.subtype]
        return _profile_from_dims(dims)
    return _profile_from_dims(_EXCEPTIONAL_DIMS[spec.kind])


# ---------------------------------------------------------------------------
# expected quivers


def _quiver_from_edges(dims, edges, add_loops=False) -> Quiver:
    """Multiplicity matrix from a fusion edge list; optionally add the
    diagonal (for three-dimensional reps of shape 1 + std)."""
    r = len(dims)
    m = [[0] * r for _ in range(r)]
    for i, j in edges:
        m[i][j] += 1
    if add_loops:
        for i in range(r):
            m[i][i] += 1
    return Quiver(tuple(dims), tuple(tuple(row) for row in m), 3)


def _torus_quiver(m: int, n: int) -> Quiver:
    nodes = [(i, j) for i in range(m) for j in range(n)]
    idx = {v: t for t, v in enumerate(nodes)}
    r = len(nodes)
    mat = [[0] * r for _ in range(r)]
    for (i, j) in nodes:
        for di, dj in ((1, 0), (0, 1), (-1, -1)):
            mat[idx[(i, j)]][idx[((i + di) % m, (j + dj) % n)]] += 1
    return Quiver((1,) * r, tuple(tuple(row) for row in mat), 3)


def _sl2_quiver(subtype: str, k: int) -> Quiver:
    if subtype == "cyclic" or (subtype == "binD" and k == 1):
        r = k if subtype == "cyclic" else 4
        mat = [[0] * r for _ in range(r)]
        for i in range(r):
            mat[i][(i + 1) % r] += 1
            mat[i][(i - 1) % r] += 1
            mat[i][i] += 1
        return Quiver((1,) * r, tuple(tuple(row) for row in mat), 3)
    if subtype == "binD":
        dims = (1, 1) + (2,) * (k - 1) + (1, 1)
        edges = [(0, 2), (1, 2)]
        edges += [(i, i + 1) for i in range(2, k)]
        edges += [(k, k + 1), (k, k + 2)]
    elif subtype == "2T":
        dims = (1, 2, 3, 2, 1, 2, 1)
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)]
    elif subtype == "2O":
        dims = (1, 2, 3, 4, 3, 2, 1, 2)
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)]
    else:  # 2I
        dims = (1, 2, 3, 4, 5, 6, 4, 2, 3)
        edges = [(i, i + 1) for i in range(7)] + [(5, 8)]
    both = [(i, j) for (i, j) in edges] + [(j, i) for (i, j) in edges]
    return _quiver_from_edges(dims, both, add_loops=True)


# Fusion of the natural representation recorded as target lists, 1-indexed.
_G5_DIMS = (1, 1, 1, 1, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4)
_G5_FUSION = {
    1: (5,),
    2: (7,),
    3: (9,),
    4: (11,),
    5: (6, 8, 10),
    6: (1, 13, 14),
    7: (6, 8, 12),
    8: (2, 13, 14),
    9: (6, 10, 12),
    10: (3, 13, 14),
    11: (8, 10, 12),
    12: (4, 13, 14),
    13: (5, 7, 9, 11),
    14: (5, 7, 9, 11),
}

_G6_DIMS = (1, 1, 1, 1, 3, 3, 3, 3, 3, 3, 3, 3, 2, 6, 6, 8)
_G6_FUSION = {
    1: (5,),
    2: (6,),
    3: (7,),
    4: (8,),
    5: (12, 14),
    6: (11, 14),
    7: (10, 14),
    8: (9, 14),
    9: (4, 16),
    10: (3, 16),
    11: (2, 16),
    12: (1, 16),
    13: (15,),
    14: (13, 16, 16),
    15: (9, 10, 11, 12, 14),
    16: (5, 6, 7, 8, 15, 15),
}

_G8_DIMS = (1, 6, 7, 8, 3, 3)
_G8_MATRIX = (
    (0, 0, 0, 0, 1, 0),
    (0, 0, 1, 1, 0, 1),
    (0, 1, 1, 1, 0, 0),
    (0, 1, 1, 1, 1, 0),
    (0, 1, 0, 0, 0, 1),
    (1, 0, 0, 1, 0, 0),
)

# quiver block of the order-60 icosahedral subgroup, used for its central
# extension by scalars: the full matrix is shift (x) block
_G9_BLOCK_DIMS = (1, 3, 3, 4, 5)
_G9_BLOCK = (
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 1),
    (1, 0, 1, 0, 1),
    (0, 1, 0, 1, 1),
    (0, 1, 1, 1, 1),
)


def _fusion_quiver(dims, fusion) -> Quiver:
    edges = [
        (src - 1, dst - 1) for src, targets in fusion.items() for dst in targets
    ]
    return _quiver_from_edges(dims, edges)


def _block_shift_quiver(block_dims, block) -> Quiver:
    """Quiver of G x Z3 with the natural rep twisted by the scalar character:
    three copies of the block pattern, each feeding the next."""
    s = len(block_dims)
    r = 3 * s
    mat = [[0] * r for _ in range(r)]
    for b in range(3):
        for i in range(s):
            for j in range(s):
                mat[b * s + i][((b + 1) % 3) * s + j] = block[i][j]
    return Quiver(tuple(block_dims) * 3, tuple(tuple(row) for row in mat), 3)


# -- induced characters for the monomial families ---------------------------

_PERMS3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2))


def _inv_perm(p):
    out = [0, 0, 0]
    for i in range(3):
        out[p[i]] = i
    return tuple(out)


def _comp(p, q):
    return tuple(p[q[i]] for i in range(3))


def _parity(p) -> int:
    inv = sum(
        1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j]
    )
    return -1 if inv % 2 else 1


def _k_irreps(kc, conductor):
    """Irreducible characters of a subgroup of S3 as dicts perm -> value,
    each value a pair (c, k) standing for c * zeta^k at the conductor."""
    e = (0, 1, 2)
    one, minus = (1, 0), (-1, 0)
    if len(kc) == 1:
        return [{e: one}]
    if len(kc) == 2:
        t = next(p for p in kc if p != e)
        return [{e: one, t: one}, {e: one, t: minus}]
    if len(kc) == 3:
        g, g2 = (1, 2, 0), (2, 0, 1)
        w, w2 = (1, conductor // 3), (1, 2 * conductor // 3)
        return [
            {e: one, g: one, g2: one},
            {e: one, g: w, g2: w2},
            {e: one, g: w2, g2: w},
        ]
    triv = {p: one for p in kc}
    sgn = {p: (one if _parity(p) > 0 else minus) for p in kc}
    std = {
        p: ((2, 0) if p == e else ((0, 0) if _parity(p) < 0 else minus)) for p in kc
    }
    return [triv, sgn, std]


@lru_cache(maxsize=None)
def _little_group_quiver(m: int, full_s3: bool) -> Quiver:
    """Quiver of (Z_m^3 with zero coordinate sum) semidirect K, K in {A3, S3},
    against the natural monomial representation, computed from scratch with
    induced characters.

    Every irreducible arises from a K-orbit of characters of the diagonal
    part and an irreducible of the orbit stabilizer; the adjacency entries
    are plain inner products, so this is independent of the class-algebra
    route used for computed tables.
    """
    kgrp = _PERMS3 if full_s3 else _PERMS3[:3]
    cond = lcm(m, 3)
    step = cond // m

    def norm(c3):
        return ((c3[0] - c3[2]) % m, (c3[1] - c3[2]) % m)

    def act(p, c):
        pinv = _inv_perm(p)
        c3 = (c[0], c[1], 0)
        return norm(tuple(c3[pinv[i]] for i in range(3)))

    hpart = [(x0, x1, (-x0 - x1) % m) for x0 in range(m) for x1 in range(m)]
    elements = [(x, p) for x in hpart for p in kgrp]

    seen = set()
    nodes = []
    for a in range(m):
        for b in range(m):
            c = (a, b)
            if c in seen:
                continue
            orbit = {act(p, c) for p in kgrp}
            seen |= orbit
            stab = tuple(p for p in kgrp if act(p, c) == c)
            for tau in _k_irreps(stab, cond):
                nodes.append((c, frozenset(stab), tau))

    conj_by = {(g, s): _comp(_comp(_inv_perm(g), s), g) for g in kgrp for s in kgrp}
    thetas = []
    for c, stab, tau in nodes:
        moved = [(g, act(g, c)) for g in kgrp]
        vals = []
        for x, s in elements:
            terms = []
            for g, gc in moved:
                conj = conj_by[g, s]
                if conj in stab:
                    coeff, k = tau[conj]
                    terms.append(((gc[0] * x[0] + gc[1] * x[1]) * step + k, coeff))
            vals.append(root_sum(cond, terms, len(stab)))
        thetas.append(vals)

    chi_pi = []
    for x, s in elements:
        sign = -1 if full_s3 and _parity(s) < 0 else 1
        fixed = [(x[i] * step, sign) for i in range(3) if s[i] == i]
        chi_pi.append(root_sum(cond, fixed))

    order = len(elements)
    r = len(nodes)
    weighted = [[c * th for c, th in zip(chi_pi, theta)] for theta in thetas]
    conj = [[v.conjugate() for v in theta] for theta in thetas]
    mat = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            val = (dot(weighted[i], conj[j]) / order).try_rational()
            if val is None or val.denominator != 1 or val < 0:
                raise CatalogError("induced-character bookkeeping failed")
            mat[i][j] = int(val)
    dims = []
    for i in range(r):
        d = thetas[i][0].try_rational()
        if d is None or d.denominator != 1 or d <= 0:
            raise CatalogError("induced character has a bad degree")
        dims.append(int(d))
    return Quiver(tuple(dims), tuple(tuple(row) for row in mat), 3)


def expected_adjacency(spec: GroupSpec) -> Quiver | None:
    """An independently constructed quiver to compare against, or None."""
    if spec.kind == "Hmn":
        return _torus_quiver(spec.m, spec.n)
    if spec.kind == "Gm3":
        return _little_group_quiver(spec.m, False)
    if spec.kind == "Gm6":
        return _little_group_quiver(spec.m, True)
    if spec.kind == "SL2":
        if spec.alpha != 1:
            return None
        return _sl2_quiver(spec.subtype, spec.k)
    if spec.kind == "G5":
        return _fusion_quiver(_G5_DIMS, _G5_FUSION)
    if spec.kind == "G6":
        return _fusion_quiver(_G6_DIMS, _G6_FUSION)
    if spec.kind == "G8":
        return Quiver(_G8_DIMS, _G8_MATRIX, 3)
    if spec.kind == "G9":
        return _block_shift_quiver(_G9_BLOCK_DIMS, _G9_BLOCK)
    if spec.kind == "G10":
        return _block_shift_quiver(_G8_DIMS, _G8_MATRIX)
    return None


# ---------------------------------------------------------------------------
# direct character table for the diagonal groups


def abelian_table(m: int, n: int) -> CharacterTable:
    """Character table of Hmn written down directly: every element is its own
    class and the characters are (i,j) -> z_m^(ik) z_n^(jl).

    Galois action.  The class (i,j) is diag(z_m^i, z_n^j, ...), so its s-th
    power is the class (si mod m, sj mod n), and pi_a(i,j) = (ai mod m,
    aj mod n).  sigma_a sends z_m^(ik) z_n^(jl) to z_m^(aik) z_n^(ajl), the
    value at (ai, aj): X[(k,l)][pi_a(i,j)] = sigma_a X[(k,l)][(i,j)].  Every
    value is a root of unity, so it lies in Z[zeta_e] with |X| = 1 = d."""
    cond = lcm(m, n)
    sm, sn = cond // m, cond // n
    labels = [(i, j) for i in range(m) for j in range(n)]
    pos = {v: t for t, v in enumerate(labels)}
    values = tuple(
        tuple(root((i * k * sm + j * l * sn) % cond, cond) for (i, j) in labels)
        for (k, l) in labels
    )
    reps = tuple(
        _diag(
            root(i * sm, cond), root(j * sn, cond), root((-i * sm - j * sn) % cond, cond)
        )
        for (i, j) in labels
    )
    orders = tuple(
        lcm(m // gcd(i, m), n // gcd(j, n)) for (i, j) in labels
    )
    inverse = tuple(pos[((-i) % m, (-j) % n)] for (i, j) in labels)
    powers = (
        [pos[(s * i % m, s * j % n)] for s in range(o)]
        for (i, j), o in zip(labels, orders)
    )
    return with_galois_action(CharacterTable(
        conductor=cond,
        order=m * n,
        dims=(1,) * (m * n),
        values=values,
        class_sizes=(1,) * (m * n),
        class_orders=orders,
        inverse_class=inverse,
        class_reps=reps,
    ), powers)
