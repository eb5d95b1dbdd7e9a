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
translation rule for Hmn, integer Clifford-Mackey counts over the little
groups for Gm3/Gm6, affine ADE diagrams for the SL(2) embeddings, and
recorded fusion data for G5/G6/G8/G9/G10).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .chartab import CharacterTable
from .exactnum import Cyclotomic, common_conductor, root, sqrt_constant
from .matgroup import (
    MAX_ORDER,
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


class GroupSpec(NamedTuple):
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


def _parameter(digits: str) -> int:
    try:  # int() refuses over sys.get_int_max_str_digits() digits, 4300 by default
        return int(digits)
    except ValueError:
        raise SpecError(f"a parameter of {len(digits)} digits is too long") from None


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
        mm, nn = _parameter(m.group(1)), _parameter(m.group(2))
        if mm < 1 or nn < 1:
            raise SpecError("Hmn parameters must be >= 1")
        return GroupSpec(kind="Hmn", m=mm, n=nn)
    if head in ("Gm3", "Gm6"):
        if not re.fullmatch(r"[0-9]+", rest):
            raise SpecError(f"expected {head}:m, got {text!r}")
        mm = _parameter(rest)
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
            k = _parameter(parts[pos])
            if k < 1:
                raise SpecError(f"{subtype} parameter must be >= 1")
            pos += 1
        alpha = 1
        if pos < len(parts):
            m = re.fullmatch(r"alpha=([0-9]+)", parts[pos])
            if not m:
                raise SpecError(f"unexpected suffix {parts[pos]!r} in {text!r}")
            alpha = _parameter(m.group(1))
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
    return sum(d * d for d in _EXCEPTIONAL_DIMS[spec.kind])  # |G| = sum of d^2


def check_order(spec: GroupSpec, max_order: int) -> int | None:
    """The expected order of spec; raise OrderBoundExceeded if the group is
    known, before any generator is built, to exceed max_order.

    A generator at a large conductor can itself cost memory before the
    closure counts a single element.  A twisted order is held to a lower
    bound: each SL2 generator is block-diagonal with (1,1) entry
    conj(a)^2, a a primitive alpha-th root of unity, so g -> g[0][0] maps
    the group onto a cyclic group of order alpha / gcd(alpha, 2).
    """
    want = expected_order(spec)
    if (want or spec.alpha // gcd(spec.alpha, 2)) > max_order:
        raise OrderBoundExceeded(
            f"more than {max_order} elements; raise max_order if intended"
        )
    return want


def build_group(spec: GroupSpec, max_order: int = MAX_ORDER) -> FiniteMatrixGroup:
    """Close the generators and cross-check determinants and the order,
    after `check_order`."""
    want = check_order(spec, max_order)
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


class Profile(NamedTuple):
    """What the character table of a catalog group must look like: its
    dimensions, ascending, and for a degenerate group a note saying what it
    collapses to."""

    dims: tuple[int, ...]
    note: str | None = None

    @property
    def order(self) -> int:
        return sum(d * d for d in self.dims)

    @property
    def class_count(self) -> int:
        return len(self.dims)


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
        note = "trivial group" if spec.m == spec.n == 1 else None
        return Profile((1,) * (spec.m * spec.n), note)
    if spec.kind == "Gm3":
        m = spec.m
        if m % 3 == 0:
            dims = (1,) * 9 + (3,) * ((m * m - 3) // 3)
        else:
            dims = (1,) * 3 + (3,) * ((m * m - 1) // 3)
        return Profile(dims, "cyclic of order 3" if m == 1 else None)
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
        note = {
            1: "isomorphic to the symmetric group S3",
            2: "isomorphic to the symmetric group S4",
        }.get(m)
        return Profile(dims, note)
    if spec.kind == "SL2":
        if spec.alpha != 1:
            return None
        if spec.subtype == "cyclic":
            note = "trivial group" if spec.k == 1 else None
            return Profile((1,) * spec.k, note)
        if spec.subtype == "binD":
            note = "cyclic of order 4" if spec.k == 1 else None
            return Profile((1,) * 4 + (2,) * (spec.k - 1), note)
        dims = {
            "2T": (1, 1, 1, 2, 2, 2, 3),
            "2O": (1, 1, 2, 2, 2, 3, 3, 4),
            "2I": (1, 2, 2, 3, 3, 4, 4, 5, 6),
        }[spec.subtype]
        return Profile(dims)
    return Profile(_EXCEPTIONAL_DIMS[spec.kind])


# ---------------------------------------------------------------------------
# expected quivers


def _quiver_from_edges(dims, edges) -> Quiver:
    """Multiplicity matrix from an arrow list (i, j), one arrow per entry."""
    r = len(dims)
    m = [[0] * r for _ in range(r)]
    for i, j in edges:
        m[i][j] += 1
    return Quiver(tuple(dims), tuple(tuple(row) for row in m), 3)


def _torus_quiver(m: int, n: int) -> Quiver:
    edges = [
        (i * n + j, (i + di) % m * n + (j + dj) % n)
        for i in range(m)
        for j in range(n)
        for di, dj in ((1, 0), (0, 1), (-1, -1))
    ]
    return _quiver_from_edges((1,) * (m * n), edges)


def _sl2_quiver(subtype: str, k: int) -> Quiver:
    if subtype == "cyclic" or (subtype == "binD" and k == 1):
        r = k if subtype == "cyclic" else 4  # the affine A_(r-1) cycle
        dims = (1,) * r
        edges = [(i, (i + 1) % r) for i in range(r)]
    elif subtype == "binD":
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
    # V = 1 + std: the trivial summand puts a loop at every node, and std,
    # self-dual, joins the affine diagram's neighbours both ways
    loops = [(i, i) for i in range(len(dims))]
    return _quiver_from_edges(dims, edges + [(j, i) for i, j in edges] + loops)


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
    edges = [
        (b * s + i, (b + 1) % 3 * s + j)
        for b in range(3)
        for i in range(s)
        for j in range(s)
        for _ in range(block[i][j])
    ]
    return _quiver_from_edges(tuple(block_dims) * 3, edges)


# -- Clifford-Mackey counting for the monomial families ----------------------

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


def _fixing_irreps(stab):
    """Irreducible characters of a subgroup of S3, each as a dict perm -> int
    on the elements that fix a point (the identity and the transpositions),
    the only values the count reads.  A trivial or A3 stabilizer has only
    linear characters, and its identity is its one point-fixing element."""
    e = (0, 1, 2)
    if len(stab) in (1, 3):
        return [{e: 1}] * len(stab)
    fixing = [p for p in stab if _parity(p) < 0 or p == e]
    out = [{p: 1 for p in fixing}, {p: _parity(p) for p in fixing}]
    if len(stab) == 6:
        out.append({p: 2 if p == e else 0 for p in fixing})
    return out


def _little_group_quiver(m: int, full_s3: bool) -> Quiver:
    """Quiver of G = H semidirect K, H = (Z_m^3 with zero coordinate sum)
    and K in {A3, S3}, against the natural monomial representation V,
    counted in the integers from the little-group description of Irr(G).

    Nodes (Serre, Linear Representations of Finite Groups, 8.2).  A
    character of H is c in Z_m^3 / Z_m (1,1,1), stored as (c0 - c2, c1 - c2);
    K permutes the coordinates.  Each K-orbit, with representative c and
    stabilizer K_c, and each tau in Irr(K_c) give the irreducible
    W(c, tau) = Ind_{H K_c}^G (c tensor tau), of dimension |K : K_c| tau(1).

    Entries.  In K a permutation s acts on V as eta(s) P_s, eta the sign (on
    A3, and so for Gm3, eta = 1), and Res_H V = e_0 + e_1 + e_2.  By
    Ind(theta) tensor V = Ind(theta tensor Res V), V tensor W(c, tau) is the
    sum over the K_c-orbits of {0,1,2}, with representative i and
    S = Stab_{K_c}(i), of Ind_{H S}^G ((c + e_i) tensor eta tau|_S).  By
    Frobenius and Mackey the multiplicity of W(c'', tau'') in that summand
    is 0 unless c + e_i = k c'' for some k in K, and otherwise
    (1/|S|) sum_{s in S} eta(s) tau(s) tau''(k^-1 s k): the (c + e_i)-part
    of W(c'', tau'') is k applied to c'' tensor tau''.  Another k differs by
    an element of K_c'' on the right, which tau'' does not see
    (Reiten-Riedtmann, J. Algebra 92 (1985), give the same quiver for
    skew group algebras).

    Integrality.  S fixes the point i, so it lies in Stab_{S3}(i), of order
    2: |S| <= 2 and every s in S, as every k^-1 s k, is the identity or a
    transposition.  A character's value at an element of order <= 2 is a
    sum of +-1, an integer, so every value read is an integer and no field
    arithmetic is left.  A sum that |S| does not divide, a negative
    multiplicity, or a node of nonpositive dimension raises CatalogError.
    """
    kgrp = _PERMS3 if full_s3 else _PERMS3[:3]
    units = ((1, 0), (0, 1), (-1, -1))  # e_0, e_1, e_2 as (c0 - c2, c1 - c2)

    def act(p, c):
        c3 = (c[0], c[1], 0)
        moved = [0, 0, 0]
        for i in range(3):
            moved[p[i]] = c3[i]
        return ((moved[0] - moved[2]) % m, (moved[1] - moved[2]) % m)

    home = {}  # character -> (orbit representative c'', k with k c'' = it)
    nodes = []
    span = {}
    for a in range(m):
        for b in range(m):
            c = (a, b)
            if c in home:
                continue
            for p in kgrp:
                home.setdefault(act(p, c), (c, p))
            stab = tuple(p for p in kgrp if act(p, c) == c)
            start = len(nodes)
            nodes += [(c, stab, tau) for tau in _fixing_irreps(stab)]
            span[c] = range(start, len(nodes))

    dims = tuple(len(kgrp) // len(stab) * tau[(0, 1, 2)] for _, stab, tau in nodes)
    if min(dims) <= 0:
        raise CatalogError("little-group node has a nonpositive dimension")
    edges = []
    for row, (c, stab, tau) in enumerate(nodes):
        for i in {min(s[j] for s in stab) for j in range(3)}:
            fix = [s for s in stab if s[i] == i]
            target, k = home[((c[0] + units[i][0]) % m, (c[1] + units[i][1]) % m)]
            kinv = _inv_perm(k)
            for col in span[target]:
                tau2 = nodes[col][2]
                total = sum(
                    _parity(s) * tau[s] * tau2[_comp(_comp(kinv, s), k)] for s in fix
                )
                if total % len(fix) or total < 0:
                    raise CatalogError("Clifford-Mackey count is not a multiplicity")
                edges += [(row, col)] * (total // len(fix))
    return _quiver_from_edges(dims, edges)


def expected_adjacency(spec: GroupSpec) -> Quiver | None:
    """An independently constructed quiver to compare against, or None.

    Every construction here is integer bookkeeping on labels: none reads a
    character table or does field arithmetic, so it shares no step with the
    computed quiver.  Gm3/Gm6 count multiplicities over the little groups
    (`_little_group_quiver`, proof there)."""
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
    powers = tuple(
        tuple(pos[(s * i % m, s * j % n)] for s in range(o))
        for (i, j), o in zip(labels, orders)
    )
    return CharacterTable(
        conductor=cond,
        order=m * n,
        dims=(1,) * (m * n),
        values=values,
        class_sizes=(1,) * (m * n),
        class_orders=orders,
        inverse_class=inverse,
        power_classes=powers,
        class_reps=reps,
    )
