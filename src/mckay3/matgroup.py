"""Exact square matrices over cyclotomic fields and finite group closure.

Matrices are immutable, carry one conductor for all entries, and have a
canonical byte key derived from the canonical form of each entry.  Closure is
a breadth-first walk that processes each frontier in sorted key order, so the
element list (and hence every downstream index, class and table ordering) is
reproducible across runs and platforms.

Once a group is closed we also build a fingerprint of every element: the
matrix image under a ring map Q(zeta_N) -> F_q for a prime q = 1 (mod N).
The map is verified to be injective on the finished element list, after which
index-level products (needed in bulk by conjugacy classes and class constants)
run on small integer tuples instead of exact cyclotomic entries.  Results
never depend on q: if no prime gives an injective image we simply fall back
to exact products.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm

from .exactnum import Cyclotomic, ConductorMismatch, dot
from .modp import prime_one_mod, root_of_unity


class SingularMatrix(ValueError):
    """A generator handed to closure is not invertible."""


class OrderBoundExceeded(RuntimeError):
    """Closure exceeded the element budget; the group may be infinite."""


class SquareMatrix:
    __slots__ = ("dim", "conductor", "rows", "_key")

    dim: int
    conductor: int
    rows: tuple[tuple[Cyclotomic, ...], ...]

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("rows must form a nonempty square array")
        conductor = 1
        for r in rows:
            for e in r:
                if isinstance(e, Cyclotomic):
                    conductor = lcm(conductor, e.conductor)
        fixed = []
        for r in rows:
            out = []
            for e in r:
                if isinstance(e, Cyclotomic):
                    out.append(e.promote(conductor))
                else:
                    out.append(Cyclotomic.rational(Fraction(e), conductor))
            fixed.append(tuple(out))
        self.dim = n
        self.conductor = conductor
        self.rows = tuple(fixed)
        self._key = None

    @staticmethod
    def identity(dim: int, conductor: int = 1) -> "SquareMatrix":
        one = Cyclotomic.rational(1, conductor)
        zero = Cyclotomic.rational(0, conductor)
        return SquareMatrix(
            [[one if i == j else zero for j in range(dim)] for i in range(dim)]
        )

    def promote(self, conductor: int) -> "SquareMatrix":
        if conductor == self.conductor:
            return self
        return SquareMatrix([[e.promote(conductor) for e in r] for r in self.rows])

    def key(self) -> bytes:
        """Canonical byte key; equal matrices give identical keys."""
        if self._key is None:
            parts = [b"%d/%d" % (self.dim, self.conductor)]
            for r in self.rows:
                for e in r:
                    parts.append(e.encode())
            self._key = b"|".join(parts)
        return self._key

    def __mul__(self, other: "SquareMatrix") -> "SquareMatrix":
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        if other.conductor != self.conductor:
            raise ConductorMismatch("matrix conductors differ; promote first")
        cols = tuple(zip(*other.rows))
        return SquareMatrix(
            [[dot(row, col) for col in cols] for row in self.rows]
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.conductor == other.conductor
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash(self.key())

    def trace(self) -> Cyclotomic:
        t = self.rows[0][0]
        for i in range(1, self.dim):
            t = t + self.rows[i][i]
        return t

    def transpose(self) -> "SquareMatrix":
        return SquareMatrix(tuple(zip(*self.rows)))

    def conjugate(self) -> "SquareMatrix":
        return SquareMatrix([[e.conjugate() for e in r] for r in self.rows])

    def det(self) -> Cyclotomic:
        n = self.dim
        if n == 1:
            return self.rows[0][0]
        if n == 2:
            (a, b), (c, d) = self.rows
            return a * d - b * c
        total = Cyclotomic.rational(0, self.conductor)
        for j in range(n):
            minor = SquareMatrix(
                [r[:j] + r[j + 1 :] for r in self.rows[1:]]
            )
            term = self.rows[0][j] * minor.det()
            total = total + term if j % 2 == 0 else total - term
        return total

    def __pow__(self, k: int) -> "SquareMatrix":
        if k < 0:
            raise ValueError("negative matrix powers are not supported")
        result = SquareMatrix.identity(self.dim, self.conductor)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __str__(self) -> str:
        return "[" + "; ".join(
            ", ".join(str(e) for e in r) for r in self.rows
        ) + "]"

    def __repr__(self) -> str:
        return f"<SquareMatrix dim={self.dim} N={self.conductor}>"


def to_common_conductor(mats) -> list[SquareMatrix]:
    target = 1
    for m in mats:
        target = lcm(target, m.conductor)
    return [m.promote(target) for m in mats]


def closure(generators, max_order: int = 20000) -> "FiniteMatrixGroup":
    """Multiplicative closure of the generators, in deterministic order.

    Elements appear identity-first, then level by level of the breadth-first
    walk with each level sorted by canonical key.  Raises OrderBoundExceeded
    as soon as more than max_order distinct elements appear.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    dim = gens[0].dim
    conductor = gens[0].conductor
    for g in gens:
        if g.dim != dim:
            raise ValueError("generators must share one dimension")
        if g.conductor != conductor:
            raise ConductorMismatch("generators must share one conductor")
    for g in gens:
        if g.det().is_zero():
            raise SingularMatrix("generator is singular")

    identity = SquareMatrix.identity(dim, conductor)
    elements: list[SquareMatrix] = [identity]
    index: dict[bytes, int] = {identity.key(): 0}
    frontier = []
    seen_gen_keys = set()
    for g in gens:
        k = g.key()
        if k not in index and k not in seen_gen_keys:
            seen_gen_keys.add(k)
            frontier.append(g)
    frontier.sort(key=SquareMatrix.key)
    for m in frontier:
        index[m.key()] = len(elements)
        elements.append(m)

    while frontier:
        fresh: list[SquareMatrix] = []
        fresh_keys = set()
        for x in frontier:
            for g in gens:
                y = x * g
                k = y.key()
                if k not in index and k not in fresh_keys:
                    fresh_keys.add(k)
                    fresh.append(y)
        fresh.sort(key=SquareMatrix.key)
        for m in fresh:
            index[m.key()] = len(elements)
            elements.append(m)
            if len(elements) > max_order:
                raise OrderBoundExceeded(
                    f"more than {max_order} elements; raise max_order if intended"
                )
        frontier = fresh

    gen_indices = tuple(index[g.key()] for g in gens)
    return FiniteMatrixGroup(tuple(elements), index, gen_indices)


class FiniteMatrixGroup:
    """A finite matrix group as an indexed element list (identity at 0)."""

    def __init__(self, elements, index, generator_indices):
        self.elements: tuple[SquareMatrix, ...] = elements
        self.index: dict[bytes, int] = index
        self.generator_indices: tuple[int, ...] = generator_indices
        self.dim = elements[0].dim
        self.conductor = elements[0].conductor

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_of(self, m: SquareMatrix) -> int:
        try:
            return self.index[m.promote(self.conductor).key()]
        except KeyError:
            raise KeyError("matrix is not an element of this group") from None

    # -- fast index-level products ---------------------------------------

    def _try_fingerprints(self, q: int) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], int]] | None:
        n_root = root_of_unity(q, self.conductor)
        powers = [pow(n_root, k, q) for k in range(self.conductor)]
        flat: list[tuple[int, ...]] = []
        lookup: dict[tuple[int, ...], int] = {}
        for pos, m in enumerate(self.elements):
            img = []
            for r in m.rows:
                for e in r:
                    den = e._den % q
                    if den == 0:
                        return None
                    total = 0
                    for k, c in enumerate(e._num):
                        if c:
                            total += c * powers[k]
                    img.append(total * pow(den, -1, q) % q)
            key = tuple(img)
            if key in lookup:
                return None  # not injective at this prime
            lookup[key] = pos
            flat.append(key)
        return flat, lookup

    @cached_property
    def _fast(self) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], int], int] | None:
        """Fingerprint images, their lookup and the prime q; None if no
        prime tried is injective on the elements."""
        q = 10006  # the fingerprint primes are the q = 1 (mod N) above this
        for _ in range(8):
            q = prime_one_mod(self.conductor, q)
            got = self._try_fingerprints(q)
            if got is not None:
                return got[0], got[1], q
        return None

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j]."""
        fast = self._fast
        if fast is not None:
            flat, lookup, q = fast
            a, b, n = flat[i], flat[j], self.dim
            prod = []
            for r in range(n):
                base = r * n
                for c in range(n):
                    total = 0
                    for k in range(n):
                        total += a[base + k] * b[k * n + c]
                    prod.append(total % q)
            return lookup[tuple(prod)]
        return self.index[(self.elements[i] * self.elements[j]).key()]

    @cached_property
    def _orders_inverses(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(order, inverse index) of every element, by repeated products."""
        orders = [1] * self.order
        inverses = [0] * self.order
        for i in range(1, self.order):
            o = 1
            cur = i
            while True:
                nxt = self.mul(cur, i)
                o += 1
                if nxt == 0:
                    orders[i], inverses[i] = o, cur
                    break
                cur = nxt
        return tuple(orders), tuple(inverses)

    def element_order(self, i: int) -> int:
        return self._orders_inverses[0][i]

    def inverse(self, i: int) -> int:
        return self._orders_inverses[1][i]

    def exponent(self) -> int:
        return lcm(*self._orders_inverses[0])
