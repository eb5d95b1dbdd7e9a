"""Exact square matrices over cyclotomic fields and finite group closure.

Matrices are immutable, carry one conductor for all entries, and have a
canonical byte key derived from the canonical form of each entry.  Closure is
a breadth-first walk that processes each frontier in sorted key order, so the
element list (and hence every downstream index, class and table ordering) is
reproducible across runs and platforms.

The walk records the Cayley graph it computes anyway: for each generator g
the permutation x -> x*g of element indices, and the breadth-first tree.
Index-level products (needed in bulk by conjugacy classes and class
constants) read that graph and never touch a matrix: a single product walks
the tree word of its right factor, and a whole row z*y over all y is filled
in one pass along the tree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm

from .exactnum import Cyclotomic, ConductorMismatch, dot


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

    if max_order < 1:  # the identity alone is one element
        raise OrderBoundExceeded(
            f"more than {max_order} elements; raise max_order if intended"
        )
    identity = SquareMatrix.identity(dim, conductor)
    elements: list[SquareMatrix] = [identity]
    index: dict[bytes, int] = {identity.key(): 0}
    right: list[list[int]] = [[] for _ in gens]
    tree: list[tuple[int, int] | None] = [None]
    frontier = [0]
    while frontier:
        fresh: dict[bytes, tuple[SquareMatrix, int, int]] = {}
        keys: list[list[bytes]] = [[] for _ in gens]
        for x in frontier:
            for pos, g in enumerate(gens):
                y = elements[x] * g if x else g  # 1*g is g: no product
                k = y.key()
                keys[pos].append(k)
                if k not in index and k not in fresh:
                    fresh[k] = (y, x, pos)
        frontier = []
        for k in sorted(fresh):
            y, parent, pos = fresh[k]
            index[k] = len(elements)
            frontier.append(len(elements))
            elements.append(y)
            tree.append((parent, pos))
            if len(elements) > max_order:
                raise OrderBoundExceeded(
                    f"more than {max_order} elements; raise max_order if intended"
                )
        # the frontier is a run of consecutive indices, so extending keeps
        # right[pos][x] at position x
        for row, level_keys in zip(right, keys):
            row.extend(index[k] for k in level_keys)

    return FiniteMatrixGroup(tuple(elements), index, right, tree)


class FiniteMatrixGroup:
    """A finite matrix group as an indexed element list (identity at 0).

    Built by `closure`, which hands over its Cayley graph: right[g][x] is the
    index of elements[x] * gens[g], and tree[x] = (parent, g) says that x was
    first reached as elements[parent] * gens[g] (tree[0] is None).
    """

    def __init__(self, elements, index, right, tree):
        self.elements: tuple[SquareMatrix, ...] = elements
        self.index: dict[bytes, int] = index
        self._right: list[list[int]] = right
        self._tree: list[tuple[int, int] | None] = tree
        self.generator_indices: tuple[int, ...] = tuple(r[0] for r in right)
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

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j]: j's tree word, read up the
        tree, is applied to i from its first letter on."""
        tree, right = self._tree, self._right
        word = []
        while j:
            j, pos = tree[j]
            word.append(right[pos])
        for perm in reversed(word):
            i = perm[i]
        return i

    def left(self, z: int) -> list[int]:
        """Indices of elements[z] * elements[y] for every y, filled along the
        tree in one pass: z * (parent * g) = (z * parent) * g."""
        right = self._right
        row = [z]
        for parent, pos in self._tree[1:]:
            row.append(right[pos][row[parent]])
        return row

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
