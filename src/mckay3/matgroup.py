"""Exact square matrices over cyclotomic fields and finite group closure.

Matrices are immutable, carry one conductor for all entries, and have a
canonical byte key derived from the canonical form of each entry.  Closure is
a breadth-first walk that processes each frontier in sorted key order, so the
element list (and hence every downstream index, class and table ordering) is
reproducible across runs and platforms.

The walk is exact and runs on rows: row i of x*g is (row i of x)*g, so each
distinct row met is multiplied by each generator once, and an element is the
tuple of its row ids; each product or sum of two entry values is computed
once (see `closure`).

The walk records the Cayley graph it computes anyway: for each generator g
the permutation x -> x*g of element indices (`right`), and the breadth-first
tree.  Index-level products (needed in bulk by conjugacy classes and class
constants) read that graph and never touch a matrix: a whole row z*y over all
y is filled in one pass along the tree (`left`), and the powers of z are read
off z's own row.
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


# the default element budget of `closure`, `catalog.build_group` and the CLI
MAX_ORDER = 20000


class SquareMatrix:
    __slots__ = ("dim", "conductor", "rows", "_key", "_det")

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
        self._key = self._det = None

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

    def det(self) -> Cyclotomic:
        """Laplace expansion along the first row, read off the row tuples
        through the list of columns still in play, so no minor is built;
        taken once per matrix, like the key."""

        def expand(i: int, cols: tuple[int, ...]) -> Cyclotomic:
            row = self.rows[i]
            if len(cols) == 1:
                return row[cols[0]]
            if len(cols) == 2:
                j, k = cols
                below = self.rows[i + 1]
                return row[j] * below[k] - row[k] * below[j]
            total = Cyclotomic.rational(0, self.conductor)
            for pos, j in enumerate(cols):
                term = row[j] * expand(i + 1, cols[:pos] + cols[pos + 1 :])
                total = total + term if pos % 2 == 0 else total - term
            return total

        if self._det is None:
            self._det = expand(0, tuple(range(self.dim)))
        return self._det

    def __str__(self) -> str:
        return "[" + "; ".join(
            ", ".join(str(e) for e in r) for r in self.rows
        ) + "]"

    def __repr__(self) -> str:
        return f"<SquareMatrix dim={self.dim} N={self.conductor}>"


def to_common_conductor(mats) -> list[SquareMatrix]:
    target = lcm(*(m.conductor for m in mats))
    return [m.promote(target) for m in mats]


def closure(generators, max_order: int = MAX_ORDER) -> "FiniteMatrixGroup":
    """Multiplicative closure of the generators, in deterministic order.

    Elements appear identity-first, then level by level of the breadth-first
    walk with each level sorted by canonical key, each level's tree parent
    being the first (element, generator) pair in walk order that reaches it.
    Raises OrderBoundExceeded as soon as the walk proves that the group has
    more than max_order elements.

    The walk runs on rows.  Row i of x*g is (row i of x)*g, so every row of
    every element lies in the orbit of a basis row e_i under the generators,
    and that orbit is usually far smaller than the group (G12: 270 rows for
    1080 elements).  Each distinct row gets an id and its byte key, and a
    memo holds the id of row*g, so each distinct row is multiplied by each
    generator exactly once.  A row is a tuple of value ids, and the entries
    of row*g are folded from memoised products and sums of two values, so
    each distinct pair is multiplied or added once.  An element is the tuple
    of its row ids.  Entries are in canonical form, so two matrices are
    equal exactly when their row-id tuples are, and the walk is exact.
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
        if g.det().is_zero():
            raise SingularMatrix("generator is singular")

    # Entries are interned: values[v] has the value id v, keyed in
    # value_ids by its canonical data (num, den), and id 0 is zero.  Every
    # entry is canonical at the one conductor, so equal (num, den) is equal
    # value; each memo entry products[a, b] or sums[a, b] is therefore the
    # exact product or sum of values[a] and values[b], computed once with
    # Cyclotomic * and +.  An entry of row*g is the left fold of
    # plus(acc, times(row[i], g[i][j])), the exact value `dot` gives, so the
    # rows, keys and Cayley graph are those of one `dot` per entry.
    values: list[Cyclotomic] = []
    value_ids: dict[tuple[tuple[int, ...], int], int] = {}
    products: dict[tuple[int, int], int] = {}
    sums: dict[tuple[int, int], int] = {}

    def value_id(v: Cyclotomic) -> int:
        i = value_ids.setdefault((v._num, v._den), len(values))
        if i == len(values):
            values.append(v)
        return i

    value_id(Cyclotomic.rational(0, conductor))
    columns = [[tuple(map(value_id, col)) for col in zip(*g.rows)] for g in gens]
    rows: list[tuple[int, ...]] = []
    row_values: list[tuple[Cyclotomic, ...]] = []  # shared by the elements
    row_keys: list[bytes] = []
    row_ids: dict[tuple[int, ...], int] = {}
    encodings: dict[int, bytes] = {}  # each value encoded once, in a row
    # step[pos][r]: the id of rows[r] * gens[pos], once it is computed
    step: list[list[int | None]] = [[] for _ in gens]

    def row_id(row: tuple[int, ...]) -> int:
        r = row_ids.get(row)
        if r is None:
            r = row_ids[row] = len(rows)
            rows.append(row)
            row_values.append(tuple([values[v] for v in row]))
            encodings.update((v, values[v].encode()) for v in row if v not in encodings)
            row_keys.append(b"|".join([encodings[v] for v in row]))
            for memo in step:
                memo.append(None)
        return r

    def row_times(r: int, pos: int) -> int:
        y = step[pos][r]
        if y is None:
            row, out = rows[r], []
            for col in columns[pos]:
                acc = 0
                for a, b in zip(row, col):
                    if a and b:  # times(0, b) = times(a, 0) = 0
                        c = products.get((a, b))
                        if c is None:
                            c = products[a, b] = value_id(values[a] * values[b])
                        s = sums.get((acc, c)) if acc else c  # plus(0, c) = c
                        if s is None:
                            s = sums[acc, c] = value_id(values[acc] + values[c])
                        acc = s
                out.append(acc)
            y = step[pos][r] = row_id(tuple(out))
        return y

    head = b"%d/%d" % (dim, conductor)
    identity = SquareMatrix.identity(dim, conductor)
    one = tuple(row_id(tuple(map(value_id, r))) for r in identity.rows)
    elements: list[SquareMatrix] = [identity]
    found: dict[tuple[int, ...], int] = {one: 0}
    right: list[list[int]] = [[] for _ in gens]
    tree: list[tuple[int, int] | None] = [None]
    frontier = [(0, one)]
    while frontier:
        # fresh: each new element and its first (x, pos); hits: every x*g
        fresh, hits = {}, [[] for _ in gens]
        for x, ids in frontier:
            for pos, level_hits in enumerate(hits):
                y = tuple([row_times(r, pos) for r in ids])
                level_hits.append(found.get(y, y))  # an index once y is known
                if y not in found and y not in fresh:
                    fresh[y] = (x, pos)
        # elements holds the identity, which counts against the bound too
        if len(elements) + len(fresh) > max_order:
            raise OrderBoundExceeded(
                f"more than {max_order} elements; raise max_order if intended"
            )
        level = sorted(
            (b"|".join([head, *[row_keys[r] for r in y]]), y, x, pos)
            for y, (x, pos) in fresh.items()
        )
        frontier = []
        for k, y, x, pos in level:
            # the rows are canonical at the conductor and the key is known,
            # so the element skips the constructor's promotion pass
            m = object.__new__(SquareMatrix)
            m.dim, m.conductor, m._key, m._det = dim, conductor, k, None
            m.rows = tuple([row_values[r] for r in y])
            found[y] = len(elements)
            frontier.append((len(elements), y))
            elements.append(m)
            tree.append((x, pos))
        # the frontier is a run of consecutive indices, so extending keeps
        # right[pos][x] at position x
        for row, level_hits in zip(right, hits):
            row.extend(found[y] if type(y) is tuple else y for y in level_hits)

    return FiniteMatrixGroup(tuple(elements), right, tree)


class FiniteMatrixGroup:
    """A finite matrix group as an indexed element list (identity at 0).

    Built by `closure`, which hands over its Cayley graph: right[g][x] is the
    index of elements[x] * gens[g], and tree[x] = (parent, g) says that x was
    first reached as elements[parent] * gens[g] (tree[0] is None).
    """

    def __init__(self, elements, right, tree):
        self.elements: tuple[SquareMatrix, ...] = elements
        self.right: list[list[int]] = right
        self._tree: list[tuple[int, int] | None] = tree
        self.generator_indices: tuple[int, ...] = tuple(r[0] for r in right)
        self.dim = elements[0].dim
        self.conductor = elements[0].conductor

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def index(self) -> dict[bytes, int]:
        """Canonical key -> element index, built on first read (`index_of`)."""
        return {m.key(): i for i, m in enumerate(self.elements)}

    def index_of(self, m: SquareMatrix) -> int:
        try:
            return self.index[m.promote(self.conductor).key()]
        except KeyError:
            raise KeyError("matrix is not an element of this group") from None

    def left(self, z: int) -> list[int]:
        """Indices of elements[z] * elements[y] for every y, filled along the
        tree in one pass: z * (parent * g) = (z * parent) * g."""
        right = self.right
        row = [z]
        for parent, pos in self._tree[1:]:
            row.append(right[pos][row[parent]])
        return row

    def powers(self, z: int) -> list[int]:
        """Indices of z^0, z^1, ..., z^(o-1), o the order of z, read off z's
        left row as z^(s+1) = z * z^s, so the walk's length is the order and
        its last entry is the inverse."""
        row, walk, cur = self.left(z), [0], z
        while cur:
            walk.append(cur)
            cur = row[cur]
        return walk

    def exponent(self) -> int:
        return lcm(*(len(self.powers(z)) for z in range(self.order)))
