"""Exact square matrices over cyclotomic fields and finite group closure.

Matrices are immutable, carry one conductor for all entries, and have a
canonical byte key derived from the canonical form of each entry.  Closure is
a breadth-first walk that processes each frontier in sorted key order, so the
element list (and hence every downstream index, class and table ordering) is
reproducible across runs and platforms.

The walk runs on the images of the matrices modulo a product M of primes
p = 1 (mod N): each edge x*g is one matrix product mod M, and each new element
costs one exact product, parent * generator, for its canonical key.  A
norm bound certifies afterwards that every edge was read exactly; if it
does not, M grows and the walk repeats (the proof is in `closure`).

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
from operator import itemgetter, mul

from .exactnum import Cyclotomic, ConductorMismatch, dot, height, residues, totient
from .modp import CRT_START, garner, prime_one_mod, root_of_unity


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

    def __str__(self) -> str:
        return "[" + "; ".join(
            ", ".join(str(e) for e in r) for r in self.rows
        ) + "]"

    def __repr__(self) -> str:
        return f"<SquareMatrix dim={self.dim} N={self.conductor}>"


def to_common_conductor(mats) -> list[SquareMatrix]:
    target = lcm(*(m.conductor for m in mats))
    return [m.promote(target) for m in mats]


def _seed_bound(den: int, norm: int, dim: int) -> int:
    """The first bound on the edge values: the certificate's B with the
    generators' (D, b) standing in for the unknown group's, times 4 as
    headroom for the larger norms of products (2 phi more bits of M)."""
    return 4 * den * den * (dim * norm * norm + norm)


def closure(generators, max_order: int = 20000) -> "FiniteMatrixGroup":
    """Multiplicative closure of the generators, in deterministic order.

    Elements appear identity-first, then level by level of the breadth-first
    walk with each level sorted by canonical key, each level's tree parent
    being the first (element, generator) pair in walk order that reaches it.
    Raises OrderBoundExceeded as soon as the walk proves that the group has
    more than max_order elements.

    The walk runs on images.  Let N be the conductor, n the dimension, D
    the lcm of the generator denominators and phi = phi(N).  M = p_1...p_t
    is a product of primes p_i = 1 (mod N) above CRT_START that do not
    divide D, and zeta_N -> z (z the CRT of `root_of_unity(p_i, N)`) is a
    ring map Z[zeta_N][1/D] -> Z/M, so every matrix of the group has an
    image mod M, and the image of a product is the product of the images.
    Each edge (x, g) costs one product mod M.  An image met for the first
    time is a new element: it gets one exact product, parent * generator,
    whose canonical key orders the level.  Distinct images are distinct
    matrices, so the elements are distinct, and the images of edges say
    which element x*g is.

    Certificate.  Let S be the set found, (D_S, b_S) and (D_g, b_g) the
    `height` of the entries of S and of the generators, L = D_S D_g and
    B = L (n b_S b_g + b_S).  For an edge with x*g read as y, every entry
    of alpha = L (x*g - y) is a cyclotomic integer of absolute value at
    most B under every embedding, so |Norm(alpha)| <= B^phi.  Its image
    vanishes mod each p_i, so alpha lies in each degree-1 prime
    (p_i, zeta_N - z_i), and M divides Norm(alpha): p_i = 1 (mod N) splits
    completely in Q(zeta_N) (L. C. Washington, Introduction to Cyclotomic
    Fields, ch. 2).  If M > B^phi, then every alpha is 0: S*g lies in S
    for each generator g.  As g is invertible and S finite, S*g = S, so S
    holds 1 and is closed under each g and its inverse, and S is exactly
    the group.  Every edge was then read exactly, so the walk met its
    elements in the same order, with the same parents, as an exact walk.
    Otherwise M is enlarged above B^phi and the walk repeats.

    A finite group G never raises: the images found lie in the image of G,
    so S has at most |G| elements.  An infinite group never passes the
    certificate, and each round adds a prime to M; once M exceeds the
    bound for a ball of more than max_order elements, the reduction is
    injective there and the walk raises.
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

    den_g, norm_g = height([e for g in gens for row in g.rows for e in row])
    bound = _seed_bound(den_g, norm_g, dim)
    # generator columns scaled to cyclotomic integers, as residues needs
    scaled = [[[e * den_g for e in col] for col in zip(*g.rows)] for g in gens]
    modulus, z, p = 1, 0, CRT_START
    while True:
        while modulus <= bound ** totient(conductor):
            p = prime_one_mod(conductor, p)
            if den_g % p:
                (z,), modulus = garner([z], modulus, [root_of_unity(p, conductor)], p)
        scale = pow(den_g, -1, modulus)
        columns = [
            [[v * scale % modulus for v in residues(c, conductor, modulus, z)] for c in g]
            for g in scaled
        ]
        group = _search(gens, columns, modulus, max_order)
        den_s, norm_s = height([e for m in group.elements for row in m.rows for e in row])
        bound = den_s * den_g * (dim * norm_s * norm_g + norm_s)
        if modulus > bound ** totient(conductor):
            return group


def _search(gens, columns, modulus: int, max_order: int) -> "FiniteMatrixGroup":
    """The breadth-first walk of `closure` on images mod modulus: columns
    for the generators, and for the elements their row-major entries packed
    into one bytes key (a fraction of the memory of a tuple of ints)."""
    dim = gens[0].dim
    size = (modulus.bit_length() + 7) // 8

    def pack(entries) -> bytes:
        return b"".join(v.to_bytes(size, "little") for v in entries)

    identity = SquareMatrix.identity(dim, gens[0].conductor)
    one = pack(int(i == j) for i in range(dim) for j in range(dim))
    elements: list[SquareMatrix] = [identity]
    index: dict[bytes, int] = {identity.key(): 0}
    found: dict[bytes, int] = {one: 0}
    right: list[list[int]] = [[] for _ in gens]
    tree: list[tuple[int, int] | None] = [None]
    frontier = [(0, one)]
    while frontier:
        # fresh: each new image and its first (x, pos); hits: every x*g
        fresh, hits = {}, [[] for _ in gens]
        for x, image in frontier:
            flat = [
                int.from_bytes(image[at : at + size], "little")
                for at in range(0, len(image), size)
            ]
            rows = [flat[at : at + dim] for at in range(0, dim * dim, dim)]
            for pos, cols in enumerate(columns):
                y = pack(sum(map(mul, r, c)) % modulus for r in rows for c in cols)
                hits[pos].append(found.get(y, y))  # an index once y is known
                if y not in found and y not in fresh:
                    fresh[y] = (x, pos)
        # each fresh image is a new element, so the bound holds before any
        # exact product; the identity alone is one element
        if len(elements) + len(fresh) > max_order:
            raise OrderBoundExceeded(
                f"more than {max_order} elements; raise max_order if intended"
            )
        level = []
        for y, (x, pos) in fresh.items():
            m = elements[x] * gens[pos] if x else gens[pos]  # 1*g is g
            level.append((m.key(), m, y, x, pos))
        frontier = []
        for k, m, y, x, pos in sorted(level, key=itemgetter(0)):
            index[k] = found[y] = len(elements)
            frontier.append((len(elements), y))
            elements.append(m)
            tree.append((x, pos))
        # the frontier is a run of consecutive indices, so extending keeps
        # right[pos][x] at position x
        for row, level_hits in zip(right, hits):
            row.extend(found[y] if type(y) is bytes else y for y in level_hits)

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

    def _word(self, j: int) -> list[list[int]]:
        """j's tree word as right-multiplication permutations, in the order
        they are applied: elements[j] = gens[w0] * gens[w1] * ..."""
        tree, right = self._tree, self._right
        word = []
        while j:
            j, pos = tree[j]
            word.append(right[pos])
        word.reverse()
        return word

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j]: j's tree word applied to i."""
        for perm in self._word(j):
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
            word = self._word(i)
            o = 1
            cur = i
            while True:
                nxt = cur
                for perm in word:
                    nxt = perm[nxt]
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
