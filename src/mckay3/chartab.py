"""Exact character tables of finite matrix groups.

The table is computed by the Dixon-Burnside method: work out the class
constants of the group, diagonalize the commuting family of class matrices
over a prime field F_p with p = 1 (mod exponent) and p^2 > 4|G|, read off the
modular characters, then lift each value to an exact cyclotomic integer by a
discrete Fourier transform over the value's own order, one transform per
Galois orbit of classes.  The diagonalization splits each invariant subspace
into the eigenlines of one sparse class matrix: not at all where the matrix is
scalar, else off one shared Krylov basis, with the kernel of A - lambda as the
fallback (`_split_subspace`).  The lift makes the table Galois-equivariant by
construction, so its orthogonality relations are rational integers of known
size.  `_finish`, the last step of this route and the one below, puts the
trivial row first, sorts the rest and decides the relations exactly modulo
one prime; a table that comes back is correct, not heuristically likely.  The
same integer Gram matrix, weighted by a character, is |G| times the quiver
that `mckay.adjacency` reads off it (`_integer_gram`).

A split monomial group has a shorter route, which `pipeline.Analysis`
takes: every generator monomial, and the non-diagonal ones generating a
complement H of the diagonal subgroup A, so G = A x| H.
`little_group_table` walks the dual of A as exponent vectors of the
coordinate characters eps_i(g) = g_ii, takes its H-orbits, and induces
lambda x rho from each stabilizer H_l (Serre, Linear Representations of
Finite Groups, 8.2, Prop. 25), with Irr(H_l) from `dixon_table` on at most
six elements.  It returns the same table as `dixon_table` on G; for H = 1
(every generator diagonal) it forms no class constants, no split and no
Gram matrix.  It returns None for any other group.

Everything downstream keys off the deterministic element order produced by
the closure walk, so classes, class constants and table rows come out in the
same order on every run.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from math import gcd, isqrt, lcm
from operator import add, mul
from typing import NamedTuple

from .exactnum import Cyclotomic, dot, residues, root, root_sum
from .matgroup import FiniteMatrixGroup, SquareMatrix, closure
from .modp import (
    charpoly, gram, horner, kernel_basis, matmul, prime_one_mod, root_of_unity, rref,
    sparse_matmul,
)


class OrthogonalityFailure(RuntimeError):
    """The lifted table failed an exact orthogonality identity."""


class NonIntegralMultiplicity(RuntimeError):
    """A tensor product decomposition produced a non-integer coefficient."""


class ConjugacyClassSet(NamedTuple):
    """Conjugacy classes of a group, ordered by (size, smallest element).

    power_classes[k][s] is the class of rep_k^s for s < o_k (`powers`);
    orders and inverse_class are the walks' lengths and last entries."""

    reps: tuple[int, ...]
    class_of: tuple[int, ...]
    sizes: tuple[int, ...]
    orders: tuple[int, ...]
    inverse_class: tuple[int, ...]
    power_classes: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.reps)


def conjugacy_classes(group: FiniteMatrixGroup) -> ConjugacyClassSet:
    n = group.order
    # x -> g^-1 (x g) for each generator g, x g off its right permutation;
    # the orbits are the classes
    conjugations = []
    for g, times_g in zip(group.generator_indices, group.right):
        by_inverse = group.left(group.powers(g)[-1])
        conjugations.append([by_inverse[y] for y in times_g])
    class_id = [-1] * n
    starts: list[int] = []  # each class's least element: all below it are placed
    for start in range(n):
        if class_id[start] >= 0:
            continue
        class_id[start] = cid = len(starts)
        queue = [start]
        while queue:
            x = queue.pop()
            for conj in conjugations:
                y = conj[x]
                if class_id[y] < 0:
                    class_id[y] = cid
                    queue.append(y)
        starts.append(start)
    size = Counter(class_id)

    # identity sits in class 0 after sorting by (size, least element)
    order_key = sorted(range(len(starts)), key=lambda c: (size[c], starts[c]))
    relabel = {old: new for new, old in enumerate(order_key)}
    class_of = tuple(relabel[c] for c in class_id)
    reps = tuple(starts[c] for c in order_key)
    power_classes = tuple(tuple(map(class_of.__getitem__, group.powers(z))) for z in reps)
    orders = tuple(map(len, power_classes))
    inverse_class = tuple(walk[-1] for walk in power_classes)
    sizes = tuple(size[c] for c in order_key)
    return ConjugacyClassSet(reps, class_of, sizes, orders, inverse_class, power_classes)


def class_constants(
    group: FiniteMatrixGroup, classes: ConjugacyClassSet
) -> list[list[list[tuple[int, int]]]]:
    """The class matrices by sparse columns: m[j][k] lists the pairs
    (i, a_ijk) with a_ijk != 0, a_ijk the number of pairs (x, y) in C_i x C_j
    with x*y = rep(C_k).  Built from one row z*w (over all w) per class: for
    a fixed target z, every w in G gives the pair (z*w, w^-1), keyed r*j + i.
    """
    r = classes.count
    m: list[list[list[tuple[int, int]]]] = [[[] for _ in range(r)] for _ in range(r)]
    offset = [r * classes.inverse_class[c] for c in classes.class_of]
    for k, z in enumerate(classes.reps):
        keys = Counter(map(add, offset, map(classes.class_of.__getitem__, group.left(z))))
        for key, count in keys.items():
            m[key // r][k].append((key % r, count))
    return m


class CharacterTable(NamedTuple):
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
    # the Galois action: power_classes[k][s] is the class of rep_k^s for
    # s < o_k, so pi_a k = power_classes[k][a mod o_k].  Each constructor
    # proves X[i][pi_a k] = sigma_a X[i][k], with every value in Z[zeta_e]
    # and |X[i][k]| <= d_i; an `_replace` copy keeps the field, so
    # a copy with altered values asserts an action it may not have.
    power_classes: tuple[tuple[int, ...], ...]
    class_reps: tuple[SquareMatrix, ...] | None = None

    @property
    def count(self) -> int:
        return len(self.dims)


def galois_orbits(x: ConjugacyClassSet | CharacterTable) -> list[dict[int, int]]:
    """The orbits {pi_a k : a a unit mod o_k} of the classes, read off
    `x.power_classes`, in order of their least class k.  Each maps its
    members pi_a k to the least such a, so k itself comes first."""
    orbits: list[dict[int, int]] = []
    placed: set[int] = set()
    for k, walk in enumerate(x.power_classes):
        if k not in placed:
            o = len(walk)
            orbit: dict[int, int] = {}
            for a in range(o):
                if gcd(a, o) == 1:
                    orbit.setdefault(walk[a], a)
            orbits.append(orbit)
            placed.update(orbit)
    return orbits


# ---------------------------------------------------------------------------
# Dixon-Burnside


def dixon_table(
    group: FiniteMatrixGroup, classes: ConjugacyClassSet | None = None
) -> CharacterTable:
    """The character table of the group, certified before it is returned.

    The class matrices split F_p^r into lines, p = 1 (mod e) with e the
    exponent, and each line gives one character chi mod p.  The lift then
    reads each value off its eigenvalue multiplicities.

    Lift.  For g = rep_k of order o, chi(g^s) = sum_t mu_t z_o^(st) with
    mu_t the multiplicity of the eigenvalue zeta_o^t of g, so mu_t is the
    least residue of (1/o) sum_s chi(g^s) z_o^(-st) mod p, where z_o is the
    image of zeta_o.  Every eigenvalue multiplicity is counted once, so
    sum_t mu_t = d, the degree; the lift checks that sum exactly.  As each
    mu_t >= 0, the check gives 0 <= mu_t <= d and
    |X[i][k]| <= sum_t mu_t = d_i, and every value is an integer vector of
    Z[zeta_e].

    One DFT per Galois orbit.  For a coprime to o, let pi_a k be the class
    of rep_k^a (`power_classes[k][a]`).  rep_k^a has the eigenvalues
    zeta_o^(at) with the same multiplicities, so the lift sets
    X[i][pi_a k] = sum_t mu_t zeta_o^(at) = sigma_a X[i][k], with sigma_a
    the Galois map zeta -> zeta^a, for the least a that reaches pi_a k.
    Another b with pi_b k = pi_a k gives the same value: then c = b/a fixes
    k, the powers rep_k^(cs) and rep_k^s fall in one class, so chi mod p
    takes equal values on them, and the DFT gives mu_(ct) = mu_t as least
    residues, hence as integers, which is sigma_c X[i][k] = X[i][k].  So
    X[i][pi_a k] = sigma_a X[i][k] for every class k and every a coprime to
    e, by construction.  rep_k^a generates the same cyclic group as rep_k,
    so it has the same centralizer, and pi_a preserves class sizes; and
    (rep_k^a)^-1 = (rep_k^-1)^a, so pi_a commutes with `inverse_class`.
    `_integer_gram` uses these facts to decide orthogonality and the
    quiver over one prime.

    Pin.  Mapped to F_p by `exactnum.residues` (zeta_e -> the same z_e),
    the lifted table must equal the modular rows chi: DFT inversion gives
    sum_t mu_t z_o^(st) = chi(g^s) mod p, so a value set at its own class
    reduces to chi there.  Distinct columns of the modular table differ, as
    column orthogonality holds mod p and p does not divide |G| (each prime
    factor of |G| divides e, and p = 1 mod e).  So a column holding another
    class's values, such as two Galois-conjugate columns trading places,
    fails the pin; orthogonality alone cannot see that.
    """
    if classes is None:
        classes = conjugacy_classes(group)
    n = group.order
    r = classes.count
    e = lcm(*classes.orders)

    p = prime_one_mod(e, isqrt(4 * n))  # p^2 > 4|G|
    m = class_constants(group, classes)

    # split F_p^r under the class matrices M_j[i][k] = a_ijk, as v |-> v*m[j]
    subspaces: list[list[list[int]]] = [
        [[1 if c == i else 0 for c in range(r)] for i in range(r)]
    ]
    for j in range(1, r):
        if all(len(w) == 1 for w in subspaces):
            break
        refined: list[list[list[int]]] = []
        for w in subspaces:
            refined.extend(_split_subspace(w, m[j], p) if len(w) > 1 else [w])
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

    # one DFT matrix F[t][s] = z_o^(-st) per Galois orbit of classes, at
    # its least class k; the orbit maps each pi_a k to the least such a
    z_e = root_of_unity(p, e)
    orbits: list[tuple[int, list[list[int]], dict[int, int]]] = []
    for members in galois_orbits(classes):
        k = min(members)
        o = classes.orders[k]
        z_o = pow(z_e, e // o, p)
        z_pows = [pow(z_o, s, p) for s in range(o)]
        dft = [[z_pows[(-s * t) % o] for s in range(o)] for t in range(o)]
        orbits.append((k, dft, members))

    def lift(value) -> list[tuple[int, tuple[Cyclotomic, ...]]]:
        lifted = []
        for d, chi in rows_mod:
            vals: list = [None] * r  # every class is in one orbit
            for k, dft, members in orbits:
                o = len(dft)
                inv_o = pow(o, -1, p)
                column = [chi[c] for c in classes.power_classes[k]]
                mu = [sum(map(mul, column, f_t)) * inv_o % p for f_t in dft]
                # mu_t >= 0 as least residues, so this also gives mu_t <= d
                if sum(mu) != d:
                    raise OrthogonalityFailure(
                        "lifted eigenvalue multiplicities do not sum to the degree"
                    )
                step = e // o
                for k2, a in members.items():
                    vals[k2] = value(tuple((step * a * t, m) for t, m in enumerate(mu) if m))
            lifted.append((d, tuple(vals)))
        flat = chain.from_iterable(vals for _, vals in lifted)
        if residues(flat, e, p) != list(chain.from_iterable(chi for _, chi in rows_mod)):
            raise OrthogonalityFailure("lifted values do not reduce to their modular characters")
        return lifted

    return _finish(group, classes, e, lift)


def _finish(group: FiniteMatrixGroup, classes: ConjugacyClassSet, e: int, lift, exact_only=False):
    """The table of the rows that lift(value) returns as (degree, values):
    the last steps of both routes.

    Values.  value(terms) sums m zeta_e^t over the pairs (t, m), one
    `root_sum` per term tuple, and merges equal values on (num, den): each is
    one shared object, which `residues`, `_integer_gram` and `cli` map once.

    Order.  The trivial character, the one row equal to 1 at every class,
    comes first; the rest are sorted by (dim, encoded values), a key on the
    values alone, so both routes give one table whatever their row order.

    Certificate.  `_exact_table_checks` alone if exact_only (the little-group
    route at H = 1), else `_orthogonal_mod_prime`.
    """
    lifts, shared = {}, {}  # term tuple -> value; (num, den) -> value

    def value(terms: tuple[tuple[int, int], ...]) -> Cyclotomic:
        v = lifts.get(terms)
        if v is None:
            v = root_sum(e, terms)
            v = lifts[terms] = shared.setdefault((v._num, v._den), v)
        return v

    rows = lift(value)
    one = Cyclotomic.rational(1, e)
    trivial = [row for row in rows if all(v == one for v in row[1])]
    if len(trivial) != 1:
        raise OrthogonalityFailure("trivial character missing or duplicated")
    codes = {id(v): v.encode() for v in shared.values()}  # shared keeps ids valid
    rows = trivial + sorted(
        (row for row in rows if row is not trivial[0]),
        key=lambda row: (row[0], tuple(map(codes.__getitem__, map(id, row[1])))),
    )
    table = CharacterTable(
        conductor=e,
        order=group.order,
        dims=tuple(d for d, _ in rows),
        values=tuple(vals for _, vals in rows),
        class_sizes=classes.sizes,
        class_orders=classes.orders,
        inverse_class=classes.inverse_class,
        power_classes=classes.power_classes,
        class_reps=tuple(group.elements[g] for g in classes.reps),
    )
    if exact_only:
        if not _exact_table_checks(table):
            raise OrthogonalityFailure("the diagonal table fails its exact checks")
    elif not _orthogonal_mod_prime(table):
        raise OrthogonalityFailure("orthogonality relations fail mod p'")
    return table


def _orthogonal_mod_prime(table: CharacterTable) -> bool:
    """The verdict of `verify_orthogonality`, for a table with its Galois
    action: the shared `_exact_table_checks` (inv an involution preserving
    class sizes, each size dividing n = |G|, sum d^2 = n, X[i][0] = d_i),
    then R = X.D.Y^T = n*I by `_integer_gram` with chi = 1, so c = 1; as
    n < p/2, R and n*I agree exactly when their residues do."""
    n, r, e = table.order, table.count, table.conductor
    identity = [[n if i == j else 0 for j in range(r)] for i in range(r)]
    ones = [Cyclotomic.rational(1, e)] * r
    return _exact_table_checks(table) and _integer_gram(table, ones, e) == identity


def _integer_gram(table: CharacterTable, chi, t: int) -> list[list[int]]:
    """R = (X o chi).D.Y^T = |G| (<chi gamma_i, gamma_j>), read off mod p.

    Y[i][k] = X[i][inv k], D = diag(|C_k|); chi is given at a multiple t of
    e, with denominators 1.  With c = max_k ||chi(C_k)||_1 (l1 norm of the
    coefficients) and n = |G|, p = 1 (mod t) lies above 2 n c d_max^2, and
    R mod p is `modp.gram` of the residue rows (`exactnum.residues`) with
    weight chi; each entry is returned as its symmetric residue.

    Proof.  Let the table carry its Galois action pi_a (`power_classes`:
    X[i][pi_a k] = sigma_a X[i][k], |X[i][k]| <= d_i, and pi_a preserves
    class sizes and commutes with inv, `dixon_table`), and let
    chi(C_(pi_a k)) = sigma_a chi(C_k) for every unit a mod t.  Reindexed by
    pi_a, sigma_a R_ij = R_ij, so R_ij is rational and in Z[zeta_t]: a
    rational integer.  Each conjugate of chi(C_k) has modulus at most c, so
    |R_ij| <= sum_k |C_k| c d_i d_j = n c d_i d_j < p/2; zeta_t -> z reduces
    integers mod p, so the symmetric residue is R_ij.
    """
    c = max(sum(abs(a) for _, a in v.terms()) for v in chi)
    p = prime_one_mod(t, 2 * table.order * c * max(table.dims) ** 2)
    x = _residue_rows(table, t, p)
    g = gram(x, residues(chi, t, p), table.class_sizes, table.inverse_class, p)
    return [[v - p if 2 * v > p else v for v in row] for row in g]


def _residue_rows(table: CharacterTable, t: int, p: int) -> list[list[int]]:
    """The rows of the table mapped to F_p by `exactnum.residues`, zeta_t ->
    z, all in one call, so each distinct value object is mapped once."""
    flat = residues(chain.from_iterable(table.values), t, p)
    r = table.count
    return [flat[i : i + r] for i in range(0, len(flat), r)]


# ---------------------------------------------------------------------------
# split monomial groups: the little-group route


def little_group_table(
    group: FiniteMatrixGroup, classes: ConjugacyClassSet
) -> CharacterTable | None:
    """The character table of a split monomial group, read off its little
    groups and certified before it is returned; None for any other group.

    Eligibility.  Every generator must be monomial, one nonzero entry per
    row, each a root of unity of Q(zeta_c) with c the conductor: w^y for w =
    zeta_N, N = lcm(2, c).  Then so is every element x, and sigma(x), with
    row i of x nonzero in column sigma_x(i), has sigma_(xy) = sigma_y o
    sigma_x; its kernel in G is A, the diagonal elements.  Let D be the
    diagonal generators and H the subgroup the others generate, walked on
    `right` from the identity and abandoned at the first element whose
    permutation an earlier one has, so past |sigma(H)| <= 3! elements.

    Prop. 25's preconditions (Serre, Linear Representations of Finite
    Groups, 8.2): G = A x| H with A abelian.  A monomial conjugate of a
    diagonal matrix is diagonal, so the H-conjugates S = {h d h^-1} of D
    generate a diagonal A_0 that H normalizes and D centralizes: A_0 is
    normal, G = A_0 H and sigma(G) = sigma(H).  A walk that is not
    abandoned has sigma one to one on H, so H meets A in 1 and
    |H| = |sigma(G)|.  Then |G| = |A_0| |H|, and |A| = |G| / |sigma(G)| =
    |A_0|: A = A_0 = <S> and G = A x| H.  An element g splits as g = a k,
    with k the element of H with sigma_k = sigma_g and a = g k^-1 in A,
    whose diagonal has the exponents y(g) - y(k), y the rows' exponents.
    a^e = 1, e the exponent, so each a_ii = w^y is zeta_e^(y e / N), and
    N | y e is checked.

    Dual.  Diagonal matrices multiply entrywise, so each exponent vector c
    gives a character lambda_c(a) = prod_i a_ii^(c_i) = w^(c.x(a)) of A, x(a)
    the exponents of a's diagonal.  lambda_c is keyed by its signature, its
    exponents on S: S generates A, so equal signatures are equal
    characters.  The walk starts at c = 0, the trivial character, and adds
    each unit vector breadth first; each node carries lambda_c(a) at every
    class, as an exponent at e.

    Completeness.  The walk must reach |A| = |G| / |H| signatures, and this
    is checked, not assumed: they are |A| distinct characters, so all of
    the dual.  It does reach them, because the natural representation is
    faithful: a proper subgroup of the dual of a finite abelian group is
    killed by some a != 1, and an a killed by every eps_i is the identity.

    Orbits.  t in H acts by (t lambda)(a) = lambda(t^-1 a t), and
    (t^-1 a t)_jj = a_ii for j = sigma_t(i), so t lambda_c = lambda_(c o
    sigma_t).  Orbits are taken in walk order: lambda's stabilizer H_l, and
    one t per image t lambda, the first in H's walk, as the transversal T
    of H / H_l.

    Rows.  Irr(H_l) is `dixon_table` of the closure of H_l, at most
    |sigma(G)| <= 3! elements; a trivial H_l has the trivial character
    alone.  H_l fixes lambda, so lambda(a k) = lambda(a) extends it to
    G_l = A H_l, and the theta = Ind_(G_l)^G (lambda x rho), one per orbit
    and rho in Irr(H_l), are the irreducible characters of G, each once
    (Prop. 25).  G is the disjoint union of the t G_l, t in T, and
    t^-1 g t = (t^-1 a t)(t^-1 k t) lies in G_l exactly when t^-1 k t lies
    in H_l, so

        theta(g) = sum over t in T with t^-1 k t in H_l of
                   (t lambda)(a) rho(t^-1 k t).

    (t lambda)(a) is read off the walk at t lambda, and `_finish` sums the
    terms of these cosets at e.

    Galois action.  theta is a character, so theta(g^a) = sigma_a theta(g):
    the eigenvalues of g^a are the a-th powers of those of g.  rep_k^a lies
    in class pi_a k, so X[i][pi_a k] = sigma_a X[i][k], and each value is a
    sum of d_i e-th roots of unity: in Z[zeta_e], with |X[i][k]| <= d_i.

    Certificate.  There must be one row per class.  For H = 1, G = A and
    each theta is a lambda: |G| distinct linear characters, orthonormal
    (Serre 2.3), so the whole table; no class constants and no Gram matrix
    are formed, and `_exact_table_checks` still runs.  Any other table must
    pass `_orthogonal_mod_prime`, as Dixon's does.
    """
    n, r, dim, c = group.order, classes.count, group.dim, group.conductor
    big_n = lcm(2, c)
    exponent_of: dict[bytes, int] = {}  # the roots of unity +-zeta_c^t as powers of w
    for t in range(c):  # zeta_c = w^(N/c) and -1 = w^(N/2)
        v = root(t, c)
        exponent_of.setdefault(v.encode(), t * (big_n // c))
        exponent_of.setdefault((-v).encode(), (t * (big_n // c) + big_n // 2) % big_n)

    def monomial(x: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """(sigma_x, y(x)): row i of x is w^(y[i]) in column sigma_x(i)."""
        sigma, y = [], []
        for row in group.elements[x].rows[:dim]:
            cols = [j for j in range(dim) if row[j]]
            t = exponent_of.get(row[cols[0]].encode()) if len(cols) == 1 else None
            if t is None:
                return None
            sigma.append(cols[0])
            y.append(t)
        return tuple(sigma), tuple(y)

    gens = [monomial(g) for g in group.generator_indices]
    if None in gens:
        return None
    ident = tuple(range(dim))
    moving = [pos for pos, (sigma, _) in enumerate(gens) if sigma != ident]
    h_walk, k_of = [0], {ident: 0}  # H by walk position; k_of[sigma_k] = k
    for x in h_walk:  # breadth first: the list grows as it is read
        for pos in moving:
            y = group.right[pos][x]
            if y not in h_walk:
                sigma = monomial(y)[0]
                if sigma in k_of:
                    return None  # y times an earlier element's inverse is in A
                k_of[sigma] = len(h_walk)
                h_walk.append(y)
    sigmas, ys = zip(*map(monomial, h_walk))
    inverse = [tuple(sorted(ident, key=sigma.__getitem__)) for sigma in sigmas]
    conj = [  # conj[t][k]: the position of t^-1 k t, whose sigma is sigma_t o sigma_k o sigma_t^-1
        [k_of[tuple(st[sk[i]] for i in it)] for sk in sigmas]
        for st, it in zip(sigmas, inverse)
    ]
    e = lcm(*classes.orders)
    # each class rep g = a k: k's walk position, and the exponents of a's
    # diagonal at e, as a^e = 1; one column per coordinate
    ks, columns = [], [[] for _ in ident]
    for g in classes.reps:
        sigma, y = monomial(g)
        k = k_of[sigma]
        ks.append(k)
        for col, yg, yk in zip(columns, y, ys[k]):
            col.append((yg - yk) % big_n * e)
    if any(b % big_n for col in columns for b in col):
        raise OrthogonalityFailure("a diagonal entry is no e-th root of unity")
    columns = [[b // big_n for b in col] for col in columns]

    # the signature of lambda_c is (c . x(s) for s in S), S = {h d h^-1}
    # with x(h d h^-1)_i = x(d)_(sigma_h(i))
    diag = [y for sigma, y in gens if sigma == ident]
    gens_a = sorted({tuple(y[i] for i in sigma) for sigma in sigmas for y in diag})

    def signature(cvec) -> tuple[int, ...]:
        return tuple([sum(map(mul, cvec, s)) % big_n for s in gens_a])

    # each node: (signature, c, lambda_c(a) at each class as an exponent at e)
    units = [tuple(int(i == j) for j in ident) for i in ident]
    steps = [signature(u) for u in units]
    walk = [(signature((0,) * dim), (0,) * dim, (0,) * r)]
    index = {walk[0][0]: 0}
    for sig, cvec, row in walk:  # breadth first, as above
        for u, step, col in zip(units, steps, columns):
            nxt = tuple([(a + b) % big_n for a, b in zip(sig, step)])
            if nxt not in index:
                index[nxt] = len(walk)
                walk.append((
                    nxt,
                    tuple([(a + b) % big_n for a, b in zip(cvec, u)]),
                    tuple([(a + b) % e for a, b in zip(row, col)]),
                ))
    if len(walk) * len(h_walk) != n:
        raise OrthogonalityFailure("the coordinate characters do not reach |A| signatures")

    little: dict[tuple[int, ...], list[tuple[int, dict[int, tuple]]]] = {}

    def irr(stab: tuple[int, ...]) -> list[tuple[int, dict[int, tuple]]]:
        """Irr(H_l) as (degree, {t: the terms of rho(t) at e})."""
        if len(stab) == 1:
            return [(1, {0: ((0, 1),)})]
        if stab not in little:
            sub = closure([group.elements[h_walk[t]] for t in stab[1:]])
            sub_classes = conjugacy_classes(sub)
            tab = dixon_table(sub, sub_classes)
            if e % tab.conductor:
                raise OrthogonalityFailure("a little group's exponent does not divide e")
            step = e // tab.conductor
            cls = [sub_classes.class_of[sub.index_of(group.elements[h_walk[t]])] for t in stab]
            little[stab] = [
                (d, {t: tuple((step * j, m) for j, m in row[k].terms())
                     for t, k in zip(stab, cls)})
                for d, row in zip(tab.dims, tab.values)
            ]
        return little[stab]

    # the H-orbits in walk order: (H_l, [(t, t lambda at each class) per coset])
    orbits: list[tuple[tuple[int, ...], list[tuple[int, tuple[int, ...]]]]] = []
    placed: set[int] = set()
    for pos, (_, cvec, _) in enumerate(walk):
        if pos in placed:
            continue
        stab, cosets = [0], {pos: 0}  # cosets: t lambda -> t, with t = 0 the identity
        for t in range(1, len(sigmas)):
            image = index[signature([cvec[i] for i in sigmas[t]])]
            if image == pos:
                stab.append(t)
            cosets.setdefault(image, t)
        placed.update(cosets)
        orbits.append((tuple(stab), [(t, walk[image][2]) for image, t in cosets.items()]))
    count = sum(len(irr(stab)) for stab, _ in orbits)
    if count != r:
        raise OrthogonalityFailure(f"the little groups give {count} characters for {r} classes")

    def lift(value) -> list[tuple[int, tuple[Cyclotomic, ...]]]:
        if len(h_walk) == 1:
            # G = A: each theta is a lambda, read off its node.  The orbit loop
            # gives the same rows and objects, but builds a term tuple per entry,
            # which makes it several times slower here (timings in CHANGES.md)
            roots = [value(((t, 1),)) for t in range(e)]
            return [(1, tuple(map(roots.__getitem__, row))) for _, _, row in walk]
        rows = []
        for stab, moved in orbits:
            for d, rho in irr(stab):
                # by k: (t lambda at each class, rho(t^-1 k t)) for each coset t
                # with t^-1 k t in H_l, that is in rho
                meets = [
                    [(exps, rho[conj[t][k]]) for t, exps in moved if conj[t][k] in rho]
                    for k in range(len(sigmas))
                ]
                vals = [
                    value(tuple([
                        ((exps[j] + s) % e, m) for exps, terms in meets[k] for s, m in terms
                    ]))
                    for j, k in enumerate(ks)
                ]
                rows.append((len(moved) * d, tuple(vals)))
        return rows

    return _finish(group, classes, e, lift, exact_only=len(h_walk) == 1)


def _split_subspace(
    basis: list[list[int]], mj: list[list[tuple[int, int]]], p: int
) -> list[list[list[int]]]:
    """Split an invariant subspace into eigenspaces of one class matrix.

    basis is in RREF (the identity rows, or a chunk an earlier call
    reduced), so its pivots are the first nonzero of each row.  Let A be mj
    on the span of basis, f its characteristic polynomial, of degree d, and
    v = e_0.  A = lambda*I returns [basis]; else the Krylov vectors v, Av,
    ..., A^(d-1) v are built once.  A root lambda with f'(lambda) != 0
    takes the line g(A)v, with g = f/(x - lambda) from `horner`, at O(d^2)
    per root.  A repeated root, or a simple one whose vector is zero, takes
    the kernel of A - lambda.

    Proof.  lambda*I has f = (x - lambda)^d; its one eigenspace is the span.
    Any other A has two roots or more: the class algebra mod p is F_p^r.
    Coordinates passing coords.basis = images are A's in any independent
    basis, so a non-RREF basis can only raise.  As f = g*(x - lambda),
    f'(lambda) = g(lambda) and, by Cayley-Hamilton, (A - lambda) g(A)v =
    f(A)v = 0.  A simple root has a 1-dimensional eigenspace, so a nonzero
    g(A)v spans it, and each chunk is the RREF of the line the kernel gives.
    """
    pivots = [row.index(next(filter(None, row))) for row in basis]
    images = sparse_matmul(basis, mj, p)
    lam = images[0][pivots[0]]
    if images == [[lam * x % p for x in row] for row in basis]:
        return [basis]  # A = lam*I: f = (x - lam)^d has one root, so no split
    coords = [[img[c] for c in pivots] for img in images]  # against the RREF basis
    if matmul(coords, basis, p) != images:  # the image must lie in the span
        raise OrthogonalityFailure("class matrix does not preserve subspace")
    # column convention: restricted[u][t] = coord u of the image of basis t
    restricted = list(zip(*coords))
    poly = charpoly(restricted, p)
    # f(lam) by value alone, and `horner` divides out only the roots;
    # ascending, so the refinement order is reproducible
    descending, roots = poly[::-1], []
    for lam in range(p):
        value = 0
        for coef in descending:
            value = (value * lam + coef) % p
        if value == 0:
            roots.append(lam)
    # as rows: A^(i+1) v = A^i v . coords
    krylov = [[1] + [0] * (len(basis) - 1)]
    while len(krylov) < len(basis):
        krylov += matmul(krylov[-1:], coords, p)
    grouped: list[list[list[int]]] = []
    for lam in roots:
        q = horner(poly, lam, p)[1]
        line = matmul([q], krylov, p)
        if not horner(q, lam, p)[0] or not any(line[0]):  # q(lam) = f'(lam)
            shifted = [
                [(a - (lam if i == k else 0)) % p for k, a in enumerate(row)]
                for i, row in enumerate(restricted)
            ]
            line = kernel_basis(shifted, p)
        chunk, _ = rref(matmul(line, basis, p), p)
        grouped.append(chunk)
    return grouped


# ---------------------------------------------------------------------------
# class functions


def verify_orthogonality(table: CharacterTable) -> bool:
    """Exact orthogonality of the whole table, certified from its rows.

    Let X be the table, n = |G|, Y[i][k] = X[i][inv k] and D = diag(|C_k|).
    The check computes X.D.Y^T with `_gram` (chi = 1) and compares it with
    n*I.  When inv is an involution with |C_(inv k)| = |C_k|, substituting
    k -> inv k shows that X.D.Y^T is symmetric, so its entries for i <= j
    decide it.  If X.D.Y^T = n*I, X is square, so D.Y^T = n*X^-1, hence
    Y^T.X = n*D^-1, and its transpose X^T.Y = n*D^-1 is the column relation
    sum_i X[i][k]*X[i][inv l] = delta_kl*n/|C_k|.  A column check compares
    that sum with the integer n // |C_k|, and the two agree exactly when
    |C_k| divides n, which is checked too.  Conversely, rows (i <= j) and
    columns (k <= l) that both pass, with n >= 1, force inv to be such an
    involution and every |C_k| to divide n, so this verdict is the one that
    checking both would give.
    """
    if not _exact_table_checks(table):
        return False
    r = table.count
    n = table.order
    g = _gram(table, (Cyclotomic.rational(1, table.conductor),) * r)
    return g == [[n if i == j else 0 for j in range(r)] for i in range(r)]


def _exact_table_checks(table: CharacterTable) -> bool:
    """The checks both orthogonality verdicts make outside the row sums:
    inv is an involution preserving class sizes, every size divides |G|,
    sum d^2 = |G| and X[i][0] = d_i."""
    r = table.count
    n = table.order
    sizes = table.class_sizes
    inv = table.inverse_class
    if any(inv[inv[k]] != k or sizes[inv[k]] != sizes[k] for k in range(r)):
        return False
    if any(n % s for s in sizes) or sum(d * d for d in table.dims) != n:
        return False
    return all(table.values[i][0].try_rational() == table.dims[i] for i in range(r))


def _gram(table: CharacterTable, chi) -> list[list[Cyclotomic]]:
    """(X o chi).D.Y^T over lcm(e, conductors of chi): entry (i, j) is
    sum_k |C_k| chi(C_k) X[i][k] X[j][inv k] = |G| <chi gamma_i, gamma_j>.
    `modp.gram` is the same form over F_p."""
    target = lcm(table.conductor, *(v.conductor for v in chi))
    chi_p = [v.promote(target) for v in chi]
    rows = [[v.promote(target) for v in row] for row in table.values]
    weighted = [
        [s * (c * v) for s, c, v in zip(table.class_sizes, chi_p, row)] for row in rows
    ]
    flipped = [[row[k] for k in table.inverse_class] for row in rows]
    return [[dot(u, f) for f in flipped] for u in weighted]


def natural_character(table: CharacterTable) -> tuple[Cyclotomic, ...]:
    """Traces of the table's class representatives: the defining character."""
    if table.class_reps is None:
        raise ValueError("table has no class representatives; pass chi")
    return tuple(m.trace() for m in table.class_reps)


def _check_class_function(table: CharacterTable, chi) -> None:
    """Raise ValueError unless chi has one value per class of the table."""
    if len(chi) != table.count:
        raise ValueError(f"chi has {len(chi)} values, the table {table.count} classes")


def decompose_product(table: CharacterTable, chi) -> list[list[int]]:
    """Multiplicity matrix m[i][j] = <chi * gamma_i, gamma_j>.

    chi is a class function, one value per class of the table; it may live
    at a different conductor, in which case everything is promoted to the
    lcm.  m is `_gram(table, chi)` / |G|, each entry checked to be a
    nonnegative integer.
    """
    _check_class_function(table, chi)
    out: list[list[int]] = []
    for i, totals in enumerate(_gram(table, chi)):
        line = []
        for j, total in enumerate(totals):
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
