"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is stored as an integer coefficient vector against the power basis
1, z, ..., z^(phi(N)-1) of Q(zeta_N), where z = exp(2*pi*i/N), together with a
single positive denominator.  The vector is always reduced modulo the N-th
cyclotomic polynomial and the gcd of all numerators and the denominator is 1,
so every field element has exactly one representation.  That canonical form is
what makes equality, hashing and the byte keys used elsewhere deterministic.

Arithmetic between two Cyclotomic values requires equal conductors; mixing
conductors raises ConductorMismatch rather than promoting silently.  Plain
ints and Fractions coerce freely.  Use promote() to move a value into a larger
field Q(zeta_N2) with N | N2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .modp import prime_factors, root_of_unity


class ConductorMismatch(ValueError):
    """Two operands live in different cyclotomic fields."""


class NotAMultiple(ValueError):
    """promote() target conductor is not a multiple of the current one."""


class UnsupportedRadicand(ValueError):
    """sqrt_constant() only knows a fixed dictionary of radicands."""


class DivisionByZero(ZeroDivisionError):
    """Exact division by the zero value."""


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    for p in prime_factors(n):  # phi(n) = n * prod (1 - 1/p); p divides each n
        n = n // p * (p - 1)
    return n


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending, monic, length phi(n)+1.

    Phi_n is the product of (x^(n/d) - 1)^mu(d) over the squarefree d | n:
    each factor with mu(d) = 1 multiplies in, then each with mu(d) = -1
    divides out exactly, one O(n) pass per factor.
    """
    times, over = [1], []  # the squarefree d | n with mu(d) = 1, and -1
    for p in prime_factors(n):
        times, over = times + [d * p for d in over], over + [d * p for d in times]
    poly = [1]
    for d in times:  # poly * (x^k - 1)
        k = n // d
        poly = [0] * k + poly
        for i in range(len(poly) - k):
            poly[i] -= poly[i + k]
    for d in over:  # poly / (x^k - 1): q_i = q_(i-k) - p_i
        k = n // d
        poly = [-c for c in poly[: len(poly) - k]]
        for i in range(k, len(poly)):
            poly[i] += poly[i - k]
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Row k is the coefficient vector of x^k reduced mod Phi_n.

    Covers k up to max(n-1, 2*phi-2).  Rows 0..n-1 are every power of x, since
    x^n = 1 mod Phi_n; only `_fold` reads rows past n-1, for the high half
    of a product of reduced values.
    """
    phi = totient(n)
    top = list(cyclotomic_polynomial(n)[:phi])  # x^phi = -(these)
    rows: list[tuple[int, ...]] = []
    for k in range(phi):
        row = [0] * phi
        row[k] = 1
        rows.append(tuple(row))
    limit = max(n - 1, 2 * phi - 2)
    for _ in range(phi, limit + 1):
        prev = rows[-1]
        # multiply by x: shift, then fold the overflow back with -Phi tail
        carry = prev[phi - 1]
        row = [0] + list(prev[: phi - 1])
        if carry:
            for i in range(phi):
                row[i] -= carry * top[i]
        rows.append(tuple(row))
    return tuple(rows)


def _normalize(conductor: int, num: list[int], den: int) -> "Cyclotomic":
    if den == 0:
        raise DivisionByZero("zero denominator")
    if den < 0:
        den = -den
        num = [-c for c in num]
    g = gcd(den, *num)
    if g > 1:
        den //= g
        num = [c // g for c in num]
    value = object.__new__(Cyclotomic)
    value.conductor = conductor
    value._num = tuple(num)
    value._den = den
    return value


def root_sum(conductor: int, terms, den: int = 1) -> "Cyclotomic":
    """sum(c * zeta_N^k for k, c in terms) / den, with N the conductor.

    The rows of x^k are folded into one integer vector, normalized once.  Any
    integer k is valid, because x^N = 1 mod Phi_N.
    """
    table = _reduction_table(conductor)
    out = [0] * totient(conductor)
    for k, c in terms:
        if c:
            out = [a + c * b for a, b in zip(out, table[k % conductor])]
    return _normalize(conductor, out, den)


def residues(values, n: int, p: int) -> list[int]:
    """Images in F_p of cyclotomic integers, with zeta_n sent to z.

    z = `root_of_unity(p, n)`, so n | p - 1 and p does not divide n; then z
    is a root of Phi_n mod p, and zeta_n -> z is a ring map Z[zeta_n] -> F_p
    that reduces the rational integers mod p.  A value of conductor c | n is
    read in Q(zeta_n) through zeta_c = zeta_n^(n/c).  Each value must be an
    algebraic integer, which in canonical form means denominator 1 (the
    power basis is an integral basis of Z[zeta_c]); any other value raises
    ValueError.

    Each distinct value object is mapped once per call, so a table whose
    equal values share one object (every table constructor's) costs its
    distinct values plus C-level lookups.  The memo is keyed by id(v), and
    `values` is first copied into a list that holds every v until the call
    returns, so no id can pass to another object meanwhile, even when the
    iterable creates its values as temporaries.
    """
    z_pows = [1] * n
    z = root_of_unity(p, n)
    for k in range(1, n):
        z_pows[k] = z_pows[k - 1] * z % p
    values = list(values)
    image = dict(zip(map(id, values), values))
    for key, v in image.items():
        if v._den != 1:
            raise ValueError(f"{v} is not an algebraic integer")
        if n % v.conductor:
            raise NotAMultiple(f"{n} is not a multiple of {v.conductor}")
        step = n // v.conductor
        image[key] = sum(c * z_pows[k * step] for k, c in enumerate(v._num) if c) % p
    return list(map(image.__getitem__, map(id, values)))


class Cyclotomic:
    """An element of Q(zeta_N) in canonical reduced form."""

    __slots__ = ("conductor", "_num", "_den")

    conductor: int
    _num: tuple[int, ...]
    _den: int

    def __init__(self, conductor: int, coeffs, den: int = 1):
        if conductor < 1:
            raise ValueError("conductor must be positive")
        fracs = [Fraction(c) for c in coeffs]
        if len(fracs) > max(conductor, 2 * totient(conductor) - 1):
            raise ValueError("coefficient vector too long")
        scale = lcm(*(f.denominator for f in fracs))
        terms = ((k, int(f * scale)) for k, f in enumerate(fracs))
        value = root_sum(conductor, terms, den * scale)
        self.conductor = conductor
        self._num = value._num
        self._den = value._den

    # -- constructors ---------------------------------------------------

    @staticmethod
    def rational(x, conductor: int = 1) -> "Cyclotomic":
        f = Fraction(x)
        phi = totient(conductor)
        num = [0] * phi
        num[0] = f.numerator
        return _normalize(conductor, num, f.denominator)

    # -- canonical data --------------------------------------------------

    def terms(self) -> list[tuple[int, int | Fraction]]:
        """(k, c) for each nonzero coefficient c of zeta^k, c an int when
        the denominator is 1 and a Fraction otherwise."""
        if self._den == 1:
            return [(k, c) for k, c in enumerate(self._num) if c]
        return [(k, Fraction(c, self._den)) for k, c in enumerate(self._num) if c]

    def encode(self) -> bytes:
        """Deterministic byte key; equal values give equal keys."""
        body = ",".join(map(str, self._num))
        return f"{self.conductor};{self._den};{body}".encode()

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._num)

    def __bool__(self) -> bool:
        return any(self._num)

    def try_rational(self) -> Fraction | None:
        """The value as a Fraction if it is rational, else None."""
        if any(self._num[1:]):
            return None
        return Fraction(self._num[0], self._den)

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other) -> "Cyclotomic | None":
        if isinstance(other, Cyclotomic):
            if other.conductor != self.conductor:
                raise ConductorMismatch(
                    f"conductor {other.conductor} vs {self.conductor}; promote first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.rational(other, self.conductor)
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self._den, o._den
        g = gcd(da, db)
        ma, mb = db // g, da // g
        num = [a * ma + b * mb for a, b in zip(self._num, o._num)]
        return _normalize(self.conductor, num, da * ma)

    __radd__ = __add__

    def __neg__(self):
        return _normalize(self.conductor, [-c for c in self._num], self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = _mul_vectors(self.conductor, self._num, o._num)
        return _normalize(self.conductor, num, self._den * o._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        result = Cyclotomic.rational(1, self.conductor)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inv(self) -> "Cyclotomic":
        """Multiplicative inverse, rest / (x * rest) with rest the product of
        the other Galois conjugates: x * rest is the norm of x, a product
        over the whole Galois group, so it is a nonzero rational."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        r = self.try_rational()
        if r is not None:
            return Cyclotomic.rational(1 / r, self.conductor)
        n = self.conductor
        rest = Cyclotomic.rational(1, n)
        for t in range(2, n):
            if gcd(t, n) == 1:
                rest = rest * self.galois(t)
        return rest * (1 / (self * rest).try_rational())

    # -- field structure -----------------------------------------------------

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, the Galois map zeta -> zeta^(-1)."""
        return self.galois(-1)

    def galois(self, t: int) -> "Cyclotomic":
        """The Galois map zeta -> zeta^t for t coprime to the conductor."""
        n = self.conductor
        if gcd(t, n) != 1:
            raise ValueError("galois exponent must be coprime to the conductor")
        return root_sum(n, ((k * t, c) for k, c in enumerate(self._num)), self._den)

    def promote(self, conductor: int) -> "Cyclotomic":
        """The same value viewed in Q(zeta_M) for a multiple M of N."""
        n = self.conductor
        if conductor % n != 0:
            raise NotAMultiple(f"{conductor} is not a multiple of {n}")
        if conductor == n:
            return self
        step = conductor // n
        terms = ((step * k, c) for k, c in enumerate(self._num))
        return root_sum(conductor, terms, self._den)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        terms: list[tuple[str, str]] = []
        for k, q in self.terms():
            mag = abs(q)
            if k == 0:
                body = str(mag)
            else:
                power = "z" if k == 1 else f"z^{k}"
                body = power if mag == 1 else f"{mag}*{power}"
            sign = "-" if q < 0 else "+"
            terms.append((sign, body))
        if not terms:
            return "0"
        first_sign, first_body = terms[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            text += f" {sign} {body}"
        if any(self._num[1:]):
            text += f" (z = zeta_{self.conductor})"
        return text

    def __repr__(self) -> str:
        return f"<Cyclotomic {self}>"

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._num == o._num and self._den == o._den

    def __hash__(self) -> int:
        # a rational value equals its int or Fraction, so it hashes like one
        r = self.try_rational()
        if r is not None:
            return hash(r)
        return hash((self.conductor, self._num, self._den))


def _mul_vectors(conductor: int, a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Schoolbook product of two reduced vectors, folded back mod Phi_N."""
    conv = [0] * (2 * totient(conductor) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    conv[i + j] += ca * cb
    return _fold(conductor, conv)


def _fold(conductor: int, conv: list[int]) -> list[int]:
    """A vector of length 2 phi - 1 reduced mod Phi_N to length phi."""
    phi = totient(conductor)
    table = _reduction_table(conductor)
    out = conv[:phi]
    for k in range(phi, 2 * phi - 1):
        c = conv[k]
        if c:
            out = [o + c * t for o, t in zip(out, table[k])]
    return out


def root(k: int, conductor: int) -> Cyclotomic:
    """The root of unity zeta_N^k, with k reduced mod N."""
    if conductor < 1:
        raise ValueError("conductor must be positive")
    k %= conductor
    row = _reduction_table(conductor)[k]
    return _normalize(conductor, list(row), 1)


_SQRT_TABLE = {
    2: lambda: root(1, 8) + root(7, 8),
    5: lambda: 1 + 2 * (root(1, 5) + root(4, 5)),
    -3: lambda: 1 + 2 * root(1, 3),
    -7: lambda: 1 + 2 * (root(1, 7) + root(2, 7) + root(4, 7)),
}


def sqrt_constant(d: int) -> Cyclotomic:
    """A fixed square root of d for the handful of radicands the generator
    catalog needs (2, 5, -3, -7), at the smallest conductor containing it."""
    try:
        build = _SQRT_TABLE[d]
    except KeyError:
        raise UnsupportedRadicand(f"no tabulated square root for {d}") from None
    return build()


def common_conductor(*values: Cyclotomic) -> tuple[Cyclotomic, ...]:
    """Promote all values to the lcm of their conductors."""
    target = lcm(*(v.conductor for v in values))
    return tuple(v.promote(target) for v in values)


def dot(xs, ys) -> Cyclotomic:
    """Exact inner product sum(x*y), for `SquareMatrix.__mul__` and the
    exact reference routes.

    Every nonzero term is scaled once to den, the lcm of the term
    denominators, and convolved into one vector, which is folded mod Phi_N
    and normalized once at the end.  A zero term may add a factor to den;
    the normalization divides it out.
    """
    pairs = list(zip(xs, ys))
    conductor = pairs[0][0].conductor
    den = lcm(*[x._den * y._den for x, y in pairs])
    conv = [0] * (2 * totient(conductor) - 1)
    for x, y in pairs:
        if x.conductor != conductor or y.conductor != conductor:
            raise ConductorMismatch("dot() operands must share one conductor")
        a, b = x._num, y._num
        if any(a) and any(b):
            scale = den // (x._den * y._den)
            nonzero = [(j, cb * scale) for j, cb in enumerate(b) if cb]
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in nonzero:
                        conv[i + j] += ca * cb
    return _normalize(conductor, _fold(conductor, conv), den)
