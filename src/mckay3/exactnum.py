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
from math import gcd


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
    count = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            count += 1
    return count


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, coefficients ascending.
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        q, r = divmod(num[shift + len(den) - 1], den[-1])
        assert r == 0
        out[shift] = q
        for i, c in enumerate(den):
            num[shift + i] -= q * c
    assert not any(num)
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending, monic, length phi(n)+1."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Row k is the coefficient vector of x^k reduced mod Phi_n.

    Covers k up to max(n-1, 2*phi-2).  Rows 0..n-1 are every power of x, since
    x^n = 1 mod Phi_n; only `_mul_vectors` reads rows past n-1, for the high
    half of a product of two reduced values.
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
    g = den
    for c in num:
        if c:
            g = gcd(g, c)
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


class Cyclotomic:
    """An element of Q(zeta_N) in canonical reduced form."""

    __slots__ = ("conductor", "_num", "_den")

    conductor: int
    _num: tuple[int, ...]
    _den: int

    def __init__(self, conductor: int, coeffs, den: int = 1):
        if conductor < 1:
            raise ValueError("conductor must be positive")
        scaled: list[int] = []
        common = den
        for c in coeffs:
            f = Fraction(c)
            scaled.append(f)
        lcm_den = 1
        for f in scaled:
            lcm_den = lcm_den * f.denominator // gcd(lcm_den, f.denominator)
        ints = [int(f * lcm_den) for f in scaled]
        if len(ints) > max(conductor, 2 * totient(conductor) - 1):
            raise ValueError("coefficient vector too long")
        value = root_sum(conductor, enumerate(ints), common * lcm_den)
        self.conductor = value.conductor
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

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._num)

    def encode(self) -> bytes:
        """Deterministic byte key; equal values give equal keys."""
        body = ",".join(str(c) for c in self._num)
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
        """Multiplicative inverse via the extended Euclidean algorithm
        against Phi_N over Q[x]."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        r = self.try_rational()
        if r is not None:
            return Cyclotomic.rational(1 / r, self.conductor)
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        a = [Fraction(c, self._den) for c in self._num]
        u = _poly_modinv(a, phi_poly)
        phi = totient(self.conductor)
        u = u + [Fraction(0)] * (phi - len(u))
        lcm_den = 1
        for f in u:
            lcm_den = lcm_den * f.denominator // gcd(lcm_den, f.denominator)
        num = [int(f * lcm_den) for f in u]
        return _normalize(self.conductor, num, lcm_den)

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
        for k, c in enumerate(self._num):
            if not c:
                continue
            q = Fraction(c, self._den)
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
        if isinstance(other, Cyclotomic) and other.conductor != self.conductor:
            raise ConductorMismatch(
                f"conductor {other.conductor} vs {self.conductor}; promote first"
            )
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
    phi = totient(conductor)
    conv = [0] * (2 * phi - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    conv[i + j] += ca * cb
    table = _reduction_table(conductor)
    out = conv[:phi]
    for k in range(phi, 2 * phi - 1):
        c = conv[k]
        if c:
            row = table[k]
            for i in range(phi):
                out[i] += c * row[i]
    return out


def _poly_modinv(a: list[Fraction], modulus: list[Fraction]) -> list[Fraction]:
    """Inverse of a modulo a monic polynomial over Q, both ascending."""

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def divmod_poly(num, den):
        num = list(num)
        q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
        for shift in range(len(q) - 1, -1, -1):
            c = num[shift + len(den) - 1] / den[-1]
            q[shift] = c
            if c:
                for i, d in enumerate(den):
                    num[shift + i] -= c * d
        return q, trim(num)

    r0, r1 = list(modulus), trim(list(a))
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while len(r1) > 1:
        q, r = divmod_poly(r0, r1)
        # s_new = s0 - q*s1
        prod = [Fraction(0)] * (len(q) + len(s1) - 1)
        for i, qc in enumerate(q):
            if qc:
                for j, sc in enumerate(s1):
                    prod[i + j] += qc * sc
        s_new = [Fraction(0)] * max(len(s0), len(prod))
        for i, c in enumerate(s0):
            s_new[i] += c
        for i, c in enumerate(prod):
            s_new[i] -= c
        r0, r1 = r1, trim(r)
        s0, s1 = s1, trim(s_new)
    if not r1 or r1[0] == 0:
        raise DivisionByZero("value is a zero divisor mod Phi_N (should not happen)")
    scale = r1[0]
    return [c / scale for c in s1]


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
    target = 1
    for v in values:
        target = target * v.conductor // gcd(target, v.conductor)
    return tuple(v.promote(target) for v in values)


def dot(xs, ys) -> Cyclotomic:
    """Fused exact inner product sum(x*y); the hot path of matrix products.

    Accumulates raw integer vectors over a running common denominator and
    normalizes once at the end, which avoids a gcd pass per term.
    """
    xs = list(xs)
    ys = list(ys)
    conductor = xs[0].conductor
    acc: list[int] | None = None
    acc_den = 1
    for x, y in zip(xs, ys):
        if x.conductor != conductor or y.conductor != conductor:
            raise ConductorMismatch("dot() operands must share one conductor")
        if x.is_zero() or y.is_zero():
            continue
        vec = _mul_vectors(conductor, x._num, y._num)
        den = x._den * y._den
        if acc is None:
            acc, acc_den = vec, den
        else:
            g = gcd(acc_den, den)
            ma, mb = den // g, acc_den // g
            acc = [a * ma + b * mb for a, b in zip(acc, vec)]
            acc_den = acc_den * ma
    if acc is None:
        return Cyclotomic.rational(0, conductor)
    return _normalize(conductor, acc, acc_den)
