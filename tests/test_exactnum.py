"""Exact cyclotomic arithmetic: frozen identities plus algebraic laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay3.exactnum import (
    ConductorMismatch,
    Cyclotomic,
    UnsupportedRadicand,
    common_conductor,
    cyclotomic_polynomial,
    dot,
    root,
    root_sum,
    sqrt_constant,
    totient,
)


def test_roots_of_unity_basics():
    assert root(0, 12) == 1
    assert root(12, 12) == 1
    assert root(2, 4) == -1
    assert root(1, 4) ** 2 == -1
    assert root(5, 3) == root(2, 3)


def test_primitive_root_sums():
    # sum over a full orbit of a primitive N-th root is the Mobius value,
    # spot-checked for a prime and a prime power
    assert sum((root(k, 5) for k in range(1, 5)), Cyclotomic.rational(0, 5)) == -1
    assert sum((root(k, 9) for k in range(9) if k % 3), Cyclotomic.rational(0, 9)) == 0


def test_zeta3_identity():
    z = root(1, 3)
    assert z * z == root(2, 3)
    assert z + z**2 == -1
    assert z**3 == 1


@pytest.mark.parametrize("d", [2, 5, -3, -7])
def test_sqrt_constant_squares_back(d):
    s = sqrt_constant(d)
    assert s * s == d


def test_sqrt_constant_unknown_radicand():
    with pytest.raises(UnsupportedRadicand):
        sqrt_constant(6)


def test_rational_round_trip():
    v = Cyclotomic.rational(Fraction(-7, 3), 12)
    assert v.try_rational() == Fraction(-7, 3)
    assert v == Fraction(-7, 3)
    assert root(1, 5).try_rational() is None


def test_fraction_coefficients_are_normalized():
    a = Cyclotomic(4, [Fraction(1, 2), Fraction(3, 2)])
    b = (Cyclotomic.rational(1, 4) + 3 * root(1, 4)) / 2
    assert a == b
    assert a.coefficients == (Fraction(1, 2), Fraction(3, 2))


def test_constructor_reduces_long_vectors():
    # a vector touching zeta^2 and zeta^3 at conductor 4 must fold back
    v = Cyclotomic(4, [0, 0, 1])  # zeta_4^2 = -1
    assert v == -1
    with pytest.raises(ValueError):
        Cyclotomic(4, [1] * 9)


def test_conductor_mismatch_raises():
    with pytest.raises(ConductorMismatch):
        root(1, 3) + root(1, 4)
    with pytest.raises(ConductorMismatch):
        root(1, 3) == root(1, 4)  # noqa: B015 - the comparison is the test


def test_eq_against_foreign_types():
    assert (root(1, 3) == "zeta") is False
    assert root(0, 3) == 1
    assert Cyclotomic.rational(Fraction(1, 2), 8) == Fraction(1, 2)


def test_promote_is_injective_on_values():
    a = root(1, 3).promote(12)
    b = root(4, 12)
    assert a == b
    assert a.conductor == 12
    with pytest.raises(ValueError):
        root(1, 3).promote(8)  # 3 does not divide 8


def test_common_conductor():
    a, b = common_conductor(root(1, 3), root(1, 4))
    assert a.conductor == b.conductor == 12
    assert a == root(4, 12)
    assert b == root(3, 12)


@st.composite
def _dot_operands(draw):
    n = draw(st.sampled_from([1, 3, 4, 5, 8, 12]))
    length = draw(st.integers(1, 8))
    # small coefficients with zeros, so zero terms and zero vectors occur
    value = st.builds(
        lambda coeffs, den: Cyclotomic(n, coeffs, den),
        st.lists(st.integers(-3, 3) | st.just(0), min_size=totient(n), max_size=totient(n)),
        st.integers(1, 6),
    )
    xs = draw(st.lists(value, min_size=length, max_size=length))
    ys = draw(st.lists(value, min_size=length, max_size=length))
    return n, xs, ys


@given(_dot_operands())
@settings(max_examples=200, deadline=None)
def test_dot_matches_termwise(operands):
    n, xs, ys = operands
    total = Cyclotomic.rational(0, n)
    for x, y in zip(xs, ys):
        total = total + x * y
    assert dot(xs, ys) == total


@st.composite
def _root_sum_terms(draw):
    n = draw(st.sampled_from([1, 3, 4, 5, 8, 12, 60]))
    # exponents past both ends of 0..N-1, so the reduction mod N is exercised
    term = st.tuples(st.integers(-2 * n, 2 * n), st.integers(-3, 3) | st.just(0))
    return n, draw(st.lists(term, max_size=8)), draw(st.integers(1, 6))


@given(_root_sum_terms())
@settings(max_examples=200, deadline=None)
def test_root_sum_matches_termwise(case):
    n, terms, den = case
    total = Cyclotomic.rational(0, n)
    for k, c in terms:
        total = total + c * root(k, n)
    assert root_sum(n, terms, den) == total / den


@pytest.mark.parametrize("n", [3, 8])
def test_rational_values_hash_like_their_rationals(n):
    for q in (1, -2, Fraction(1, 3), Fraction(-5, 2)):
        v = Cyclotomic.rational(q, n)
        assert v == q
        assert hash(v) == hash(q)
        assert q in {v}
        assert v in {q}


def test_dot_rejects_mixed_conductors():
    with pytest.raises(ConductorMismatch):
        dot([root(1, 3)], [root(1, 4)])


def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    z = root(1, 12)
    acc = Cyclotomic.rational(0, 12)
    for k, c in enumerate(cyclotomic_polynomial(12)):
        acc = acc + c * z**k
    assert acc.is_zero()


def test_conjugate_and_galois():
    z = root(1, 7)
    assert z.conjugate() == root(6, 7)
    assert z.galois(3) == root(3, 7)
    v = 2 * z + root(4, 7) / 3
    assert v.conjugate().conjugate() == v


def test_inverse_of_root_combination():
    v = 1 + root(1, 5)
    assert v * v.inv() == 1
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.rational(0, 5).inv()


def test_encode_is_canonical():
    a = root(2, 6)
    b = root(1, 3).promote(6)
    assert a.encode() == b.encode()
    assert root(1, 6).encode() != root(5, 6).encode()


# ---------------------------------------------------------------------------
# algebraic laws


def _values(conductor):
    width = totient(conductor)
    return st.builds(
        lambda cs, d: Cyclotomic(conductor, cs, d),
        st.lists(st.integers(-6, 6), min_size=width, max_size=width),
        st.integers(min_value=1, max_value=4),
    )


@given(_values(12), _values(12), _values(12))
def test_ring_laws_conductor_12(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(_values(5))
def test_field_inverse_conductor_5(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inv()
    else:
        assert a * a.inv() == 1


@given(_values(8), _values(8))
def test_conjugation_is_a_ring_map(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(_values(9), _values(9), st.sampled_from([1, 2, 4, 5, 7, 8]))
def test_galois_is_a_ring_map(a, b, t):
    assert (a * b).galois(t) == a.galois(t) * b.galois(t)
    assert (a + b).galois(t) == a.galois(t) + b.galois(t)


@given(_values(6), _values(6))
@settings(max_examples=50)
def test_promotion_commutes_with_arithmetic(a, b):
    assert (a + b).promote(12) == a.promote(12) + b.promote(12)
    assert (a * b).promote(12) == a.promote(12) * b.promote(12)


@given(st.fractions(min_value=-10, max_value=10), st.sampled_from([1, 3, 4, 10]))
def test_rational_embedding_round_trips(q, n):
    assert Cyclotomic.rational(q, n).try_rational() == q
