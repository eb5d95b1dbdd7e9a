"""Prime-field helpers and the exact characteristic polynomial built on them."""

from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay3 import modp
from mckay3.mckay import char_poly


def _faddeev_leverrier(mat):
    """Reference: det(xI - mat) over the integers, coefficients descending."""
    n = len(mat)
    work = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # M_0 = I
    coeffs = [1]
    for k in range(1, n + 1):
        prod = [
            [sum(mat[i][t] * work[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        tr = sum(prod[i][i] for i in range(n))
        q, rem = divmod(-tr, k)
        assert rem == 0, "Faddeev-LeVerrier division must be exact"
        coeffs.append(q)
        work = [
            [prod[i][j] + (q if i == j else 0) for j in range(n)] for i in range(n)
        ]
    return tuple(coeffs)


@st.composite
def _int_matrices(draw, max_dim=10, bound=10**6):
    n = draw(st.integers(0, max_dim))
    entry = st.integers(-bound, bound)
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@given(_int_matrices())
@settings(max_examples=60, deadline=None)
def test_char_poly_matches_faddeev_leverrier(mat):
    assert char_poly(mat) == _faddeev_leverrier(mat)


def test_large_entries_take_several_crt_primes(monkeypatch):
    primes = []
    charpoly = modp.charpoly

    def spy(mat, p):
        primes.append(p)
        return charpoly(mat, p)

    monkeypatch.setattr(modp, "charpoly", spy)
    mat = [[10**6, -(10**6), 3], [10**6, 10**6, -7], [-5, 2, -(10**6)]]
    poly = char_poly(mat)
    assert poly == _faddeev_leverrier(mat)
    assert any(c < 0 for c in poly)
    assert len(primes) >= 3
    assert primes[0] > modp.CRT_START
    assert primes == sorted(set(primes))


def _old_dixon_prime(e, order):
    p = e + 1
    while not (modp.is_prime(p) and p * p > 4 * order):
        p += e
    return p


def _old_fingerprint_primes(conductor, count=8):
    out, q = [], 10007
    for _ in range(count):
        while not (modp.is_prime(q) and (q - 1) % conductor == 0):
            q += 1
        out.append(q)
        q += 1
    return out


def test_prime_one_mod_gives_the_dixon_prime():
    assert modp.prime_one_mod(60, isqrt(4 * 60)) == 61
    for e in range(1, 40):
        for order in (1, 2, 60, 168, 1080, 10**5):
            assert modp.prime_one_mod(e, isqrt(4 * order)) == _old_dixon_prime(e, order)


def test_prime_one_mod_gives_the_fingerprint_primes():
    for conductor in (1, 3, 12, 60, 84):
        q, got = 10006, []
        for _ in range(8):
            q = modp.prime_one_mod(conductor, q)
            got.append(q)
        assert got == _old_fingerprint_primes(conductor)
    assert modp.prime_one_mod(12, 10006) == 10009


@pytest.mark.parametrize("q", [7, 13, 61, 10009, 1048609])
def test_root_of_unity_has_exact_order(q):
    for n in range(1, 121):
        if (q - 1) % n:
            with pytest.raises(ValueError):
                modp.root_of_unity(q, n)
            continue
        z = modp.root_of_unity(q, n)
        assert pow(z, n, q) == 1
        assert all(pow(z, n // f, q) != 1 for f in modp.prime_factors(n))
