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


def test_is_prime_matches_the_definition():
    for n in range(-1, 3000):
        assert modp.is_prime(n) == (n >= 2 and all(n % d for d in range(2, n))), n


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


# n | q - 1 but q is composite.  g = 2 shares the factor 3 with 9, and
# z = 2^2 = 4 has z^2 != 1 but z^4 = 4 mod 9, so only the test z^n = 1
# refuses it; 561 is a Carmichael number, whose every unit g has g^280 = 1
@pytest.mark.parametrize("q, n", [(9, 4), (25, 4), (561, 560)])
def test_root_of_unity_rejects_a_composite_modulus(q, n):
    with pytest.raises(ValueError, match=r"\(q not prime\?\)$"):
        modp.root_of_unity(q, n)


_PRIMES = st.sampled_from([2, 7, 61, 10009])


def _with_zero_row(draw, rows, width, entry):
    """rows random rows of the given width, one of them all zeros."""
    out = [[draw(entry) for _ in range(width)] for _ in range(rows)]
    out.insert(draw(st.integers(0, rows)), [0] * width)
    return out


@st.composite
def _products(draw, square=False):
    p = draw(_PRIMES)
    n, m, k = draw(st.integers(0, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-3 * p, 3 * p))
    a = _with_zero_row(draw, n, m - 1, entry)
    a = [row + [draw(entry)] for row in a]  # a is (n+1) x m
    b = _with_zero_row(draw, m - 1, m if square else k, entry)  # b is m x k, or m x m
    return a, b, p


@given(_products())
@settings(max_examples=80, deadline=None)
def test_matmul_matches_the_triple_loop(case):
    a, b, p = case
    naive = [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) % p for j in range(len(b[0]))]
        for i in range(len(a))
    ]
    assert modp.matmul(a, b, p) == naive


@given(_products(square=True))
@settings(max_examples=80, deadline=None)
def test_sparse_matmul_matches_the_dense_product(case):
    a, b, p = case
    rows = [[(j, v) for j, v in enumerate(row) if v] for row in b]
    assert modp.sparse_matmul(a, rows, p) == modp.matmul(a, b, p)


@given(
    _PRIMES.flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.lists(st.integers(0, p - 1), max_size=8),
            st.integers(0, p - 1),
        )
    )
)
@settings(max_examples=80, deadline=None)
def test_horner_divides_by_the_linear_factor(case):
    p, poly, x = case
    value, q = modp.horner(poly, x, p)
    # q*(t - x) + value, coefficients ascending
    rebuilt = [(-x * c) % p for c in q] + [0]
    for i, c in enumerate(q):
        rebuilt[i + 1] = (rebuilt[i + 1] + c) % p
    rebuilt[0] = (rebuilt[0] + value) % p
    assert rebuilt[: len(poly)] == poly and not any(rebuilt[len(poly) :])
    assert value == sum(c * x**i for i, c in enumerate(poly)) % p


@st.composite
def _class_functions(draw):
    """Residue rows, a weight and class data whose inverse map is an
    involution preserving the class sizes.  2^61 - 1 makes the packed
    slots of `gram` wider than 64 bits."""
    p = draw(st.sampled_from([2, 7, 61, 10009, 2**61 - 1]))
    r = draw(st.integers(1, 6))
    order = draw(st.permutations(range(r)))
    inv = list(range(r))
    pos = 0
    while pos + 1 < r:
        if draw(st.booleans()):
            u, v = order[pos], order[pos + 1]
            inv[u], inv[v] = v, u
            pos += 2
        else:
            pos += 1
    sizes = [0] * r
    for k in range(r):
        if k <= inv[k]:
            sizes[k] = sizes[inv[k]] = draw(st.integers(1, 50))
    residue = st.integers(0, p - 1)
    x = _with_zero_row(draw, draw(st.integers(0, 4)), r, residue)
    w = [draw(residue) for _ in range(r)]
    return x, w, sizes, inv, p


@given(_class_functions())
@settings(max_examples=80, deadline=None)
def test_gram_matches_the_triple_loop(case):
    x, w, sizes, inv, p = case
    r = len(sizes)
    assert all(inv[inv[k]] == k and sizes[inv[k]] == sizes[k] for k in range(r))
    naive = [
        [sum(sizes[k] * w[k] * xi[k] * xj[inv[k]] for k in range(r)) % p for xj in x]
        for xi in x
    ]
    assert modp.gram(x, w, sizes, inv, p) == naive
    # with weight 1 the form is symmetric, as inv is a size-preserving involution
    g = modp.gram(x, [1] * r, sizes, inv, p)
    assert g == [list(col) for col in zip(*g)]
