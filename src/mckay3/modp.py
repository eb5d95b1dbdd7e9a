"""Arithmetic over prime fields F_p, and exact results recovered from it.

Every mod-p step of the package lives here: primes, roots of unity, row
reduction, matrix products, the Gram matrix of class functions, and the
Hessenberg characteristic polynomial, which `integer_charpoly` lifts to the
integers by CRT under a proven bound, one `garner` step per prime.
"""
from __future__ import annotations

from math import isqrt, prod
from operator import mul

# CRT primes are the primes above this; a product of two residues fits a word
CRT_START = 2**20


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return prime_factors(n) == [n]


def root_of_unity(q: int, n: int) -> int:
    """The first g^((q-1)/n), g = 2, 3, ..., of exact multiplicative order n
    in F_q, q prime; n must divide q - 1.  A unit is required (z^n = 1), so
    a g sharing a factor with a composite q is never returned."""
    if (q - 1) % n != 0:
        raise ValueError(f"F_{q} has no element of order {n}")
    factors = prime_factors(n)
    for g in range(2, q):
        z = pow(g, (q - 1) // n, q)
        if pow(z, n, q) == 1 and all(pow(z, n // f, q) != 1 for f in factors):
            return z
    raise ValueError(f"F_{q} has no element of order {n} (q not prime?)")


def prime_one_mod(n: int, above: int) -> int:
    """The least prime p = 1 (mod n) with p > above."""
    p = above + 1 + (-above) % n  # least p > above with n | p - 1
    while not is_prime(p):
        p += n
    return p


def garner(coeffs: list[int], modulus: int, residues: list[int], p: int) -> tuple:
    """One CRT step, for p prime to modulus and coeffs in [0, modulus): each
    c in [0, modulus*p) with c = coeffs mod modulus and c = residues mod p,
    and the new modulus, modulus*p."""
    inv = pow(modulus, -1, p)
    return [c + modulus * ((r - c) * inv % p) for c, r in zip(coeffs, residues)], modulus * p


def rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p: the nonzero rows and pivot columns."""
    rows = [r[:] for r in rows]
    pivots: list[int] = []
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [c * inv % p for c in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots


def kernel_basis(mat: list[list[int]], p: int) -> list[list[int]]:
    """A basis of the right kernel of a square matrix mod p."""
    n = len(mat)
    rows, pivots = rref(mat, p)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = (-rows[r][f]) % p
        basis.append(vec)
    return basis


def matmul(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    """a.b mod p, each row of a combining the rows of b (b must have a row).
    Zero entries of a are skipped, as row-reduced bases are sparse."""
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for c, b_row in zip(row, b):
            if c:
                acc = [s + c * t for s, t in zip(acc, b_row)]
        out.append([s % p for s in acc])
    return out


def sparse_matmul(a: list[list[int]], b: list[list[tuple]], p: int) -> list[list[int]]:
    """a.b mod p, row k of the square b given by its (column, value) pairs."""
    out = []
    for row in a:
        acc = [0] * len(b)
        for c, b_row in zip(row, b):
            if c:
                for i, v in b_row:
                    acc[i] += c * v
        out.append([s % p for s in acc])
    return out


def gram(
    x: list[list[int]], w: list[int], sizes: tuple[int, ...], inv: tuple[int, ...], p: int
) -> list[list[int]]:
    """G[i][j] = sum_k |C_k| w_k x[i][k] x[j][inv k] mod p, x residue rows.

    With w = 1 this is |G| times the inner products of the rows; with w the
    residues of a character chi, it is |G| <chi x_i, x_j>.

    Packed columns.  With u_i = w o x_i and f_j[k] = |C_k| x_j[inv k], both
    reduced to [0, p), column k of the f_j is packed into one integer
    F_k = sum_j f_j[k] 2^(bj), b the least multiple of 8 with
    2^b > r (p - 1)^2, and row i of the sums is S_i = sum_k u_i[k] F_k:
    r big-int multiply-adds in one C-level `sum`.  No slot carries:
    S_i = sum_j s_ij 2^(bj) with s_ij = sum_k u_i[k] f_j[k], and
    0 <= s_ij <= r (p - 1)^2 < 2^b, so the s_ij are the base-2^b digits of
    S_i, read off its bytes, and G[i][j] = s_ij mod p.
    """
    width = ((len(inv) * (p - 1) ** 2).bit_length() + 7) // 8  # bytes per slot
    flipped = [[s * row[k] % p for s, k in zip(sizes, inv)] for row in x]
    columns = [
        int.from_bytes(b"".join([f.to_bytes(width, "little") for f in col]), "little")
        for col in zip(*flipped)
    ]
    size = width * len(x)
    out = []
    for row in x:
        u = [c * v % p for c, v in zip(w, row)]
        raw = sum(map(mul, u, columns)).to_bytes(size, "little")
        out.append(
            [int.from_bytes(raw[o : o + width], "little") % p for o in range(0, size, width)]
        )
    return out


def horner(poly: list[int], x: int, p: int) -> tuple[int, list[int]]:
    """poly(x) mod p and the quotient q of poly by (t - x), both with
    ascending coefficients: poly = q*(t - x) + poly(x).  Horner's partial
    sums are the coefficients of q, highest first."""
    partial = [0]
    for c in reversed(poly):
        partial.append((partial[-1] * x + c) % p)
    return partial[-1], partial[-2:0:-1]


def charpoly(mat: list[list[int]], p: int) -> list[int]:
    """det(xI - mat) mod p, coefficients ascending, via Hessenberg form."""
    n = len(mat)
    h = [[a % p for a in row] for row in mat]
    for col in range(n - 2):
        pivot = next((r for r in range(col + 1, n) if h[r][col]), None)
        if pivot is None:
            continue
        if pivot != col + 1:
            h[col + 1], h[pivot] = h[pivot], h[col + 1]
            for r in range(n):
                h[r][col + 1], h[r][pivot] = h[r][pivot], h[r][col + 1]
        inv = pow(h[col + 1][col], -1, p)
        for r in range(col + 2, n):
            f = h[r][col] * inv % p
            if f:
                h[r] = [(a - f * b) % p for a, b in zip(h[r], h[col + 1])]
                for rr in range(n):
                    h[rr][col + 1] = (h[rr][col + 1] + f * h[rr][r]) % p
    # charpoly of leading k x k blocks of a Hessenberg matrix
    polys: list[list[int]] = [[1]]
    for k in range(1, n + 1):
        # (x - h[k-1][k-1]) * polys[k-1]
        prev = polys[k - 1]
        cur = [0] + prev
        d = h[k - 1][k - 1]
        cur = [(c - d * pc) % p for c, pc in zip(cur, prev + [0])]
        sub = 1
        for m in range(1, k):
            sub = sub * h[k - m][k - m - 1] % p
            coef = h[k - 1 - m][k - 1] * sub % p
            if coef:
                lower = polys[k - 1 - m]
                for idx, c in enumerate(lower):
                    cur[idx] = (cur[idx] - coef * c) % p
        polys.append(cur)
    return polys[n]


def integer_charpoly(mat) -> list[int]:
    """det(xI - mat) over the integers, coefficients ascending.

    `charpoly` runs modulo the successive primes above CRT_START, and CRT
    combines the residues until the modulus M exceeds 2B, where
    B = prod_i (2 + isqrt(sum_j mat[i][j]^2)); each coefficient is then the
    symmetric residue mod M.

    Proof.  The coefficient c of x^(n-k) is +- the sum of the k x k
    principal minors.  By Hadamard a minor is at most the product of its
    row norms, each at most the full |row_i|, so |c| <= e_k(|row_1|, ...,
    |row_n|) <= prod_i (1 + |row_i|) <= B, as sqrt(s) < isqrt(s) + 1.
    Hence |c| <= B < M/2, and c is the one integer in (-M/2, M/2] that is
    congruent to its residue mod M.
    """
    bound = prod(2 + isqrt(sum(a * a for a in row)) for row in mat)
    coeffs = [0] * (len(mat) + 1)
    modulus, p = 1, CRT_START
    while modulus <= 2 * bound:
        p = prime_one_mod(1, p)
        coeffs, modulus = garner(coeffs, modulus, charpoly(mat, p), p)
    return [c - modulus if 2 * c > modulus else c for c in coeffs]
