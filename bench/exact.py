"""Exact arithmetic for planting and checking answers, independent of symrank.

Matrices are lists of rows of ints. With a prime ``p`` the arithmetic is
mod p; with ``p=None`` it is over Q, with entries that ``Fraction`` accepts
(ints or "a/b" strings). Nothing here imports symrank, so a defect in
``symrank.linalg`` cannot hide itself from the checks built on this file.
"""

from __future__ import annotations

from fractions import Fraction


def _rows(rows, p):
    return [[x % p for x in r] if p else [Fraction(x) for x in r] for r in rows]


def rank(rows, p=None) -> int:
    """Rank of a list of row vectors (any number of rows, equal lengths)."""
    m = _rows(rows, p)
    r = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][col], -1, p) if p else 1 / m[r][col]
        for i in range(r + 1, len(m)):
            f = m[i][col] * inv
            if f:
                m[i] = [(a - f * b) % p if p else a - f * b
                        for a, b in zip(m[i], m[r])]
        r += 1
    return r


def inverse(a, p: int):
    """Inverse of a nonsingular square matrix mod p (Gauss-Jordan)."""
    n = len(a)
    m = [[x % p for x in r] + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col])
        m[col], m[piv] = m[piv], m[col]
        inv = pow(m[col][col], -1, p)
        m[col] = [x * inv % p for x in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[col])]
    return [r[n:] for r in m]


def matmul(a, b, p=None):
    out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    return [[x % p for x in r] for r in out] if p else out


def apply(a, v, p=None):
    return [sum(x * y for x, y in zip(row, v)) % p if p else
            sum(x * y for x, y in zip(row, v)) for row in a]


def combine(coeffs, mats, p=None):
    """Linear combination sum(c_i * M_i)."""
    out = [[0] * len(mats[0][0]) for _ in mats[0]]
    for c, m in zip(coeffs, mats):
        if c:
            out = [[a + c * b for a, b in zip(ro, rm)] for ro, rm in zip(out, m)]
    return [[x % p for x in r] for r in out] if p else out


def witness_gap(mats, basis, p=None) -> int:
    """dim U - dim B(U) for U spanned by `basis` and B spanned by `mats`."""
    images = [apply(m, u, p) for m in mats for u in basis]
    return rank(basis, p) - rank(images, p) if basis else 0
