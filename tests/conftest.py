"""Shared generators for randomized tests.

Everything is seeded; a failing run reproduces exactly.
"""

import random

from symrank import Mat, MatSpace, PrimeField, Subspace


def rand_matrix(rng: random.Random, field, nrows, ncols) -> Mat:
    elems = list(field.elements())
    return Mat(field, [[rng.choice(elems) for _ in range(ncols)]
                       for _ in range(nrows)])


def rand_nonsingular(rng: random.Random, field, n) -> Mat:
    while True:
        m = rand_matrix(rng, field, n, n)
        if m.rank() == n:
            return m


def rank_one(rng: random.Random, field, nrows, ncols) -> Mat:
    """u v^T with u, v nonzero."""
    elems = list(field.elements())
    while True:
        u = [rng.choice(elems) for _ in range(nrows)]
        v = [rng.choice(elems) for _ in range(ncols)]
        if any(not field.is_zero(e) for e in u) and \
           any(not field.is_zero(e) for e in v):
            return Mat(field, [[field.mul(a, b) for b in v] for a in u])


def rank_one_space(rng: random.Random, field, nrows, ncols, m) -> MatSpace:
    """Space spanned by m random rank-1 matrices (dim may come out < m)."""
    gens = [rank_one(rng, field, nrows, ncols) for _ in range(m)]
    return MatSpace.from_spanning(gens, field, nrows, ncols)


def rand_subspace(rng: random.Random, field, n, max_dim=None) -> Subspace:
    if max_dim is None:
        max_dim = n
    d = rng.randint(0, max_dim)
    elems = list(field.elements())
    rows = [[rng.choice(elems) for _ in range(n)] for _ in range(d)]
    return Subspace(field, n, rows)


def upper_triangular(rng: random.Random, field, n, force_diag=False) -> Mat:
    elems = list(field.elements())
    nonzero = [e for e in elems if not field.is_zero(e)]
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rng.choice(elems)
        if force_diag:
            rows[i][i] = rng.choice(nonzero)
    return Mat(field, rows)


GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)
GF7 = PrimeField(7)

# Two dense 4 x 4 generators over GF(2), found by a seeded search, on which
# smr runs out of lambdas: greedy takes B_1 (rank 3) and stops, PO answers
# B_2, and B_1 + B_2 has rank 3, the one nonzero lambda of GF(2).  Over
# GF(8), B_1 + x B_2 has rank 4, which B_2 alone also has over GF(2).
GF2_FALLBACK = [[[1, 0, 0, 1], [1, 0, 0, 0], [1, 0, 1, 0], [1, 0, 1, 1]],
                [[0, 1, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0], [1, 1, 0, 1]]]


def gf2_fallback() -> MatSpace:
    return MatSpace.from_spanning([Mat.from_ints(GF2, m) for m in GF2_FALLBACK])
