"""Brute-force ground truth over small finite fields, plus example spaces.

These oracles exist to certify the main algorithms on desk-scale
instances: exhaustive rank maximization over all coefficient tuples, and
exhaustive discrepancy maximization over all subspaces enumerated by RREF
pivot pattern.  They refuse (BudgetExceeded) rather than truncate.
"""

from __future__ import annotations

import itertools
from typing import Callable

from .errors import BudgetExceeded, FieldTooSmall, NotSquare
from .fields import Field, distinct_elements
from .linalg import Mat, Subspace
from .spaces import MatSpace

DEFAULT_BUDGET = 10 ** 7


def brute_max_rank(sp: MatSpace, budget: int = DEFAULT_BUDGET):
    """Exhaustive max of rank over all coefficient tuples, first argmax in lex order."""
    f = sp.field
    card = f.cardinality()
    if card is None:
        raise BudgetExceeded("cannot enumerate an infinite field")
    total = card ** sp.dim
    if total > budget:
        raise BudgetExceeded(f"{total} tuples exceed budget {budget}")
    elems = list(f.elements())
    best_rank = 0
    best: list = [f.zero] * sp.dim
    cap = min(sp.nrows, sp.ncols)
    for tup in itertools.product(elems, repeat=sp.dim):
        r = sp.element(list(tup)).rank()
        if r > best_rank:
            best_rank = r
            best = list(tup)
            if r == cap:
                break
    return best_rank, best


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def count_subspaces(n: int, q: int) -> int:
    return sum(_gaussian_binomial(n, d, q) for d in range(n + 1))


def enumerate_subspaces(field: Field, n: int):
    """All subspaces of F^n by RREF shape: dimension, pivot pattern, free entries."""
    elems = list(field.elements())
    zero, one = field.zero, field.one
    yield Subspace.zero(field, n)
    for d in range(1, n + 1):
        for pivots in itertools.combinations(range(n), d):
            piv_set = set(pivots)
            free_pos = [(r, c) for r in range(d) for c in range(pivots[r] + 1, n)
                        if c not in piv_set]
            for values in itertools.product(elems, repeat=len(free_pos)):
                rows = [[zero] * n for _ in range(d)]
                for r, p in enumerate(pivots):
                    rows[r][p] = one
                for (r, c), v in zip(free_pos, values):
                    rows[r][c] = v
                yield Subspace(field, n, rows, _canonical=True)


def brute_disc(sp: MatSpace, budget: int = DEFAULT_BUDGET):
    """Exhaustive max of dim(U) - dim(space(U)), first achiever in enumeration order."""
    f = sp.field
    card = f.cardinality()
    if card is None:
        raise BudgetExceeded("cannot enumerate an infinite field")
    total = count_subspaces(sp.ncols, card)
    if total > budget:
        raise BudgetExceeded(f"{total} subspaces exceed budget {budget}")
    best = -1
    witness = None
    for u in enumerate_subspaces(f, sp.ncols):
        val = u.dim - sp.image_of(u).dim
        if val > best:
            best = val
            witness = u
    return best, witness


# ---------------------------------------------------------------------------
# example constructions
# ---------------------------------------------------------------------------

def sk3(field: Field) -> MatSpace:
    """The 3x3 skew symmetric matrices, the standard space without witnesses."""
    return MatSpace.from_spanning([
        Mat.from_ints(field, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
        Mat.from_ints(field, [[0, 0, 0], [0, 0, 1], [0, -1, 0]]),
        Mat.from_ints(field, [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
    ])


def _block2(field: Field, tl: Mat, tr: Mat, bl: Mat, br: Mat) -> Mat:
    n = tl.nrows
    rows = [list(a) + list(b) for a, b in zip(tl.rows, tr.rows)]
    rows += [list(a) + list(b) for a, b in zip(bl.rows, br.rows)]
    assert len(rows) == 2 * n
    return Mat(field, rows)


def yz_lift(sp: MatSpace, a: Mat) -> MatSpace:
    """The 2n x 2n lift with blocks [[A, B_i], [0, 0]] and [[0, 0], [A, 0]].

    Preserves the discrepancy of the input space exactly.
    """
    if sp.nrows != sp.ncols:
        raise NotSquare("lift needs a square space (pad first)")
    f = sp.field
    n = sp.nrows
    z = Mat.zeros(f, n, n)
    gens = [_block2(f, a, b, z, z) for b in sp.gens]
    gens.append(_block2(f, z, z, a, z))
    return MatSpace.from_spanning(gens)


def yz_lift_shifted(sp: MatSpace, a: Mat) -> MatSpace:
    """Row/column-shifted lift: [[A, B_i + A], [0, 0]] and [[0, 0], [A, A]].

    These are yz_lift's generators times the shear [[I, I], [0, I]], which is
    invertible: rank, discrepancy and the pruned generators match yz_lift.
    With a = identity the generators are projections; with a large positive
    a they are entrywise positive.
    """
    f, n = sp.field, sp.nrows
    i, z = Mat.identity(f, n), Mat.zeros(f, n, n)
    return yz_lift(sp, a).times(_block2(f, i, i, z, i))


def strict_upper_embed(sp: MatSpace) -> MatSpace:
    """2N x 2N embedding [[0, B_i], [0, 0]] after zero padding to N = max(n, n').

    The generators pairwise commute and are strictly upper triangular, yet
    the embedded space keeps the full rank-maximization difficulty.
    """
    from .smr import pad_square
    padded = pad_square(sp)
    f = sp.field
    n = padded.nrows
    z = Mat.zeros(f, n, n)
    return MatSpace.from_spanning([_block2(f, z, b, z, z) for b in padded.gens])


def blackbox_greedy(rank_oracle: Callable[[list], int], m: int, n: int,
                    field: Field):
    """Greedy rank maximization using only a coefficients -> rank oracle.

    Reaches the global maximum on black-box Edmonds-Rado spaces; on other
    inputs it still terminates at a local maximum within n improvements.
    """
    card = field.cardinality()
    if card is not None and card < n + 1:
        raise FieldTooSmall(f"need at least {n + 1} field elements")
    coeffs = [field.one if i == 0 else field.zero for i in range(m)]
    r = rank_oracle(coeffs)
    improved = True
    while improved and r < n:
        improved = False
        for b_idx in range(m):
            lambdas = [lam for lam in distinct_elements(field, r + 2)
                       if not field.is_zero(lam)]
            for lam in lambdas:
                trial = list(coeffs)
                trial[b_idx] = field.add(trial[b_idx], lam)
                trial_rank = rank_oracle(trial)
                if trial_rank > r:
                    coeffs, r, improved = trial, trial_rank, True
                    break
            if improved:
                break
    return r, coeffs
