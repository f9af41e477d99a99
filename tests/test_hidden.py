"""The paper's promise: spaces spanned by *unknown* rank-one matrices.

Every space here is an explicit rank-one space whose basis is mixed by seeded
invertible matrices.  The span, and so the maximum rank, is unchanged, but
the generators mostly have rank above one; a hidden crown's all do, so
`MatSpace.factors` finds none of them and every action runs on dense
generators.
"""

import random

import pytest

from symrank import Mat, MatSpace, PrimeField, RationalField, smr
from symrank.fields import extension_field
from symrank.oracles import brute_max_rank
from symrank.smr import check_claim
from conftest import GF2, GF3, GF5, GF7, rank_one_space
from test_smr import _nonsingular, crown

FIELDS = [GF2, GF3, GF7, PrimeField(101), extension_field(2, 2), RationalField()]
IDS = ["gf2", "gf3", "gf7", "gf101", "gf4", "q"]


def hidden_space(rng, sp):
    """sp's basis mixed by one seeded invertible m x m matrix, m = sp.dim."""
    mix = _nonsingular(rng, sp.field, sp.dim)
    return MatSpace.from_spanning([sp.element(c) for c in mix.rows],
                                  sp.field, sp.nrows, sp.ncols)


def _mixing(rng, f, k):
    """An invertible k x k matrix with two or more nonzeros in every row.
    None exists for k = 1, nor for k = 2 over GF(2), whose one such row is
    (1, 1): ValueError then, instead of drawing forever."""
    if k == 1 or k == 2 and f.cardinality() == 2:
        raise ValueError(f"no invertible {k} x {k} matrix over {f.spec.to_json()} "
                         "has two nonzeros in every row")
    while True:
        m = _nonsingular(rng, f, k)
        if all(len([c for c in r if f.nonzero(c)]) >= 2 for r in m.rows):
            return m


def hidden_crown(rng, f, k):
    """The twisted crown of k blocks with each of its three kinds of units,
    E(2b+1, 2b), E(2b, 2b) and E(2b+1, 2b+1) over b < k, mixed by its own
    invertible k x k matrix.  A kind's units sit in distinct rows and columns,
    so a generator's rank is its mixing row's number of nonzeros, at least 2;
    the span has rank 2k."""
    n = 2 * k
    sp = crown(f, k, (_nonsingular(rng, f, n), _nonsingular(rng, f, n)))
    gens = []
    for kind in range(3):  # crown's unit of kind t in block b is generator 3b + t
        for row in _mixing(rng, f, k).rows:
            coeffs = [f.zero] * sp.dim
            coeffs[kind::3] = row
            gens.append(sp.element(coeffs))
    return MatSpace.from_spanning(gens, f, n, n)


def _rank_one_q(rng, n, m):
    """m outer products of small nonzero integer vectors over Q."""
    q, mats = RationalField(), []
    while len(mats) < m:
        u, v = [rng.randint(-2, 2) for _ in range(n)], [rng.randint(-2, 2) for _ in range(n)]
        if any(u) and any(v):
            mats.append(Mat.from_ints(q, [[a * b for b in v] for a in u]))
    return MatSpace.from_spanning(mats, q, n, n)


def _check(sp, rank):
    """smr on sp certifies rank; its status, returned, is never failed_po, and is
    max_rank_found over a field of at least n + 1 elements."""
    res = smr(sp)
    assert res.rank == rank
    assert check_claim(sp, res)
    card = sp.field.cardinality()
    assert res.status != "failed_po"
    if card is None or card >= sp.nrows + 1:
        assert res.status == "max_rank_found"
    return res.status


# Statuses over fields of fewer than n + 1 elements, as they stand: SMR runs in
# the base field and embeds into an extension only when the lambda search runs
# out, and a combination found there is not a member of the base space.  Every
# other field and size gives max_rank_found.
MAX, NON = "max_rank_found", "non_constructive_rank"
CROWN_STATUSES = {"gf2": [MAX, NON, NON], "gf3": [MAX, NON, NON], "gf4": [MAX, NON, MAX]}
SPACE_STATUSES = {"gf2": [MAX, NON, NON, NON, MAX, NON], "gf3": [MAX, MAX, MAX, NON, MAX, NON]}


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_hidden_crown(f, request):
    # n = 6, 8, 12: each certifies rank n on generators none of which has rank one
    rng = random.Random(71)
    statuses = []
    for k in (3, 4, 6):
        sp = hidden_crown(rng, f, k)
        assert sp.dim == 3 * k and not any(sp.factors)
        statuses.append(_check(sp, 2 * k))
    assert statuses == CROWN_STATUSES.get(request.node.callspec.id, [MAX] * 3)


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_hidden_rank_one_space(f, request):
    # the mixed basis has the explicit basis's rank: the brute-force maximum
    # where the field and the dimension are small, else smr's on the explicit basis
    rng = random.Random(73)
    card, statuses = f.cardinality(), []
    for n, m in ((2, 2), (3, 3), (3, 4), (4, 4), (5, 3), (12, 14)):
        sp = _rank_one_q(rng, n, m) if card is None else rank_one_space(rng, f, n, n, m)
        if card is not None and card ** sp.dim <= 4096:
            rank = brute_max_rank(sp)[0]
        else:
            rank = smr(sp).rank
        statuses.append(_check(hidden_space(rng, sp), rank))
    assert statuses == SPACE_STATUSES.get(request.node.callspec.id, [MAX] * 6)


@pytest.mark.parametrize("f, k", [(GF2, 2), (GF5, 1)], ids=["gf2-k2", "gf5-k1"])
def test_hidden_crown_without_a_mixing_matrix_raises(f, k):
    with pytest.raises(ValueError, match="two nonzeros in every row"):
        hidden_crown(random.Random(0), f, k)
