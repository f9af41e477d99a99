"""Metamorphic relations for SMR at sizes no brute-force oracle reaches.

Each relation changes the space but not its maximum rank: the twist Q B R by
invertible Q and R, the transpose space, a reordering of the generators, a
basis mixed by an invertible matrix, and zero rows or zero columns appended.
The block-diagonal direct sum of two spaces spans every A (+) B, so its
maximum rank is the sum of theirs.  Every result's certificate, after a JSON
round trip, also passes verify.
"""

import json
import random

import pytest

from symrank import Mat, MatSpace, PrimeField, RationalField, cli
from symrank.fields import extension_field
from conftest import GF2, GF3, rank_one_space
from test_hidden import hidden_crown, hidden_space
from test_smr import _nonsingular, crown

GF101 = PrimeField(101)
FIELDS = [(GF101, (4, 6, 8)), (GF3, (4, 6)), (RationalField(), (3, 4)), (GF2, (3, 4)),
          (extension_field(2, 2), (3, 4))]


def twisted_crown(rng, f, k):
    n = 2 * k
    return crown(f, k, (_nonsingular(rng, f, n), _nonsingular(rng, f, n)))


def rank_one(rng, f, k):
    return rank_one_space(random.Random(k), f, 2 * k, 2 * k - 1, 2 * k)


FAMILIES = {"crown": twisted_crown, "hidden": hidden_crown, "rank_one": rank_one}
CASES = [(name, f, k) for name in FAMILIES for f, ks in FIELDS for k in ks
         if name != "rank_one" or f.cardinality() is not None]
# hidden crowns over GF(65537) from n = 12: dense products and eliminations packed, their
# slots reduced in two interleaved Barrett classes (fields._barrett)
CASES += [("hidden", PrimeField(65537), k) for k in (6, 8)]


def twist(rng, sp):
    q, r = _nonsingular(rng, sp.field, sp.nrows), _nonsingular(rng, sp.field, sp.ncols)
    return MatSpace.from_spanning([q.matmul(g).matmul(r) for g in sp.gens],
                                  sp.field, sp.nrows, sp.ncols)


def permute(rng, sp):
    gens = list(sp.gens)
    rng.shuffle(gens)
    return MatSpace.from_spanning(gens, sp.field, sp.nrows, sp.ncols)


def zero_padded(sp, rows, cols):
    """sp's generators with `rows` zero rows and `cols` zero columns appended."""
    f, nrows, ncols = sp.field, sp.nrows + rows, sp.ncols + cols
    return MatSpace.from_spanning(
        [Mat(f, [list(r) + [f.zero] * cols for r in g.rows] + [[f.zero] * ncols] * rows)
         for g in sp.gens], f, nrows, ncols)


def direct_sum(a, b):
    """The block-diagonal space: a's generators top left, b's bottom right."""
    f, nrows, ncols = a.field, a.nrows + b.nrows, a.ncols + b.ncols

    def block(g, r0, c0):
        rows = [[f.zero] * ncols for _ in range(nrows)]
        for i, row in enumerate(g.rows):
            rows[r0 + i][c0:c0 + g.ncols] = row
        return Mat(f, rows)
    return MatSpace.from_spanning([block(g, 0, 0) for g in a.gens]
                                  + [block(g, a.nrows, a.ncols) for g in b.gens],
                                  f, nrows, ncols)


def max_rank(sp):
    cert = json.loads(json.dumps(cli.smr_certificate(sp)))
    assert cli.verify_certificate(sp, cert)
    return cert["rank"]


@pytest.mark.parametrize("family, f, k", CASES,
                         ids=[f"{name}-{f.spec.kind}{f.spec.p or ''}-k{k}"
                              for name, f, k in CASES])
def test_relations_keep_the_maximum_rank(family, f, k):
    rng = random.Random(k)
    sp = FAMILIES[family](rng, f, k)
    rank = max_rank(sp)
    if family != "rank_one":
        assert rank == 2 * k
    assert max_rank(twist(rng, sp)) == rank
    assert max_rank(sp.transpose_space()) == rank
    assert max_rank(permute(rng, sp)) == rank
    assert max_rank(hidden_space(rng, sp)) == rank
    assert max_rank(zero_padded(sp, 2, 0)) == rank
    assert max_rank(zero_padded(sp, 0, 3)) == rank
    assert max_rank(direct_sum(sp, twisted_crown(rng, f, 2))) == rank + 4
