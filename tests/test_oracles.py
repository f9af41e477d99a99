"""Brute-force oracles and the example constructions they certify."""

import random

import pytest

from symrank import Mat, MatSpace, PrimeField, RationalField, Subspace
from symrank.errors import BudgetExceeded, FieldTooSmall, NotSquare
from symrank.cli import oracle_certificate
from symrank.oracles import (blackbox_greedy, brute_disc, brute_max_rank,
                             count_subspaces, enumerate_subspaces, sk3,
                             strict_upper_embed, yz_lift, yz_lift_shifted)
from conftest import GF2, GF3, GF5, GF7, rank_one_space


def test_sk3_rank_and_disc():
    sp = sk3(GF5)
    rank, coeffs = brute_max_rank(sp)
    assert rank == 2
    assert sp.element(coeffs).rank() == 2
    disc, witness = brute_disc(sk3(GF3))
    assert disc == 0
    assert witness.dim == 0


def test_sk3_is_skew():
    sp = sk3(GF7)
    for g in sp.gens:
        assert g.transpose().axpy(GF7.one, g).is_zero()


def test_brute_max_rank_diag_pair():
    sp = MatSpace.from_spanning([
        Mat.from_ints(GF5, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
        Mat.from_ints(GF5, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])])
    rank, _ = brute_max_rank(sp)
    assert rank == 2


def test_brute_disc_zero_space():
    sp = MatSpace(GF5, 2, 2, [])
    disc, witness = brute_disc(sp)
    assert disc == 2
    assert witness == Subspace.full(GF5, 2)


def test_enumerate_subspaces_complete():
    for q, n in ((2, 3), (3, 2)):
        f = PrimeField(q)
        seen = list(enumerate_subspaces(f, n))
        assert len(seen) == count_subspaces(n, q)
        keys = {tuple(tuple(r) for r in u.basis) for u in seen}
        assert len(keys) == len(seen)


def test_budget_refusal():
    sp = MatSpace.from_spanning([Mat.identity(GF5, 3)])
    with pytest.raises(BudgetExceeded):
        brute_max_rank(sp, budget=2)
    with pytest.raises(BudgetExceeded):
        brute_disc(sp, budget=2)
    with pytest.raises(BudgetExceeded):
        brute_disc(MatSpace.from_spanning([Mat.identity(RationalField(), 2)]))


def is_compression(sp):
    """disc equals cork, both by brute force."""
    return brute_disc(sp)[0] == sp.ncols - brute_max_rank(sp)[0]


def test_is_compression():
    rng = random.Random(8)
    sp = rank_one_space(rng, GF5, 2, 2, 2)
    assert is_compression(sp)
    assert not is_compression(sk3(GF3))
    # any 2-dimensional space over a big enough field is a compression space
    pencil = MatSpace.from_spanning([
        Mat.from_ints(GF7, [[1, 2], [0, 1]]),
        Mat.from_ints(GF7, [[0, 1], [1, 1]])])
    assert is_compression(pencil)


def test_yz_lift_disc_zero():
    sp = sk3(GF3)
    lifted = yz_lift(sp, Mat.identity(GF3, 3))
    disc, _ = brute_disc(lifted, budget=10 ** 6)
    assert disc == 0
    rect = MatSpace.from_spanning([Mat.zeros(GF3, 2, 3)], GF3, 2, 3)
    with pytest.raises(NotSquare):
        yz_lift(rect, Mat.identity(GF3, 2))


def test_yz_lift_shifted_idempotent():
    sp = sk3(GF3)
    lifted = yz_lift_shifted(sp, Mat.identity(GF3, 3))
    # with a = I every generator is a projection
    for g in lifted.gens:
        assert g.matmul(g) == g


def test_strict_upper_embed_structure():
    sp = sk3(GF5)
    emb = strict_upper_embed(sp)
    for g in emb.gens:
        assert g.matmul(g).is_zero()
        for h in emb.gens:
            assert g.matmul(h) == h.matmul(g)


def test_oracle_report_fields():
    cert = oracle_certificate(sk3(GF3))
    assert cert["max_rank"] == 2 and cert["disc"] == 0
    assert cert["enumerated_elements"] == 27
    assert cert["enumerated_subspaces"] == count_subspaces(3, 3)


def test_blackbox_greedy_diag():
    sp = MatSpace.from_spanning([
        Mat.from_ints(GF5, [[1, 0], [0, 0]]),
        Mat.from_ints(GF5, [[0, 0], [0, 1]])])
    calls = []

    def oracle(c):
        calls.append(c)
        return sp.element(c).rank()
    r, coeffs = blackbox_greedy(oracle, 2, 2, GF5)
    assert r == 2
    assert sp.element(coeffs).rank() == 2
    # the start, then one call per trial: 2 and 3 times B_0 stay at rank 1, B_1 raises it
    assert calls == [[1, 0], [2, 0], [3, 0], [1, 1]]
    with pytest.raises(FieldTooSmall):
        blackbox_greedy(oracle, 2, 2, GF2)


def test_blackbox_greedy_reaches_brute_on_rank_one():
    rng = random.Random(19)
    done = 0
    while done < 10:
        sp = rank_one_space(rng, GF7, 3, 3, 3)
        if sp.dim == 0:
            continue
        brute, _ = brute_max_rank(sp)
        r, _ = blackbox_greedy(lambda c: sp.element(c).rank(),
                               sp.dim, 3, GF7)
        assert r == brute
        done += 1


def test_blackbox_greedy_terminates_on_sk3():
    sp = sk3(GF5)
    r, _ = blackbox_greedy(lambda c: sp.element(c).rank(), 3, 3, GF5)
    assert r == 2
