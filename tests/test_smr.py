"""Constructive maximum-rank search and its helpers."""

import importlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from symrank import (Mat, MatSpace, PrimeField, RationalField, Subspace, pseudo_inverse, sk3,
                     smr, smr_rank_only, verify_witness, witness_test)
from symrank.errors import EmptySpace
from symrank.oracles import brute_max_rank
from symrank.fields import FieldSpec, extension_field
from symrank.smr import (check_claim, greedy_start, pad_square, reduce_coefficients,
                         working_space)
from conftest import GF2, GF3, GF5, GF7, gf2_fallback, rand_nonsingular, rank_one_space


def test_pad_square():
    g = Mat.from_ints(GF5, [[1, 2, 3], [4, 0, 1]])
    sp = MatSpace.from_spanning([g], GF5, 2, 3)
    padded = pad_square(sp)
    assert padded.nrows == padded.ncols == 3
    assert padded.gens[0].rows[2] == [GF5.zero] * 3
    sq = MatSpace.from_spanning([Mat.identity(GF5, 2)])
    assert pad_square(sq) is sq


def test_pad_square_preserves_max_rank():
    rng = random.Random(31)
    for _ in range(10):
        sp = rank_one_space(rng, GF5, 2, 3, 2)
        if sp.dim == 0:
            continue
        r1, _ = brute_max_rank(sp)
        r2, _ = brute_max_rank(pad_square(sp))
        assert r1 == r2


def test_smr_diagonal_pair():
    sp = MatSpace.from_spanning([
        Mat.from_ints(GF7, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
        Mat.from_ints(GF7, [[0, 0, 0], [0, 1, 0], [0, 0, 0]]),
    ])
    res = smr(sp)
    assert res.status == "max_rank_found"
    assert res.rank == 2
    assert res.witness == Subspace(GF7, 3, [[0, 0, 1]])
    assert check_claim(sp, res)


def test_smr_empty_space_raises():
    with pytest.raises(EmptySpace):
        smr(MatSpace(GF5, 2, 2, []))


def test_smr_matches_brute_on_rank_one():
    rng = random.Random(41)
    done = 0
    while done < 30:
        f = rng.choice([GF5, GF7])
        n = rng.randint(1, 3)
        sp = rank_one_space(rng, f, n, n, rng.randint(1, 3))
        if sp.dim == 0:
            continue
        res = smr(sp)
        brute, _ = brute_max_rank(sp)
        assert res.rank == brute
        assert res.status == "max_rank_found"
        assert verify_witness(sp, res.witness, n - res.rank)
        done += 1


def test_smr_rank_only_small_field():
    assert smr_rank_only(MatSpace(GF2, 2, 2, [])) == 0
    diag = MatSpace.from_spanning(
        [Mat.from_ints(GF2, [[1 if i == j == k else 0 for j in range(3)]
                             for i in range(3)]) for k in range(3)])
    assert smr_rank_only(diag) == 3
    rng = random.Random(51)
    done = 0
    while done < 15:
        sp = rank_one_space(rng, GF2, 2, 2, rng.randint(1, 2))
        if sp.dim == 0:
            continue
        brute, _ = brute_max_rank(sp)
        assert smr_rank_only(sp) == brute
        done += 1


def test_smr_small_field_status():
    diag = MatSpace.from_spanning(
        [Mat.from_ints(GF2, [[1, 0], [0, 0]]),
         Mat.from_ints(GF2, [[0, 0], [0, 1]])])
    res = smr(diag)
    assert res.rank == 2
    # the run stayed over GF(2), so the combination is a member: constructive
    assert res.status == "max_rank_found"
    assert res.working_field == GF2.spec
    # a run that ran out of lambdas went on over an extension, and says so
    res = smr(gf2_fallback())
    assert res.status == "non_constructive_rank"
    assert res.working_field.kind == "extension"


def _witness_test_fields(monkeypatch):
    """The list, filled as smr runs, of the field of each witness test."""
    module = importlib.import_module("symrank.smr")
    fields, real = [], module.witness_test

    def spy(a, space):
        fields.append(space.field.spec)
        return real(a, space)
    monkeypatch.setattr(module, "witness_test", spy)
    return fields


def test_smr_embeds_when_lambdas_run_out(monkeypatch):
    sp = gf2_fallback()
    fields = _witness_test_fields(monkeypatch)
    res = smr(sp)
    gf8 = extension_field(2, 3).spec  # the first GF(2^k) with n + 1 = 5 elements
    assert fields == [GF2.spec, gf8]  # rank 4 = n is certified with no witness test
    assert res.status == "non_constructive_rank" and res.working_field == gf8
    assert res.ranks_visited == [3, 4]
    assert res.rank == brute_max_rank(sp)[0] == 4
    assert check_claim(sp, res)


def _units(f, nrows, ncols, *ijs):
    return [Mat(f, [[f.one if (r, c) == ij else f.zero for c in range(ncols)]
                    for r in range(nrows)]) for ij in ijs]


@pytest.mark.parametrize("ncols, ijs", [(3, [(0, 0), (1, 1), (2, 2), (0, 1)]),
                                        (2, [(0, 0), (1, 1), (2, 0)])], ids=["square", "tall"])
def test_smr_at_rank_n_cols_runs_no_witness_test(monkeypatch, ncols, ijs):
    # greedy reaches rank n_cols: the padded columns span ker a, W* = 0, and the
    # witness a^{-1}(0) is their span, the same the witness test would build
    rng = random.Random(83)
    q, r = rand_nonsingular(rng, GF5, 3), rand_nonsingular(rng, GF5, ncols)
    sp = MatSpace.from_spanning([q.matmul(m).matmul(r) for m in _units(GF5, 3, ncols, *ijs)])
    fields = _witness_test_fields(monkeypatch)
    res = smr(sp)
    assert fields == [] and res.rank == res.ranks_visited[0] == ncols
    work = pad_square(sp)
    assert res.witness == witness_test(work.element(res.coefficients), work).witness
    assert res.witness == Subspace(GF5, 3, Mat.identity(GF5, 3).rows[ncols:])
    assert check_claim(sp, res)


def test_smr_wide_input_keeps_the_witness_test(monkeypatch):
    # <E11, E22> at 2 x 3: rank 2 = n_rows < n_cols, so the test runs and
    # certifies <e3>, the padded row's column, not F^3
    sp = MatSpace.from_spanning(_units(GF5, 2, 3, (0, 0), (1, 1)))
    fields = _witness_test_fields(monkeypatch)
    res = smr(sp)
    assert fields == [GF5.spec]
    assert (res.rank, res.witness) == (2, Subspace(GF5, 3, [[0, 0, 1]]))
    assert check_claim(sp, res)


def test_non_constructive_rank_is_the_working_field_maximum():
    # outside the rank-one promise the extension's maximum can exceed the base
    # field's: rank 3 over GF(4), certified and verified, while every GF(2)
    # combination has rank at most 2
    sp = MatSpace.from_spanning([Mat.from_ints(GF2, m) for m in (
        [[1, 1, 1], [0, 0, 0], [1, 0, 1]], [[1, 0, 0], [1, 1, 0], [0, 0, 0]])])
    assert sp.factors == [None, None]
    res = smr(sp)
    gf4 = extension_field(2, 2).spec
    assert (res.status, res.rank, res.working_field) == ("non_constructive_rank", 3, gf4)
    assert check_claim(sp, res)
    assert brute_max_rank(sp)[0] == 2
    assert brute_max_rank(working_space(sp, gf4))[0] == smr_rank_only(sp) == 3


@pytest.mark.parametrize("f", [GF2, GF3], ids=["gf2", "gf3"])
def test_smr_fallback_keeps_failed_po_on_sk3(monkeypatch, f):
    # PO finds nothing over GF(p), nor over GF(p^2) after the one embedding
    fields = _witness_test_fields(monkeypatch)
    res = smr(sk3(f))
    big = extension_field(f.spec.p, 2).spec
    assert fields == [f.spec, big]
    assert (res.status, res.rank, res.working_field, res.witness) == ("failed_po", 2, big, None)
    assert check_claim(sk3(f), res)


def _crowns(f, rng):
    """Untwisted and twisted crowns for k = 1..4, with their rank 2k."""
    for k in (1, 2, 3, 4):
        n = 2 * k
        yield crown(f, k), n
        yield crown(f, k, (_nonsingular(rng, f, n), _nonsingular(rng, f, n))), n


def test_smr_small_fields_stay_in_the_base_field():
    # explicitly rank-1 spaces keep their maximum rank over every field
    # (Lovasz 1989), and the lambda search over GF(2) and GF(3) finds it
    rng = random.Random(97)
    cases = []
    for f in (GF2, GF3):
        while sum(c[0].field is f for c in cases) < 100:
            n = rng.randint(1, 4)
            sp = rank_one_space(rng, f, n, n, rng.randint(1, 6))
            if sp.dim:
                cases.append((sp, brute_max_rank(sp)[0]))
        cases += _crowns(f, rng)
    for sp, rank in cases:
        res = smr(sp)
        assert res.rank == rank
        assert res.working_field == sp.field.spec and res.status == "max_rank_found"
        assert check_claim(sp, res)


def test_reduce_coefficients_rational():
    q = RationalField()
    sp = MatSpace.from_spanning([
        Mat.from_ints(q, [[1, 0], [0, 0]]),
        Mat.from_ints(q, [[0, 0], [0, 1]])])
    start = [Fraction(7, 3), Fraction(-5, 2)]
    a = sp.element(start)
    coeffs, b, r = reduce_coefficients(sp, start, a, a.rank())
    n = 2
    assert all(0 <= c <= n and c.denominator == 1 for c in coeffs)
    assert sp.element(coeffs).rank() == 2
    assert b == sp.element(coeffs) and r == b.rank()


def test_smr_over_rationals():
    q = RationalField()
    sp = MatSpace.from_spanning([
        Mat.from_ints(q, [[1, 0], [0, 0]]),
        Mat.from_ints(q, [[0, 1], [0, 0]]),
        Mat.from_ints(q, [[0, 0], [1, 0]])])
    res = smr(sp)
    assert res.rank == 2
    assert all(c.denominator == 1 and 0 <= c <= 2 for c in res.coefficients)


def test_check_claim_and_working_space():
    sp = MatSpace.from_spanning([
        Mat.from_ints(GF2, [[1, 0, 0], [0, 0, 0]]),
        Mat.from_ints(GF2, [[0, 0, 0], [0, 1, 0]])], GF2, 2, 3)
    res = smr(sp)
    space = working_space(sp, res.working_field)
    assert space.field.spec == res.working_field and space.nrows == space.ncols == 3
    assert check_claim(sp, res)
    for wrong_rank in (1, 3):
        assert not check_claim(sp, replace(res, rank=wrong_rank))
    assert not check_claim(sp, replace(res, witness=Subspace.zero(space.field, 3)))
    # without a witness (failed_po) only the rank of the combination is claimed
    lower = replace(res, status="failed_po", witness=None)
    assert check_claim(sp, lower)
    for wrong_rank in (1, 3):
        assert not check_claim(sp, replace(lower, rank=wrong_rank))
    with pytest.raises(ValueError, match="working field"):
        working_space(sp, FieldSpec("prime", p=3))
    with pytest.raises(ValueError, match="working field"):
        check_claim(sp, replace(res, working_field=FieldSpec("prime", p=3)))


def crown(f, k, twist=None):
    """k blocks of 2x2, block j adding E(2j+1, 2j), E(2j, 2j), E(2j+1, 2j+1)
    in that order, each matrix taken to Q E R when twist = (Q, R).  Greedy
    keeps the first unit of every block, rank k; the diagonal has rank 2k."""
    n = 2 * k
    mats = [Mat.from_ints(f, [[int((r, c) == (i, j)) for c in range(n)] for r in range(n)])
            for b in range(k) for i, j in ((2 * b + 1, 2 * b), (2 * b, 2 * b),
                                           (2 * b + 1, 2 * b + 1))]
    if twist:
        mats = [twist[0].matmul(m).matmul(twist[1]) for m in mats]
    return MatSpace.from_spanning(mats)


def _nonsingular(rng, f, n):
    if f.cardinality() is not None:
        return rand_nonsingular(rng, f, n)
    while True:
        m = Mat.from_ints(f, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if m.rank() == n:
            return m


def test_greedy_start_on_crown():
    for k in (1, 2, 3):
        sp = crown(GF7, k)
        coeffs, a, r = greedy_start(sp, 2 * k)
        assert coeffs == [1, 0, 0] * k and r == k == a.rank()
        assert a == sp.element(coeffs)


@pytest.mark.parametrize("f", [GF2, GF3, PrimeField(101), RationalField()],
                         ids=["gf2", "gf3", "gf101", "q"])
def test_smr_augments_twisted_crown(f):
    # greedy stops at rank k, so every further unit of rank comes from PO
    rng = random.Random(61)
    for k in (1, 2, 3):
        n = 2 * k
        sp = crown(f, k, (_nonsingular(rng, f, n), _nonsingular(rng, f, n)))
        res = smr(sp)
        assert res.rank == n
        assert res.ranks_visited == list(range(k, n + 1))
        assert check_claim(sp, res)


def _reduce_by_expansion(sp, coeffs):
    """reduce_coefficients with every trial expanded from all generators."""
    f = sp.field
    n = max(sp.nrows, sp.ncols)
    r = sp.element(coeffs).rank()
    out = list(coeffs)
    for i in range(len(out)):
        for kappa in range(n + 1):
            trial = list(out)
            trial[i] = f.from_int(kappa)
            if sp.element(trial).rank() >= r:
                out = trial
                break
    return out


def test_reduce_coefficients_matches_expansion():
    # the running element plus kappa B_i, against each trial expanded afresh
    q = RationalField()
    rng = random.Random(83)

    def rank_one_q(nrows, ncols):
        u, v = [0] * nrows, [0] * ncols
        while not any(u) or not any(v):
            u = [rng.randint(-2, 2) for _ in range(nrows)]
            v = [rng.randint(-2, 2) for _ in range(ncols)]
        return Mat.from_ints(q, [[a * b for b in v] for a in u])
    spaces = []
    for _ in range(12):
        nrows, ncols = rng.randint(2, 5), rng.randint(2, 5)
        spaces.append(MatSpace.from_spanning(
            [rank_one_q(nrows, ncols) for _ in range(rng.randint(2, 6))], q, nrows, ncols))
    spaces.append(crown(q, 4, (_nonsingular(rng, q, 8), _nonsingular(rng, q, 8))))
    for sp in spaces:
        for _ in range(3):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(sp.dim)]
            a = sp.element(coeffs)
            out, b, r = reduce_coefficients(sp, coeffs, a, a.rank())
            assert out == _reduce_by_expansion(sp, coeffs)
            assert b == sp.element(out) and r == b.rank()


def _greedy_by_ranks(sp, limit):
    """greedy_start with every generator decided by the rank of A + B: the
    reference for the echelon test on rank-one generators."""
    one = sp.field.one
    coeffs = [sp.field.zero] * sp.dim
    a, r = Mat.zeros(sp.field, sp.nrows, sp.ncols), 0
    for i, g in enumerate(sp.gens):
        if r == limit:
            break
        cand = a.axpy(one, g)
        if cand.rank() > r:
            coeffs[i], a, r = one, cand, cand.rank()
    return coeffs, a, r


def _mixed_space():
    """E11 is taken, then E22 + E33, which is dense, so the echelons are
    rebuilt from A = diag(1, 1, 1, 0): E23 has x in im A and E42 has y in
    row A, so both are refused, E44 is taken and E14 comes after rank 4.
    Echelons left at E11 alone would take E23."""
    def unit(i, j):
        return Mat.from_ints(GF5, [[int((r, c) == (i, j)) for c in range(4)] for r in range(4)])
    return MatSpace.from_spanning([unit(0, 0), unit(1, 1).axpy(1, unit(2, 2)), unit(1, 2),
                                   unit(3, 1), unit(3, 3), unit(0, 3)])


def test_greedy_start_matches_rank_decisions():
    rng = random.Random(47)
    spaces = [rank_one_space(rng, f, rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 9))
              for f in (GF2, GF3, GF7, PrimeField(101), extension_field(2, 2))
              for _ in range(25)]
    for f in (GF2, GF3, PrimeField(101), RationalField()):
        for k in (1, 2, 3, 4):
            spaces.append(crown(f, k, (_nonsingular(rng, f, 2 * k), _nonsingular(rng, f, 2 * k))))
    spaces += [sk3(f) for f in (GF5, extension_field(2, 3), RationalField())]
    mixed = _mixed_space()
    spaces.append(mixed)
    for _ in range(20):  # rank-one generators with dense ones among them
        f = rng.choice([GF3, GF7])
        n = rng.randint(2, 5)
        gens = rank_one_space(rng, f, n, n, rng.randint(1, 6)).gens
        for _ in range(rng.randint(1, 2)):
            gens.insert(rng.randint(0, len(gens)), rand_nonsingular(rng, f, n))
        spaces.append(MatSpace.from_spanning(gens, f, n, n))
    for sp in spaces:
        for limit in {min(sp.nrows, sp.ncols), 1}:
            assert greedy_start(sp, limit) == _greedy_by_ranks(sp, limit)
    assert [xy is None for xy in mixed.factors] == [False, True, False, False, False, False]
    assert greedy_start(mixed, 4)[::2] == ([1, 1, 0, 0, 1, 0], 4)


def test_witness_test_po_space_is_the_product_by_the_pseudo_inverse():
    # D = B A' from the factors x (A'^T y)^T, against the products themselves
    rng = random.Random(53)
    cases = 0
    for f in (GF3, PrimeField(101), extension_field(2, 2), RationalField()):
        for _ in range(12):
            n = rng.randint(2, 6)
            if f.cardinality() is None:
                sp = crown(f, n // 2 or 1, (_nonsingular(rng, f, 2 * (n // 2 or 1)),
                                            _nonsingular(rng, f, 2 * (n // 2 or 1))))
            else:
                sp = rank_one_space(rng, f, n, n, rng.randint(2, 2 * n))
            a = sp.gens[0]
            report = witness_test(a, sp)
            if report.exists:
                continue
            cases += 1
            d, a_pi = report.po.d, pseudo_inverse(a)
            assert d.gens == [b.matmul(a_pi) for b in sp.gens]
            assert all(xy is not None and d.gens[k] == Mat(f, [f.scale_row(c, xy[1]) for c in xy[0]])
                       for k, xy in enumerate(d.factors))
    assert cases >= 30
