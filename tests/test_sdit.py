"""Triangularizable SDIT, the nilpotency test, the rational pipeline."""

import random
from fractions import Fraction

import pytest

from symrank import (Mat, MatSpace, PrimeField, RationalField,
                     is_triangularizable_with_nonsingular, rational_sdit,
                     tri_algo, verify_witness)
from symrank.errors import EmptySpace, FieldTooSmall, NotMember, NotSquare, SingularS
from symrank.oracles import sk3
from symrank.sdit import TriOutcome, _int_det, check_outcome, integer_nonsingular
from conftest import GF5, GF7, rand_nonsingular, upper_triangular


def combo(sp, coeffs):
    return sp.element(coeffs)


def test_tri_algo_nonsingular_pair():
    sp = MatSpace.from_spanning([
        Mat.from_ints(GF5, [[1, 1], [0, 1]]),
        Mat.from_ints(GF5, [[0, 1], [0, 0]])])
    out = tri_algo(sp)
    assert out.kind == "nonsingular"
    assert combo(sp, out.coefficients).rank() == 2


def test_tri_algo_witness():
    sp = MatSpace.from_spanning([
        Mat.from_ints(GF5, [[0, 1], [0, 0]]),
        Mat.from_ints(GF5, [[1, 0], [0, 0]])])
    out = tri_algo(sp)
    assert out.kind == "witness"
    assert verify_witness(sp, out.witness, 1)


def test_tri_algo_fail_outside_class():
    assert tri_algo(sk3(GF5)).kind == "fail"


def test_tri_algo_one_by_one():
    sp = MatSpace.from_spanning([Mat.from_ints(GF5, [[3]])])
    out = tri_algo(sp)
    assert out.kind == "nonsingular"
    zero = tri_algo(MatSpace.of(Mat.zeros(GF5, 1, 1)))
    assert zero.kind == "witness" and zero.witness.dim == 1
    # unpruned: the zero generator keeps its position
    for f, c in ((PrimeField(2), 1), (RationalField(), 3)):
        out = tri_algo(MatSpace(f, 1, 1, [Mat.zeros(f, 1, 1), Mat.from_ints(f, [[c]])]))
        assert out.kind == "nonsingular" and out.coefficients == [0, 1]


def test_tri_algo_common_kernel():
    sp = MatSpace.from_spanning([
        Mat.from_ints(GF5, [[1, 0], [0, 0]]),
        Mat.from_ints(GF5, [[2, 0], [1, 0]])])
    out = tri_algo(sp)
    assert out.kind == "witness"
    assert out.witness.contains_vector([GF5.zero, GF5.one])


def test_tri_algo_field_too_small():
    f = PrimeField(2)
    mats = [Mat.identity(f, 3)]
    with pytest.raises(FieldTooSmall):
        tri_algo(MatSpace(f, 3, 3, mats))


def test_tri_algo_rejects_rectangular():
    sp = MatSpace.from_spanning([Mat.zeros(GF5, 2, 3)], GF5, 2, 3)
    with pytest.raises(NotSquare):
        tri_algo(sp)


def test_tri_algo_rejects_empty_space():
    with pytest.raises(EmptySpace):
        tri_algo(MatSpace(GF5, 2, 2, []))


def test_tri_test_upper_triangular():
    sp = MatSpace.from_spanning([
        Mat.identity(GF5, 2),
        Mat.from_ints(GF5, [[0, 1], [0, 0]])])
    assert is_triangularizable_with_nonsingular(sp, sp.gens[0])


def test_tri_test_full_matrix_algebra():
    for n, f in ((2, GF5), (3, GF7)):
        gens = []
        for i in range(n):
            for j in range(n):
                rows = [[f.one if (a, b) == (i, j) else f.zero
                         for b in range(n)] for a in range(n)]
                gens.append(Mat(f, rows))
        sp = MatSpace.from_spanning(gens)
        assert not is_triangularizable_with_nonsingular(sp, Mat.identity(f, n))


def test_tri_test_input_checks():
    sp = MatSpace.from_spanning([
        Mat.identity(GF5, 2), Mat.from_ints(GF5, [[0, 1], [0, 0]])])
    with pytest.raises(SingularS):
        is_triangularizable_with_nonsingular(sp, sp.gens[1])
    with pytest.raises(NotMember):
        is_triangularizable_with_nonsingular(sp, Mat.from_ints(GF5, [[1, 0], [1, 1]]))


def test_tri_test_conjugation_invariant():
    rng = random.Random(77)
    base = [upper_triangular(rng, GF7, 3, force_diag=True),
            upper_triangular(rng, GF7, 3)]
    q = rand_nonsingular(rng, GF7, 3)
    p = rand_nonsingular(rng, GF7, 3)
    twisted = [q.matmul(b).matmul(p) for b in base]
    sp = MatSpace.from_spanning(twisted)
    assert is_triangularizable_with_nonsingular(sp, twisted[0])


def test_int_det_matches_fraction_det():
    rng = random.Random(13)
    q = RationalField()
    for _ in range(30):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        expect = Mat.from_ints(q, rows).det()
        assert Fraction(_int_det(rows)) == expect


def test_rational_sdit_nonsingular():
    mats = [[[1, 1], [0, 1]], [[0, 1], [0, 0]]]
    rep = rational_sdit(mats)
    assert rep.outcome == "nonsingular_combination"
    assert rep.prime_used in (3, 5)
    assert rep.prime_used <= max(rep.primes_tried)
    n = 2
    det = _int_det([[sum(c * m[i][j] for c, m in zip(rep.integer_coefficients, mats))
                     for j in range(n)] for i in range(n)])
    assert det != 0


def test_rational_sdit_inconclusive_on_common_kernel():
    mats = [[[1, 0], [0, 0]], [[2, 0], [1, 0]]]
    rep = rational_sdit(mats)
    assert rep.outcome == "inconclusive"
    assert rep.primes_tried


def test_check_outcome():
    sp = MatSpace.from_spanning([
        Mat.from_ints(GF5, [[0, 1], [0, 0]]),
        Mat.from_ints(GF5, [[1, 0], [0, 0]])])
    out = tri_algo(sp)
    assert check_outcome(sp, out) and not check_outcome(sp, out, c=2)
    assert not check_outcome(sp, TriOutcome("nonsingular", coefficients=[1, 1]))
    assert check_outcome(sp, TriOutcome("fail"))


def test_integer_nonsingular():
    mats = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    assert integer_nonsingular(mats, [1, 1])
    assert not integer_nonsingular(mats, [1, 0])
    for ints in ([1], [1, 1, 5, 7]):
        with pytest.raises(ValueError):
            integer_nonsingular(mats, ints)
    with pytest.raises(ValueError):
        integer_nonsingular([], [])
