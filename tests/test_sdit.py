"""Triangularizable SDIT, the nilpotency test, the rational pipeline."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from symrank import (Mat, MatSpace, PrimeField, RationalField, Subspace,
                     is_triangularizable_with_nonsingular, rational_sdit,
                     tri_algo, verify_witness)
from symrank import sdit
from symrank.cli import main
from symrank.errors import EmptySpace, FieldTooSmall, NotMember, NotSquare, SingularS
from symrank.fields import distinct_elements
from symrank.linalg import kernel
from symrank.oracles import sk3
from symrank.sdit import TriOutcome, _int_det, check_outcome
from symrank.wong import first_wong
from conftest import GF5, GF7, rand_nonsingular, upper_triangular
from test_acceptance import _int_matmul, _signed_permutation

GF101 = PrimeField(101)


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


@pytest.mark.parametrize("out", [
    TriOutcome("fail"), TriOutcome("nonsingular", coefficients=[]),
    TriOutcome("witness", witness=Subspace.zero(GF5, 3))], ids=["fail", "nonsingular", "witness"])
def test_check_outcome_refuses_what_tri_algo_refuses(out):
    # the checker holds no claim on a space the solver refuses, not even fail
    with pytest.raises(NotSquare, match="SDIT is defined for square spaces"):
        check_outcome(MatSpace.from_spanning([Mat.zeros(GF5, 2, 3)], GF5, 2, 3), out)
    with pytest.raises(EmptySpace, match="empty generator list"):
        check_outcome(MatSpace(GF5, 3, 3, []), out)


def _single_lam(field, n, b, e):
    """(lam, 1) for the first of n + 1 values of lam with lam B_j + E nonsingular:
    the step _tri takes."""
    return next((lam, field.one) for lam in distinct_elements(field, n + 1)
                if e.axpy(lam, b).rank() == n)


def _lam_mu_pair(field, n, b, e):
    """The first pair (lam, mu), lam the outer loop, with lam B_j + mu E
    nonsingular: the search of up to (n + 1)^2 pairs _tri made before."""
    values = distinct_elements(field, n + 1)
    return next((lam, mu) for lam in values for mu in values
                if Mat.zeros(field, n, n).axpy(lam, b).axpy(mu, e).rank() == n)


def _eager_tri(mats, n, field, search=_single_lam, mus=None):
    """The recursion with every first-Wong limit of a level taken before any is
    looked at: the first witness among them, else the first nonzero one. The
    last step lifts E as lam B_j + mu E, (lam, mu) = search(field, n, B_j, E);
    the mu of each level with E != 0 is appended to mus when given."""
    m = len(mats)
    ck = kernel(Mat(field, [r for b in mats for r in b.rows]))
    if ck.dim > 0:
        return TriOutcome("witness", witness=ck)
    span = MatSpace(field, n, n, mats)
    limits = [first_wong(b, span).limit for b in mats]
    for u_star in limits:
        if verify_witness(span, u_star, 1):
            return TriOutcome("witness", witness=u_star)
    j = next((i for i, u in enumerate(limits) if u.dim > 0), None)
    if j is None:
        return TriOutcome("fail")
    u_star = limits[j]
    if u_star.dim == n:
        sub = TriOutcome("nonsingular", coefficients=[field.zero] * m)
    else:
        perp = u_star.orthogonal()
        q = span.image_of(u_star).orthogonal().basis_matrix()
        unit = Mat.identity(field, n).rows
        r = Mat(field, [unit[c] for c in perp.pivots]).transpose()
        sub = _eager_tri([q.matmul(b).matmul(r) for b in mats], n - u_star.dim, field,
                         search, mus)
        if sub.kind == "witness":
            return TriOutcome("witness", witness=MatSpace.of(
                perp.basis_matrix()).preimage_of(sub.witness))
        if sub.kind == "fail":
            return TriOutcome("fail")
    e = span.element(sub.coefficients)
    lam, mu = search(field, n, mats[j], e)
    if mus is not None and not e.is_zero():
        mus.append(mu)
    coeffs = [field.mul(mu, c) for c in sub.coefficients]
    coeffs[j] = field.add(coeffs[j], lam)
    return TriOutcome("nonsingular", coefficients=coeffs)


def _small_spaces(seed, count):
    """Seeded square spaces over GF(5) and GF(7) with n <= 4 and m <= 4 generators:
    raw, upper triangular, or upper triangular conjugated by random nonsingular
    matrices. Entries are zero half the time, and in half of the triangular
    spaces one diagonal position is zero in every generator, so that witnesses
    are common."""
    rng = random.Random(seed)
    for _ in range(count):
        f = rng.choice((GF5, GF7))
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        kind = rng.choice(("raw", "upper", "conj"))
        z = rng.randrange(n) if rng.random() < 0.5 else None

        def entry(i, j):
            if kind != "raw" and (i > j or i == j == z):
                return 0
            return rng.randrange(f.p) if rng.random() < 0.5 else 0
        gens = [Mat.from_ints(f, [[entry(i, j) for j in range(n)] for i in range(n)])
                for _ in range(m)]
        if kind == "conj":
            q, p = rand_nonsingular(rng, f, n), rand_nonsingular(rng, f, n)
            gens = [q.matmul(b).matmul(p) for b in gens]
        yield MatSpace(f, n, n, gens)


def test_tri_algo_matches_eager_reference():
    kinds = set()
    for sp in _small_spaces(6, 400):
        out = tri_algo(sp)
        assert out == _eager_tri(sp.gens, sp.nrows, sp.field)
        kinds.add(out.kind)
    assert kinds == {"nonsingular", "witness", "fail"}


def test_single_lam_step_matches_pair_search():
    # the same kinds and witnesses as the (lam, mu) pair search, and other
    # coefficients only where a level with E != 0 took mu != 1
    changed = 0
    for sp in itertools.chain(_small_spaces(6, 1600), _triangular_spaces(8, 60)):
        out, mus = tri_algo(sp), []
        ref = _eager_tri(sp.gens, sp.nrows, sp.field, _lam_mu_pair, mus)
        assert (out.kind, out.witness) == (ref.kind, ref.witness)
        if out.kind == "nonsingular":
            assert check_outcome(sp, out)
            if out.coefficients != ref.coefficients:
                assert any(mu != 1 for mu in mus)
                changed += 1
    assert changed == 16


def test_single_lam_step_changes_coefficients():
    # instance 909 of _small_spaces(6, ...), over GF(7): the level recurses on
    # B_0, and B_0, E = B_1 and B_0 + B_1 are singular, so the pair search took
    # (lam, mu) = (1, 2) and the single lam loop takes lam = 2. (A B_j that is
    # nonsingular alone never differs: its limit is F^n, so E = 0.)
    sp = MatSpace(GF7, 3, 3, [Mat.from_ints(GF7, rows) for rows in (
        [[1, 0, 6], [0, 6, 0], [0, 1, 0]], [[1, 0, 0], [0, 0, 6], [2, 0, 0]])])
    assert [sp.element(c).rank() for c in ([1, 0], [0, 1], [1, 1])] == [2, 2, 2]
    mus = []
    ref = _eager_tri(sp.gens, 3, GF7, _lam_mu_pair, mus)
    assert ref.coefficients == [1, 2] and mus == [2]
    out = tri_algo(sp)
    assert out.kind == "nonsingular" and out.coefficients == [2, 1]
    assert check_outcome(sp, out) and check_outcome(sp, ref)


def test_tri_algo_witness_from_a_later_limit():
    # instance 299 of _small_spaces(6, ...), over GF(5): B_1's limit is nonzero
    # and no witness, so the level recurses on it; the recursion ends in a
    # witness, and a later generator's limit, taken only then, is another
    # witness, which the eager order returns first
    sp = MatSpace(GF5, 3, 3, [Mat.from_ints(GF5, rows) for rows in (
        [[0, 0, 0], [0, 0, 3], [0, 0, 0]],
        [[1, 4, 4], [0, 0, 0], [0, 0, 0]],
        [[3, 0, 0], [0, 0, 0], [0, 0, 0]])])
    limits = [first_wong(b, sp).limit for b in sp.gens]
    assert limits[0].dim > 0 and not verify_witness(sp, limits[0], 1)
    out = tri_algo(sp)
    assert out.kind == "witness"
    assert out.witness == next(u for u in limits[1:] if verify_witness(sp, u, 1))


def test_tri_algo_stops_at_a_nonsingular_first_generator(monkeypatch):
    calls = []

    def counted(a, sp):
        calls.append(a)
        return first_wong(a, sp)
    monkeypatch.setattr(sdit, "first_wong", counted)
    rng = random.Random(5)
    sp = MatSpace(GF7, 3, 3, [rand_nonsingular(rng, GF7, 3),
                              upper_triangular(rng, GF7, 3), upper_triangular(rng, GF7, 3)])
    out = tri_algo(sp)
    assert out.kind == "nonsingular" and len(calls) == 1


def triangular_space(rng, n):
    """A GF(101) space of 2-4 upper triangular n x n generators, each diagonal
    entry zero 30% of the time, conjugated by random nonsingular matrices."""
    gens = [Mat.from_ints(GF101, [[0 if i > j or i == j and rng.random() < 0.3
                                   else rng.randrange(101) for j in range(n)]
                                  for i in range(n)])
            for _ in range(rng.randint(2, 4))]
    q, p = rand_nonsingular(rng, GF101, n), rand_nonsingular(rng, GF101, n)
    return MatSpace(GF101, n, n, [q.matmul(b).matmul(p) for b in gens])


def _triangular_spaces(seed, count):
    """Seeded triangular_space's, n = 6-10: most recurse, some several levels deep."""
    rng = random.Random(seed)
    for _ in range(count):
        yield triangular_space(rng, rng.randint(6, 10))


def _levels(monkeypatch):
    """Record the arguments of every level of the recursion."""
    levels, tri = [], sdit._tri

    def recorded(mats, n, field, skip=None):
        levels.append((mats, n, field, skip))
        return tri(mats, n, field, skip)
    monkeypatch.setattr(sdit, "_tri", recorded)
    return levels


def test_deep_recursion_of_the_workflow_space(monkeypatch):
    # the n = 12 space .github/workflows/tests.yml writes: nine levels, nonsingular
    levels = _levels(monkeypatch)
    out = tri_algo(triangular_space(random.Random(1129), 12))
    assert out.kind == "nonsingular" and [n for _, n, _, _ in levels] == [
        12, 11, 10, 8, 7, 5, 4, 3, 1]


def test_generator_recursed_on_has_zero_limit_below(monkeypatch):
    # the lemma behind _tri's skip: the generator whose first-Wong limit a level
    # recursed on has limit 0 on the induced space, computed here, not skipped
    levels = _levels(monkeypatch)
    checked = 0
    for sp in itertools.chain(_small_spaces(6, 400), _triangular_spaces(8, 60)):
        levels.clear()
        tri_algo(sp)
        for mats, n, field, skip in levels:
            assert (skip is None) == (n == sp.nrows)
            if skip is not None:
                assert first_wong(mats[skip], MatSpace(field, n, n, mats)).limit.dim == 0
                # and, as a quotient by a first-Wong limit, no common kernel
                assert kernel(Mat(field, [r for b in mats for r in b.rows])).dim == 0
                checked += 1
    assert checked >= 100


# four levels, n = 4, 3, 2, 1, recursing on B_1, B_2, B_3 in turn
FOUR_LEVELS = MatSpace(GF5, 4, 4, [Mat.from_ints(GF5, rows) for rows in (
    [[4, 2, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1]],
    [[0, 3, 0, 0], [0, 0, 1, 2], [0, 0, 1, 4], [0, 0, 0, 1]],
    [[0, 4, 2, 2], [0, 2, 0, 1], [0, 0, 0, 2], [0, 0, 0, 0]])])


def test_tri_algo_skips_the_generator_recursed_on(monkeypatch):
    # each level below the top skips the one above's generator: 5 first-Wong
    # calls, not 7
    levels = _levels(monkeypatch)
    calls = []

    def counted(a, sp):
        calls.append((sp.nrows, next(k for k, g in enumerate(sp.gens) if g is a)))
        return first_wong(a, sp)
    monkeypatch.setattr(sdit, "first_wong", counted)
    out = tri_algo(FOUR_LEVELS)
    assert out.kind == "nonsingular" and check_outcome(FOUR_LEVELS, out)
    assert [(n, skip) for _, n, _, skip in levels] == [(4, None), (3, 0), (2, 1), (1, 2)]
    assert calls == [(4, 0), (3, 1), (2, 0), (2, 2), (1, 0)]


def test_tri_algo_takes_the_common_kernel_once(monkeypatch):
    # the levels below the top are quotients by first-Wong limits, which have no
    # common kernel, so only the top level's is taken: 1 kernel call, not 4
    levels, calls = _levels(monkeypatch), []

    def counted(a):
        calls.append(a)
        return kernel(a)
    monkeypatch.setattr(sdit, "kernel", counted)
    out = tri_algo(FOUR_LEVELS)
    assert out.kind == "nonsingular" and len(levels) == 4 and len(calls) == 1


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
    rect = MatSpace.from_spanning([Mat.zeros(GF5, 2, 3)], GF5, 2, 3)
    with pytest.raises(NotSquare):
        is_triangularizable_with_nonsingular(rect, Mat.zeros(GF5, 2, 3))


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
    # an all-zero pivot column, and a swap: the draws above reach neither
    fixed = [[[0]], [[0, 1], [0, 2]], [[0, 1, 2], [0, 3, 4], [0, 5, 7]], [[0, 1], [1, 0]]]
    assert [_int_det(rows) for rows in fixed] == [0, 0, 0, -1]
    assert [Mat.from_ints(q, rows).det() for rows in fixed] == [0, 0, 0, -1]


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
    # every prime above n = 2 until their product passes the bound
    # (isqrt(2^2) + 1) ((2 + 1) m b)^2 = 3 * 12^2 = 432, m = b = 2: 3 * 5 * 7 * 11
    assert rep.bound_used == 432
    assert rep.primes_tried == [3, 5, 7, 11]


def test_check_outcome():
    sp = MatSpace.from_spanning([
        Mat.from_ints(GF5, [[0, 1], [0, 0]]),
        Mat.from_ints(GF5, [[1, 0], [0, 0]])])
    out = tri_algo(sp)
    assert check_outcome(sp, out) and not check_outcome(sp, out, c=2)
    assert not check_outcome(sp, TriOutcome("nonsingular", coefficients=[1, 1]))
    assert check_outcome(sp, TriOutcome("fail"))
    # a kind it does not know claims something it cannot check
    with pytest.raises(ValueError):
        check_outcome(sp, TriOutcome("nonsingular_combination", coefficients=[1, 1]))


def _criterion_09_spaces():
    """The triangularizable integer spaces of acceptance criterion 9, same seed."""
    rng = random.Random(109)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        tris = []
        for i in range(m):
            t = [[rng.randint(-3, 3) if j >= r else 0 for j in range(n)]
                 for r in range(n)]
            if i == 0:
                for r in range(n):
                    t[r][r] = rng.choice([-3, -2, -1, 1, 2, 3])
            tris.append(t)
        q = _signed_permutation(rng, n)
        p = _signed_permutation(rng, n)
        yield [_int_matmul(_int_matmul(q, t), p) for t in tris]


def test_mod_p_success_needs_no_integer_check(tmp_path, monkeypatch, capsys):
    # diag(3, 0) vanishes mod 3, so prime 3 yields a witness and prime 5 succeeds
    corpus = [*_criterion_09_spaces(), [[[3, 0], [0, 0]], [[0, 0], [0, 1]]]]
    reports = [rational_sdit(mats) for mats in corpus]
    assert (reports[-1].primes_tried, reports[-1].prime_used) == ([3, 5], 5)
    for mats, rep in zip(corpus, reports):
        assert rep.outcome == "nonsingular_combination"
        n = len(mats[0])
        combo = [[sum(c * mat[i][j] for c, mat in zip(rep.integer_coefficients, mats))
                  for j in range(n)] for i in range(n)]
        assert _int_det(combo) % rep.prime_used != 0

    def refuse(rows):
        raise AssertionError("an exact integer determinant was computed")

    monkeypatch.setattr(sdit, "_int_det", refuse)
    assert [rational_sdit(mats) for mats in corpus] == reports
    inst, cert = str(tmp_path / "inst.json"), str(tmp_path / "cert.json")
    for mats in corpus:
        with open(inst, "w") as fh:
            json.dump({"field": {"kind": "rational"}, "n": len(mats[0]),
                       "n_cols": len(mats[0]), "basis": mats}, fh)
        assert main(["sdit-tri", inst, "--mod-p", "-o", cert]) == 0
        assert main(["verify", inst, "--cert", cert]) == 0
    assert capsys.readouterr().out.split() == ["PASS"] * len(corpus)
