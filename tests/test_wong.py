"""Wong sequences, their limits, duality, and the witness test."""

import importlib
import random

import pytest

from symrank import (Mat, MatSpace, PrimeField, RationalField, Subspace, distinct_elements,
                     find_ell, first_wong, image, kernel, pseudo_inverse, second_wong, smr,
                     spaces, verify_witness, witness_test)
from symrank.errors import DimMismatch, NotMember, NotSquare
from symrank.fields import extension_field
from symrank.oracles import sk3
from symrank.po import solve_po
from symrank.smr import greedy_start
from conftest import GF2, GF3, GF5, GF7, rand_matrix, rand_nonsingular, rank_one_space
from test_hidden import _rank_one_q, hidden_crown
from test_smr import _nonsingular, crown


def test_first_wong_identity_pair():
    ident = MatSpace.from_spanning([Mat.identity(GF5, 3)])
    trace = first_wong(Mat.identity(GF5, 3), ident)
    assert trace.limit == Subspace.full(GF5, 3)
    assert len(trace.terms) == 1


def test_first_wong_decreasing_no_duplicates():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 4)
        gens = [rand_matrix(rng, GF5, n, n) for _ in range(rng.randint(1, 3))]
        sp = MatSpace.from_spanning(gens, GF5, n, n)
        a = sp.gens[0] if sp.dim else Mat.zeros(GF5, n, n)
        trace = first_wong(a, sp)
        for u, v in zip(trace.terms, trace.terms[1:]):
            assert u.contains(v) and u != v
        assert trace.terms[-1] == trace.limit
        assert len(trace.terms) <= n + 1


def test_second_wong_nonsingular_anchor():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 3)
        a = rand_nonsingular(rng, GF7, n)
        sp = MatSpace.from_spanning([a, rand_matrix(rng, GF7, n, n)], GF7, n, n)
        trace = second_wong(a, sp)
        assert trace.limit.dim == 0


def test_wong_duality():
    rng = random.Random(14)
    for _ in range(40):
        n = rng.randint(1, 3)
        gens = [rand_matrix(rng, GF5, n, n) for _ in range(rng.randint(1, 2))]
        sp = MatSpace.from_spanning(gens, GF5, n, n)
        a = sp.gens[0] if sp.dim else Mat.zeros(GF5, n, n)
        w = second_wong(a, sp).limit
        u = first_wong(a.transpose(), sp.transpose_space()).limit
        assert w == u.orthogonal()


def test_verify_witness_edges():
    sp = MatSpace.from_spanning([Mat.from_ints(GF5, [[1, 0], [0, 0]])])
    assert verify_witness(sp, Subspace.zero(GF5, 2), 0)
    assert verify_witness(sp, Subspace(GF5, 2, [[0, 1]]), 1)
    assert not verify_witness(sp, Subspace.full(GF5, 2), 2)


def test_sk3_has_no_witness():
    sp = sk3(GF5)
    for u in (Subspace(GF5, 3, [[1, 0, 0]]),
              Subspace(GF5, 3, [[1, 0, 0], [0, 1, 0]]),
              Subspace.full(GF5, 3)):
        assert not verify_witness(sp, u, 1)


def test_witness_test_positive():
    # diag(1,0) is max rank here; B(ker a) = <e1> escapes im(a) never,
    # the second sequence stabilizes inside im(a) and F^2 is a 1-witness
    a = Mat.from_ints(GF5, [[1, 0], [0, 0]])
    sp = MatSpace.from_spanning([a, Mat.from_ints(GF5, [[0, 1], [0, 0]])])
    rep = witness_test(a, sp)
    assert rep.exists
    assert rep.c == 1
    assert verify_witness(sp, rep.witness, 1)


def test_witness_test_negative():
    a = Mat.from_ints(GF5, [[1, 0], [0, 0]])
    sp = MatSpace.from_spanning([a, Mat.from_ints(GF5, [[0, 1], [1, 0]])])
    rep = witness_test(a, sp)
    assert not rep.exists
    assert rep.po is not None


def test_po_instance_repeats_the_second_wong_terms(monkeypatch):
    # the paper's identity: W_i = D^i(U) up to the first term outside im(a),
    # so find_ell stops at that term's index i and holds U, W_1, ..., W_(i-1)
    module = importlib.import_module("symrank.smr")
    reports, real = [], module.witness_test

    def spy(a, space):
        reports.append((a, space, real(a, space)))
        return reports[-1][2]
    monkeypatch.setattr(module, "witness_test", spy)
    rng = random.Random(29)
    for f in (PrimeField(101), GF7, RationalField()):
        for k in (2, 3, 4, 5):
            twist = [_nonsingular(rng, f, 2 * k) for _ in range(2)]
            assert smr(crown(f, k, twist)).rank == 2 * k
    instances = [(a, sp, rep.po) for a, sp, rep in reports if not rep.exists]
    assert len(instances) == 3 * (2 + 3 + 4 + 5)  # greedy stops at k, then k rounds
    for a, sp, po in instances:
        terms = second_wong(a, sp).terms
        i = next(i for i, w in enumerate(terms) if not po.u_prime.contains(w))
        assert find_ell(po) == (i, [po.u] + terms[1:i])


def _containment_rule(a, sp):
    """The witness test by membership: W* inside im(a) gives the witness
    a^{-1}(W*) with c = n - dim im(a), and otherwise the PO instance on a
    pseudo-inverse A', (space . A', ker(a A'), im(a))."""
    im_a, limit = image(a), second_wong(a, sp).limit
    if im_a.contains(limit):
        return True, MatSpace.of(a).preimage_of(limit), a.nrows - im_a.dim, None
    a_pi = pseudo_inverse(a)
    return False, None, 0, ([b.matmul(a_pi) for b in sp.gens], kernel(a.matmul(a_pi)), im_a)


def _anchor_corpus(rng, f, sp):
    """The greedy start, random members, zero and, when smr reaches rank n
    over f itself, a nonsingular member."""
    n, draw = sp.nrows, (lambda: f.from_int(rng.randint(-2, 2))) if f.cardinality() is None \
        else (lambda: rng.choice(list(f.elements())))
    yield greedy_start(sp, n)[1]
    for _ in range(3):
        yield sp.element([draw() for _ in range(sp.dim)])
    yield Mat.zeros(f, n, n)
    res = smr(sp)
    if res.working_field == f.spec and res.rank == n:
        yield sp.element(res.coefficients)


@pytest.mark.parametrize("f", [GF2, GF3, PrimeField(101), extension_field(2, 2), RationalField()],
                         ids=["gf2", "gf3", "gf101", "gf4", "q"])
def test_witness_test_dimension_rule_matches_containment(f):
    # dim a^{-1}(W*) - dim W* = dim ker a decides W* <= im(a) as the membership
    # test does, with the same witness, c and PO instance on every anchor
    rng = random.Random(71)
    def spaces_():
        for k in (1, 2, 3):
            yield crown(f, k, (_nonsingular(rng, f, 2 * k), _nonsingular(rng, f, 2 * k)))
        for k in (3, 4):  # over GF(2) no hidden crown has k = 2
            yield hidden_crown(rng, f, k)
        for n, m in ((3, 2), (4, 3), (4, 6), (5, 10)):  # m < n: no anchor is nonsingular
            yield _rank_one_q(rng, n, m) if f.cardinality() is None \
                else rank_one_space(rng, f, n, n, m)
    outcomes = set()
    for sp in spaces_():
        for a in _anchor_corpus(rng, f, sp):
            rep, (exists, witness, c, po) = witness_test(a, sp), _containment_rule(a, sp)
            assert (rep.exists, rep.witness, rep.c) == (exists, witness, c)
            outcomes.add((exists, a.rank() == sp.nrows))
            if po is not None:
                assert (rep.po.d.gens, rep.po.u, rep.po.u_prime) == po
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_witness_test_nonsingular_anchor():
    rng = random.Random(6)
    a = rand_nonsingular(rng, GF7, 3)
    sp = MatSpace.from_spanning([a, rand_matrix(rng, GF7, 3, 3)], GF7, 3, 3)
    rep = witness_test(a, sp)
    assert rep.exists and rep.c == 0
    assert rep.witness.dim == 0


def test_witness_test_input_checks():
    a = Mat.from_ints(GF5, [[1, 0], [0, 0]])
    other = MatSpace.from_spanning([Mat.from_ints(GF5, [[0, 1], [0, 0]])])
    with pytest.raises(NotMember):
        witness_test(a, other)
    rect = MatSpace.from_spanning([Mat.zeros(GF5, 2, 3)], GF5, 2, 3)
    with pytest.raises(NotSquare):
        witness_test(Mat.zeros(GF5, 2, 3), rect)
    with pytest.raises(DimMismatch):
        second_wong(Mat.identity(GF5, 3), other)


def _sign_rank_one_space(rng, f, n):
    """n to 2n matrices u v^T, u and v nonzero with entries in {-1, 0, 1}."""
    def vec():
        while True:
            v = [rng.choice((-1, 0, 1)) for _ in range(n)]
            if any(v):
                return v
    gens = []
    for _ in range(rng.randint(n, 2 * n)):
        u, v = vec(), vec()
        gens.append(Mat.from_ints(f, [[x * y for y in v] for x in u]))
    return MatSpace.from_spanning(gens, f, n, n)


@pytest.mark.parametrize("f", [GF7, RationalField()], ids=["gf7", "q"])
def test_witness_test_po_instance_raises_rank(f):
    # without a witness, the PO instance built on the pseudo-inverse has a
    # solution b, and a + lambda b has a larger rank for one of n + 1 values
    rng = random.Random(11)
    ells = []
    for _ in range(400):
        n = rng.randint(3, 5)
        sp = _sign_rank_one_space(rng, f, n)
        a = sp.element([f.from_int(rng.randint(0, 1)) for _ in range(sp.dim)])
        rep = witness_test(a, sp)
        if rep.exists:
            continue
        ans = solve_po(rep.po)
        assert ans.found
        b = sp.element(ans.coefficients)
        r = a.rank()
        assert any(a.axpy(lam, b).rank() > r for lam in distinct_elements(f, n + 1))
        ells.append(ans.ell)
    assert max(ells) >= 2


def test_rank_one_detection_once_per_space(monkeypatch):
    # the space finds its factors once and its transpose inherits them; the
    # one-matrix spaces of the anchor, which the preimages pull back through,
    # detect nothing, and the PO space sp.times(A') keeps the factors
    rng, f = random.Random(67), PrimeField(101)
    sp = crown(f, 3, (rand_nonsingular(rng, f, 6), rand_nonsingular(rng, f, 6)))
    a = sp.element([1, 0, 0] * 3)
    calls, real = [], spaces._rank_one
    monkeypatch.setattr(spaces, "_rank_one", lambda f, g: calls.append(g) or real(f, g))
    first_wong(a, sp)
    assert witness_test(a, sp).po is not None
    assert len(calls) == sp.dim
