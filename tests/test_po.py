"""Power overflow: minimal exponent, helpful subspaces, greedy assembly."""

import itertools
import random

import pytest

from symrank import (Mat, MatSpace, PoAnswer, PoInstance, RationalField, Subspace,
                     find_ell, helpful_subspaces, solve_po)
from symrank.po import _power_escapes
from conftest import GF5, GF7, rank_one_space, rand_subspace


def helper_spaces(inst, ell, images):
    """The helpful subspaces as matrix spaces, from their coordinate bases."""
    d = inst.d
    return [MatSpace(d.field, d.nrows, d.ncols, [d.element(c) for c in cs])
            for cs in helpful_subspaces(inst, ell, images)]


def jordan_instance():
    d = MatSpace.from_spanning([
        Mat.from_ints(GF5, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
        Mat.from_ints(GF5, [[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
    ])
    u = Subspace(GF5, 3, [[0, 0, 1]])
    u_prime = Subspace(GF5, 3, [[0, 1, 0], [0, 0, 1]])
    return PoInstance(d, u, u_prime)


def test_find_ell_jordan():
    ell, traces = find_ell(jordan_instance())
    assert ell == 2
    assert len(traces) == 2


def test_find_ell_none():
    d = MatSpace.from_spanning([Mat.from_ints(GF5, [[1, 0], [0, 0]])])
    u = Subspace(GF5, 2, [[1, 0]])
    ell, _ = find_ell(PoInstance(d, u, u))
    assert ell is None


def test_helpful_subspaces_jordan():
    inst = jordan_instance()
    ell, traces = find_ell(inst)
    hs = helper_spaces(inst, ell, traces)
    e12 = Mat.from_ints(GF5, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    e23 = Mat.from_ints(GF5, [[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    assert hs[0].dim == 1 and hs[0].contains(e23)
    assert hs[1].dim == 1 and hs[1].contains(e12)


def test_helpful_subspaces_ell_one_is_whole_space():
    d = MatSpace.from_spanning([Mat.identity(GF5, 2),
                                Mat.from_ints(GF5, [[0, 1], [0, 0]])])
    u = Subspace(GF5, 2, [[0, 1]])
    u_prime = Subspace.zero(GF5, 2)
    inst = PoInstance(d, u, u_prime)
    ell, traces = find_ell(inst)
    assert ell == 1
    hs = helper_spaces(inst, ell, traces)
    assert hs[0].dim == d.dim
    assert hs[0].gens == d.gens


def test_solve_po_jordan():
    ans = solve_po(jordan_instance())
    assert ans.found and ans.ell == 2
    d = jordan_instance().d.element(ans.coefficients)
    assert _power_escapes(d, 2, jordan_instance().u, jordan_instance().u_prime)


def test_power_escapes_refuses_ell_outside_one_to_n():
    # X^0(U) = U is outside U' here, but the exponent of an overflow is at least 1
    inst = jordan_instance()
    d = inst.d.element([1, 1])
    for ell in (0, 4):
        with pytest.raises(ValueError, match=f"exponent ell {ell} is outside 1..3"):
            _power_escapes(d, ell, inst.u, inst.u_prime)


def test_solve_po_no_escape():
    d = MatSpace.from_spanning([Mat.from_ints(GF5, [[1, 0], [0, 0]])])
    u = Subspace(GF5, 2, [[1, 0]])
    ans = solve_po(PoInstance(d, u, u))
    assert not ans.found
    # D = 0: every power maps U to 0, inside U'
    zero = MatSpace(GF5, 2, 2, [])
    assert not solve_po(PoInstance(zero, u, Subspace.zero(GF5, 2))).found


def test_solve_po_empty_helpers():
    # one Jordan block J = E12 + E23: J^2(e3) = e1 leaves U' = <e2, e3>, but
    # in the one-dimensional D = <J> no element helps at just one position
    d = MatSpace.of(Mat.from_ints(GF5, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
    inst = PoInstance(d, Subspace(GF5, 3, [[0, 0, 1]]),
                      Subspace(GF5, 3, [[0, 1, 0], [0, 0, 1]]))
    ell, images = find_ell(inst)
    assert ell == 2
    assert [h.dim for h in helper_spaces(inst, ell, images)] == [0, 0]
    assert not solve_po(inst).found


def brute_po(inst):
    """Minimal ell over all single elements, or None."""
    f = inst.d.field
    elems = list(f.elements())
    n = inst.d.ncols
    best = None
    for tup in itertools.product(elems, repeat=inst.d.dim):
        d = inst.d.element(list(tup))
        for ell in range(1, n + 1):
            if _power_escapes(d, ell, inst.u, inst.u_prime):
                best = ell if best is None else min(best, ell)
                break
    return best


def test_solve_po_matches_brute_on_rank_one():
    rng = random.Random(17)
    done = 0
    while done < 40:
        n = rng.randint(1, 3)
        sp = rank_one_space(rng, GF5, n, n, rng.randint(1, 3))
        if sp.dim == 0:
            continue
        inst = PoInstance(sp, rand_subspace(rng, GF5, n),
                          rand_subspace(rng, GF5, n))
        ans = solve_po(inst)
        expect = brute_po(inst)
        assert ans.found == (expect is not None)
        if ans.found:
            assert ans.ell == expect
            d = sp.element(ans.coefficients)
            assert _power_escapes(d, ans.ell, inst.u, inst.u_prime)
        done += 1


def chain_instance(f, coeffs, q=None):
    """Generator k is sum_i coeffs[k][i] E_(i, i+1) in F^n, n = len(coeffs[k]) + 1,
    with U = <e_n> and U' = <e_2, ..., e_n>; all of it taken through q when given."""
    n = len(coeffs[0]) + 1
    gens = [Mat.from_ints(f, [[row[r] if c == r + 1 else 0 for c in range(n)]
                              for r in range(n)]) for row in coeffs]
    cols = Mat.identity(f, n).rows
    if q is not None:
        q_inv = q.inverse()
        gens = [q.matmul(g).matmul(q_inv) for g in gens]
        cols = q.transpose().rows
    return PoInstance(MatSpace.from_spanning(gens, f, n, n),
                      Subspace(f, n, cols[n - 1:]), Subspace(f, n, cols[1:]))


def test_solve_po_forms_no_product(monkeypatch):
    # the greedy acts on subspaces only: U' is pulled back, never multiplied out
    instances = [(jordan_instance(), 2),
                 (chain_instance(GF5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 3)]

    def refuse(self, other):
        raise AssertionError("solve_po formed a matrix product")

    monkeypatch.setattr(Mat, "matmul", refuse)
    for inst, ell in instances:
        ans = solve_po(inst)
        assert ans.found and ans.ell == ell


def suffix_product_po(inst):
    """The greedy with the suffix product X_ell ... X_(i+1) formed, as it was
    before solve_po pulled U' back instead: the reference for the test below."""
    d, u, u_prime = inst.d, inst.u, inst.u_prime
    ell, images = find_ell(inst)
    if ell is None:
        return PoAnswer(found=False)
    coords = helpful_subspaces(inst, ell, images)
    helpers = [MatSpace(d.field, d.nrows, d.ncols, [d.element(c) for c in cs]) for cs in coords]

    prefixes = [u]
    for h in helpers[:-1]:
        prefixes.append(h.image_of(prefixes[-1]))

    f = d.field
    n = d.nrows
    suffix = Mat.identity(f, n)
    total = [f.zero] * d.dim
    for i in range(ell, 0, -1):
        h = helpers[i - 1]
        for g, c in zip(h.gens, coords[i - 1]):
            trial = suffix.matmul(g)
            if not u_prime.contains(MatSpace.of(trial).image_of(prefixes[i - 1])):
                break
        else:
            return PoAnswer(found=False)
        suffix = trial
        total = [f.add(x, y) for x, y in zip(total, c)]
    return PoAnswer(found=True, ell=ell, coefficients=total)


def _po_corpus(rng):
    """Random rank-1 spaces and bidiagonal chains over GF(5) and GF(7), a few over Q."""
    for f, count in ((GF5, 20), (GF7, 20), (RationalField(), 5)):
        def entries(rows, cols):
            return [[rng.randrange(f.spec.p) if f.spec.p else rng.randint(-2, 2)
                     for _ in range(cols)] for _ in range(rows)]

        for _ in range(count):
            n = rng.randint(2, 5)
            gens = [Mat.from_ints(f, entries(n, 1)).matmul(Mat.from_ints(f, entries(1, n)))
                    for _ in range(rng.randint(1, 3))]
            sp = MatSpace.from_spanning(gens, f, n, n)
            u, u_prime = (Subspace(f, n, Mat.from_ints(f, entries(rng.randint(0, n), n)).rows)
                          for _ in range(2))
            if sp.dim > 0:
                yield PoInstance(sp, u, u_prime)
            coeffs = entries(rng.randint(1, n), n - 1)
            q = Mat.from_ints(f, entries(n, n))
            if any(any(row) for row in coeffs):
                yield chain_instance(f, coeffs, q if q.rank() == n else None)


def test_solve_po_matches_suffix_product_greedy():
    rng = random.Random(29)
    greedy_no = found = 0
    for inst in _po_corpus(rng):
        ans, ref = solve_po(inst), suffix_product_po(inst)
        assert (ans.found, ans.ell, ans.coefficients) == \
            (ref.found, ref.ell, ref.coefficients)
        found += ans.found
        greedy_no += not ans.found and find_ell(inst)[0] is not None
    assert found > 0 and greedy_no > 0


def test_solve_po_forms_one_element_per_answer(monkeypatch):
    # PO works on coordinates over D's basis: the only element of D it forms is
    # the answer, for the closing _power_escapes check, and none for a "no"
    calls = []
    element = MatSpace.element

    def counting(self, coeffs):
        calls.append(coeffs)
        return element(self, coeffs)

    monkeypatch.setattr(MatSpace, "element", counting)
    found = no = 0
    for inst in _po_corpus(random.Random(29)):
        calls.clear()
        ans = solve_po(inst)
        assert calls == ([ans.coefficients] if ans.found else [])
        found += ans.found
        no += not ans.found
    assert found > 0 and no > 0
