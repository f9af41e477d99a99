"""Power overflow: minimal exponent, helpful subspaces, greedy assembly."""

import itertools
import random

from symrank import (Mat, MatSpace, PoInstance, Subspace, find_ell,
                     helpful_subspaces, solve_po)
from symrank.po import _power_escapes
from conftest import GF5, rank_one_space, rand_subspace


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
    hs = helpful_subspaces(inst, ell, traces)
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
    hs = helpful_subspaces(inst, ell, traces)
    assert hs[0].dim == d.dim


def test_solve_po_jordan():
    ans = solve_po(jordan_instance())
    assert ans.found and ans.ell == 2
    d = jordan_instance().d.element(ans.coefficients)
    assert _power_escapes(d, 2, jordan_instance().u, jordan_instance().u_prime)


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
    assert [h.dim for h in helpful_subspaces(inst, ell, images)] == [0, 0]
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
