"""PO helpers and the triangularizability test against their matrix-space definitions.

The library iterates images and preimages of subspaces; these tests build
the same objects from powers and products of matrix spaces instead.
"""

import itertools
import random

from symrank import (Mat, MatSpace, PoInstance, Subspace, find_ell,
                     helpful_subspaces, is_triangularizable_with_nonsingular)
from conftest import (GF5, GF7, rand_matrix, rand_nonsingular, rand_subspace,
                      rank_one_space, upper_triangular)


def space_power(d: MatSpace, k: int) -> MatSpace:
    """D^k as a matrix space; D^0 is the span of the identity."""
    acc = MatSpace.from_spanning([Mat.identity(d.field, d.nrows)])
    for _ in range(k):
        acc = acc.product(d)
    return acc


def elements(d: MatSpace):
    for coeffs in itertools.product(list(d.field.elements()), repeat=d.dim):
        yield d.element(list(coeffs))


def check_helpers_match_definition(inst: PoInstance) -> int:
    """H_i = {X in D : D^(ell-j) X D^(j-1)(U) <= U' for all j != i}."""
    ell, images = find_ell(inst)
    assert ell is not None
    d, u, u_prime = inst.d, inst.u, inst.u_prime
    hs = [MatSpace(d.field, d.nrows, d.ncols, [d.element(c) for c in cs])
          for cs in helpful_subspaces(inst, ell, images)]
    assert len(hs) == ell
    lefts = {j: space_power(d, ell - j) for j in range(1, ell + 1)}
    rights = {j: space_power(d, j - 1).image_of(u) for j in range(1, ell + 1)}
    for h in hs:
        assert all(d.contains(g) for g in h.gens)
    for x in elements(d):
        ok = {j: u_prime.contains(lefts[j].image_of(MatSpace.of(x).image_of(rights[j])))
              for j in lefts}
        for i, h in enumerate(hs, start=1):
            expect = all(ok[j] for j in ok if j != i)
            assert h.contains(x) == expect
    return ell


def bidiagonal_instance(rng, field, n, m):
    """Upper bidiagonal generators with U = <e_n>, U' = <e_2..e_n>: ell = n - 1."""
    elems = list(field.elements())
    gens = []
    for _ in range(m):
        rows = [[field.zero] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.choice(elems)
            if i + 1 < n:
                rows[i][i + 1] = rng.choice(elems[1:])
        gens.append(Mat(field, rows))
    unit = [[field.one if j == i else field.zero for j in range(n)] for i in range(n)]
    d = MatSpace.from_spanning(gens)
    return PoInstance(d, Subspace(field, n, unit[n - 1:]), Subspace(field, n, unit[1:]))


def test_helpful_subspaces_match_definition_long_chains():
    rng = random.Random(23)
    ells = []
    for field, n, m in ((GF5, 4, 2), (GF5, 4, 3), (GF7, 4, 2), (GF5, 5, 2), (GF7, 5, 2)):
        ells.append(check_helpers_match_definition(bidiagonal_instance(rng, field, n, m)))
    assert min(ells) >= 3


def test_helpful_subspaces_match_definition_random():
    rng = random.Random(31)
    done = 0
    ells = set()
    for trial in itertools.count():
        if done == 30:
            break
        field = GF5 if trial % 2 else GF7
        n = rng.randint(2, 4)
        if trial % 2:
            d = rank_one_space(rng, field, n, n, rng.randint(1, 2))
        else:
            d = MatSpace.from_spanning([rand_matrix(rng, field, n, n)
                                        for _ in range(rng.randint(1, 2))], field, n, n)
        u = rand_subspace(rng, field, n, max_dim=1)
        # U' = U + D(U) makes D(U) stay inside, so ell >= 2 when D^2(U) escapes
        u_prime = u.sum(d.image_of(u)) if trial % 3 else rand_subspace(rng, field, n)
        inst = PoInstance(d, u, u_prime)
        if find_ell(inst)[0] is None:
            continue
        ells.add(check_helpers_match_definition(inst))
        done += 1
    assert ells >= {1, 2}


def ideal_power_test(sp: MatSpace, s: Mat) -> bool:
    """Nilpotency of the commutator ideal, formed as matrix spaces."""
    n = sp.nrows
    s_inv = s.inverse()
    a_space = MatSpace.from_spanning(
        [b.matmul(s_inv) for b in sp.gens] + [Mat.identity(sp.field, n)])
    comms = a_space.commutator_space()
    if comms.is_zero():
        return True
    alg = a_space.generated_algebra()
    ideal = alg.product(comms).product(alg)
    acc = ideal
    for _ in range(n - 1):
        acc = acc.product(ideal)
    return acc.is_zero()


def test_tri_test_matches_ideal_power_test():
    rng = random.Random(41)
    outcomes = []
    for trial in range(32):
        field = GF5 if trial % 2 else GF7
        nonzero = list(field.elements())[1:]
        n = rng.randint(2, 4)
        kind = trial % 4
        if kind == 0:    # conjugated upper triangular: triangularizable
            base = [upper_triangular(rng, field, n, force_diag=True)]
            base += [upper_triangular(rng, field, n) for _ in range(rng.randint(1, 2))]
        elif kind == 1:  # random generators: the full algebra, generically
            base = [rand_nonsingular(rng, field, n)]
            base += [rand_matrix(rng, field, n, n) for _ in range(rng.randint(1, 2))]
        elif kind == 2:  # block triangular with one full 2x2 block
            base = [upper_triangular(rng, field, n, force_diag=True)]
            for _ in range(2):
                b = upper_triangular(rng, field, n)
                rows = [list(r) for r in b.rows]
                rows[1][0] = rng.choice(list(field.elements()))
                base.append(Mat(field, rows))
        else:            # identity and sparse generators
            base = [Mat.identity(field, n)]
            for _ in range(2):
                rows = [[field.zero] * n for _ in range(n)]
                for _ in range(rng.randint(1, 2)):
                    rows[rng.randrange(n)][rng.randrange(n)] = rng.choice(nonzero)
                base.append(Mat(field, rows))
        q = rand_nonsingular(rng, field, n)
        p = rand_nonsingular(rng, field, n)
        twisted = [q.matmul(b).matmul(p) for b in base]
        sp = MatSpace.from_spanning(twisted)
        pivot = twisted[0]
        got = is_triangularizable_with_nonsingular(sp, pivot)
        assert got == ideal_power_test(sp, pivot)
        if kind == 0:
            assert got
        outcomes.append(got)
    assert True in outcomes and False in outcomes


def test_tri_test_needs_the_invariant_closure():
    # every product of three commutators of <I, E12, E23 + E31> is zero,
    # but the ideal they generate is not nilpotent
    rows = [[[0, 1, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 1], [1, 0, 0]]]
    sp = MatSpace.from_spanning(
        [Mat.identity(GF7, 3)] + [Mat.from_ints(GF7, r) for r in rows])
    assert not ideal_power_test(sp, sp.gens[0])
    assert not is_triangularizable_with_nonsingular(sp, sp.gens[0])
