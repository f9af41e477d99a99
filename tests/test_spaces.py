"""Matrix space arithmetic: spans, images, preimages, algebra closure."""

import random

import pytest

from symrank import Mat, MatSpace, Subspace
from symrank.errors import DimMismatch, IdentityMissing, NotSquare
from conftest import GF2, GF5, GF7, rand_matrix, rand_subspace


def e(field, n, i, j):
    rows = [[field.zero] * n for _ in range(n)]
    rows[i][j] = field.one
    return Mat(field, rows)


def test_from_spanning_prunes_dependent():
    e11 = e(GF7, 2, 0, 0)
    e22 = e(GF7, 2, 1, 1)
    sp = MatSpace.from_spanning([e11, e11.axpy(GF7.one, e11), e22])
    assert sp.dim == 2
    assert sp.gens == [e11, e22]
    zero_sp = MatSpace.from_spanning([Mat.zeros(GF7, 2, 2)])
    assert zero_sp.dim == 0 and zero_sp.is_zero()
    with pytest.raises(DimMismatch):
        MatSpace.from_spanning([])
    with pytest.raises(DimMismatch):
        MatSpace(GF7, 2, 2, [Mat.zeros(GF7, 2, 3)])


def test_contains_and_coordinates():
    sp = MatSpace.from_spanning([e(GF5, 2, 0, 0), e(GF5, 2, 1, 1)])
    m = Mat.from_ints(GF5, [[3, 0], [0, 4]])
    assert sp.contains(m)
    assert sp.coordinates_of(m) == [3, 4]
    assert sp.element([3, 4]) == m
    assert not sp.contains(e(GF5, 2, 0, 1))
    assert sp.coordinates_of(e(GF5, 2, 0, 1)) is None
    with pytest.raises(DimMismatch):
        sp.contains(Mat.zeros(GF5, 2, 3))


def test_image_of():
    sp = MatSpace.from_spanning([e(GF5, 2, 0, 0), e(GF5, 2, 1, 1)])
    assert sp.image_of(Subspace.full(GF5, 2)) == Subspace.full(GF5, 2)
    zero_sp = MatSpace(GF5, 2, 2, [])
    assert zero_sp.image_of(Subspace.full(GF5, 2)).dim == 0
    with pytest.raises(DimMismatch):
        sp.image_of(Subspace.full(GF5, 3))


def test_image_of_zero_reads_no_factors():
    # a zero subspace, or no rows, maps to zero before any rank-one detection
    sp = MatSpace.from_spanning([e(GF5, 2, 0, 0), e(GF5, 2, 0, 1)])
    assert sp.image_of(Subspace.zero(GF5, 2)) == Subspace.zero(GF5, 2)
    assert sp._image_rows([]) == []
    assert sp._factors is None


def test_preimage_of():
    sp = MatSpace.from_spanning([e(GF5, 2, 0, 0), e(GF5, 2, 1, 1)])
    assert sp.preimage_of(Subspace.full(GF5, 2)) == Subspace.full(GF5, 2)
    ident = MatSpace.from_spanning([Mat.identity(GF5, 3)])
    w = Subspace(GF5, 3, [[1, 2, 0]])
    assert ident.preimage_of(w) == w
    # no generators, or w = F^n: every vector qualifies
    assert MatSpace(GF5, 2, 2, []).preimage_of(Subspace(GF5, 2, [[1, 1]])) == Subspace.full(GF5, 2)
    assert MatSpace(GF5, 2, 3, []).preimage_of(Subspace.zero(GF5, 2)) == Subspace.full(GF5, 3)
    rect = MatSpace.from_spanning([Mat.from_ints(GF5, [[1, 2, 0], [0, 1, 4]])])
    assert rect.preimage_of(Subspace.full(GF5, 2)) == Subspace.full(GF5, 3)
    assert rect.preimage_of(Subspace.zero(GF5, 2)) == Subspace(GF5, 3, [[3, 1, 1]])
    with pytest.raises(DimMismatch):
        rect.preimage_of(Subspace.full(GF5, 3))
    # n x 0 matrices, and two 2 x 3 generators, against the duality formula
    flat = MatSpace.of(Mat.zeros(GF5, 2, 0))
    assert flat.preimage_of(Subspace.zero(GF5, 2)) == Subspace.full(GF5, 0)
    rect2 = MatSpace.from_spanning([Mat.from_ints(GF5, [[1, 2, 0], [0, 1, 4]]),
                                    Mat.from_ints(GF5, [[0, 0, 1], [3, 0, 0]])])
    for sp in (flat, rect2):
        for w in (Subspace.zero(GF5, 2), Subspace(GF5, 2, [[1, 3]]), Subspace.full(GF5, 2)):
            assert sp.preimage_of(w) == sp.transpose_space().image_of(w.orthogonal()).orthogonal()


def test_preimage_is_adjoint_of_image():
    """sp(U) <= W iff U <= sp^{-1}(W), on random small instances."""
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 3)
        gens = [rand_matrix(rng, GF5, n, n) for _ in range(rng.randint(1, 2))]
        sp = MatSpace.from_spanning(gens, GF5, n, n)
        w = rand_subspace(rng, GF5, n)
        pre = sp.preimage_of(w)
        assert w.contains(sp.image_of(pre))
        u = rand_subspace(rng, GF5, n)
        assert w.contains(sp.image_of(u)) == pre.contains(u)


def test_transpose_space():
    sp = MatSpace.from_spanning([e(GF5, 2, 0, 1)])
    assert sp.transpose_space().gens == [e(GF5, 2, 1, 0)]
    sym = MatSpace.from_spanning(
        [Mat.from_ints(GF5, [[0, 1], [1, 0]]), Mat.identity(GF5, 2)])
    assert sym.transpose_space().gens == sym.gens
    rng = random.Random(2)
    gens = [rand_matrix(rng, GF7, 3, 2) for _ in range(2)]
    sp = MatSpace.from_spanning(gens, GF7, 3, 2)
    back = sp.transpose_space().transpose_space()
    assert back.gens == sp.gens


def test_product_and_power():
    sp = MatSpace.from_spanning([e(GF5, 2, 0, 0), e(GF5, 2, 0, 1)])
    ident = MatSpace.from_spanning([Mat.identity(GF5, 2)])
    assert sp.product(ident).gens == sp.gens
    with pytest.raises(DimMismatch):
        sp.product(MatSpace.from_spanning([Mat.identity(GF5, 3)]))


def test_commutator_space():
    diag = MatSpace.from_spanning([e(GF5, 2, 0, 0), e(GF5, 2, 1, 1)])
    assert diag.commutator_space().is_zero()
    full = MatSpace.from_spanning([e(GF5, 2, i, j)
                                   for i in range(2) for j in range(2)])
    assert not full.commutator_space().is_zero()
    with pytest.raises(NotSquare):
        MatSpace.from_spanning([Mat.zeros(GF5, 2, 3)], GF5, 2, 3).commutator_space()


def test_generated_algebra():
    ident = MatSpace.from_spanning([Mat.identity(GF5, 2)])
    assert ident.generated_algebra().gens == ident.gens
    with pytest.raises(IdentityMissing):
        MatSpace.from_spanning([e(GF5, 2, 0, 1)]).generated_algebra()
    # E12 plus identity generates the upper triangular pair, closed
    up = MatSpace.from_spanning([Mat.identity(GF5, 2), e(GF5, 2, 0, 1)])
    alg = up.generated_algebra()
    assert alg.dim == 2
    full = MatSpace.from_spanning(
        [Mat.identity(GF5, 2), e(GF5, 2, 0, 1), e(GF5, 2, 1, 0)])
    assert full.generated_algebra().dim == 4
    with pytest.raises(NotSquare):
        MatSpace.from_spanning([Mat.zeros(GF5, 2, 3)], GF5, 2, 3).generated_algebra()
