"""Exact matrices, canonical subspaces, kernels, pseudo-inverses."""

import random

import pytest

from symrank import (Mat, PrimeField, RationalField, Subspace, image, kernel,
                     pseudo_inverse, rref)
from symrank.fields import extension_field
from symrank.linalg import raise_rank
from symrank.errors import DimMismatch, NotSquare
from conftest import GF2, GF3, GF5, GF7, rand_matrix


def test_matmul_and_rank():
    a = Mat.from_ints(GF7, [[1, 2], [3, 4]])
    b = Mat.from_ints(GF7, [[0, 1], [1, 0]])
    assert a.matmul(b) == Mat.from_ints(GF7, [[2, 1], [4, 3]])
    assert a.rank() == 2
    assert Mat.from_ints(GF7, [[1, 2], [2, 4]]).rank() == 1
    assert Mat.zeros(GF7, 3, 2).rank() == 0


def test_shape_mismatch_raises():
    a = Mat.zeros(GF5, 2, 3)
    with pytest.raises(DimMismatch):
        a.matmul(Mat.zeros(GF5, 2, 3))
    with pytest.raises(DimMismatch):
        a.axpy(GF5.one, Mat.zeros(GF5, 3, 2))
    with pytest.raises(NotSquare):
        a.det()
    with pytest.raises(DimMismatch):
        Mat(GF5, [[1, 2], [3]])
    with pytest.raises(DimMismatch):
        a.apply([1, 2])
    with pytest.raises(DimMismatch):
        Subspace(GF5, 3, [[1, 2]])
    with pytest.raises(DimMismatch):
        Subspace.full(GF5, 3).contains_vector([1, 2])
    with pytest.raises(DimMismatch):
        Subspace.full(GF5, 3).contains(Subspace.full(GF5, 2))
    with pytest.raises(NotSquare):
        pseudo_inverse(a)
    with pytest.raises(NotSquare):
        a.inverse()


def test_raise_rank():
    # det(a + x b) = (1 + x)^2 - 1 = x (x + 2): singular at 0 and 5 over GF(7)
    a = Mat.from_ints(GF7, [[1, 1], [1, 1]])
    b = Mat.identity(GF7, 2)
    assert raise_rank(a, b, 2) == (1, a.axpy(1, b), 2)
    assert raise_rank(a, b, 1) == (0, a, 1)
    assert raise_rank(a, b, 3) is None
    # det(diag(x, x - 1)) vanishes at the first two elements, 0 and 1, not at the third
    c = Mat.from_ints(GF7, [[0, 0], [0, 6]])
    assert raise_rank(c, b, 2) == (2, c.axpy(2, b), 2)
    # GF(2) has only those two, so none reaches rank 2
    assert raise_rank(Mat.from_ints(GF2, [[0, 0], [0, 1]]), Mat.identity(GF2, 2), 2) is None


def _sum_of_rank_ones(rng, f, elems, n):
    """A sum of 0..n outer products of random vectors (so of rank <= n)."""
    a = Mat.zeros(f, n, n)
    for _ in range(rng.randint(0, n)):
        u, v = [rng.choice(elems) for _ in range(n)], [rng.choice(elems) for _ in range(n)]
        a = a.axpy(f.one, Mat(f, [[f.mul(x, y) for y in v] for x in u]))
    return a


@pytest.mark.parametrize("f", [GF2, GF3, GF5, GF7, extension_field(2, 2), RationalField()],
                         ids=["gf2", "gf3", "gf5", "gf7", "gf4", "q"])
def test_raise_rank_matches_a_scan_of_the_whole_field(f):
    """raise_rank's target + 1 elements hold the first of the whole field (Q:
    of 0..3n+2) that reaches the target, or none does."""
    rng = random.Random(f.spec.p or 0)
    card = f.cardinality()
    elems = list(f.elements()) if card else [f.from_int(c) for c in range(-2, 3)]
    for n in range(1, 6):
        scan = list(f.elements()) if card else list(map(f.from_int, range(3 * n + 3)))
        for _ in range(6):
            a, b = (_sum_of_rank_ones(rng, f, elems, n) for _ in range(2))
            for target in range(a.rank(), a.rank() + 3):
                c = next((c for c in scan if a.axpy(c, b).rank() >= target), None)
                got = raise_rank(a, b, target)
                assert got == (None if c is None else (c, a.axpy(c, b), a.axpy(c, b).rank()))


def test_rref():
    i3 = Mat.identity(GF5, 3)
    assert rref(i3) == (i3, 3)
    r, rank = rref(Mat.from_ints(GF5, [[2, 4], [1, 2]]))
    assert rank == 1
    assert r == Mat.from_ints(GF5, [[1, 2], [0, 0]])


def test_det_and_inverse():
    a = Mat.from_ints(GF7, [[2, 1], [1, 1]])
    assert a.det() == 1
    assert a.matmul(a.inverse()) == Mat.identity(GF7, 2)
    q = RationalField()
    b = Mat.from_ints(q, [[2, 0], [0, 3]])
    assert b.det() == q.from_int(6)
    assert b.inverse().matmul(b) == Mat.identity(q, 2)


def test_kernel_image_basic():
    d = Mat.from_ints(GF5, [[1, 0], [0, 0]])
    assert kernel(d) == Subspace(GF5, 2, [[0, 1]])
    assert image(d) == Subspace(GF5, 2, [[1, 0]])
    z = Mat.zeros(GF5, 2, 3)
    assert kernel(z) == Subspace.full(GF5, 3)
    assert image(z) == Subspace.zero(GF5, 2)


def test_zero_row_matrix_keeps_its_width():
    z = Mat.zeros(GF5, 0, 3)
    assert (z.nrows, z.ncols) == (0, 3)
    assert z != Mat.zeros(GF5, 0, 2)
    assert z.transpose().nrows == 3
    assert Mat.zeros(GF5, 2, 0).transpose() == Mat.zeros(GF5, 0, 2)
    assert rref(z) == (z, 0)
    assert kernel(z) == Subspace.full(GF5, 3)
    assert Subspace.zero(GF5, 4).basis_matrix() == Mat.zeros(GF5, 0, 4)
    assert Subspace.zero(GF5, 4).orthogonal() == Subspace.full(GF5, 4)


def test_rank_nullity_random():
    rng = random.Random(11)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(rng, GF5, n, m)
        assert a.rank() + kernel(a).dim == m
        assert image(a).dim == a.rank()
        for v in kernel(a).basis:
            assert all(GF5.is_zero(e) for e in a.apply(v))


def test_subspace_sum_intersect_complement():
    e1 = Subspace(GF5, 3, [[1, 0, 0]])
    e2 = Subspace(GF5, 3, [[0, 1, 0]])
    e12 = Subspace(GF5, 3, [[1, 0, 0], [0, 1, 0]])
    e23 = Subspace(GF5, 3, [[0, 1, 0], [0, 0, 1]])
    assert e1.sum(e2) == e12
    assert e12.orthogonal().sum(e23.orthogonal()).orthogonal() == e2


def test_subspace_canonical_equality():
    # different spanning sets, same subspace, equal canonical bases
    u = Subspace(GF7, 3, [[1, 2, 3], [4, 5, 6]])
    v = Subspace(GF7, 3, [[5, 0, 2], [0, 3, 6], [1, 2, 3]])
    assert (u == v) == (u.contains(v) and v.contains(u))


def test_orthogonal_dimensions():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 5)
        rows = [[rng.randrange(5) for _ in range(n)]
                for _ in range(rng.randint(0, n))]
        u = Subspace(GF5, n, rows)
        o = u.orthogonal()
        assert u.dim + o.dim == n
        assert o.orthogonal() == u


def test_orthogonal_basis_is_quotient_map():
    # the rows of U's orthogonal map F^n onto F^(n - dim U) with kernel U
    u = Subspace(GF5, 3, [[1, 0, 0]])
    p = u.orthogonal().basis_matrix()
    assert p.nrows == 2 and p.ncols == 3
    assert all(GF5.is_zero(e) for v in u.basis for e in p.apply(v))
    assert p.rank() == 2


def test_pseudo_inverse_examples():
    i3 = Mat.identity(GF5, 3)
    assert pseudo_inverse(i3) == i3
    d = Mat.from_ints(GF5, [[1, 0], [0, 0]])
    assert pseudo_inverse(d) == Mat.identity(GF5, 2)
    # diag(2,0,0) over GF(5): top-left becomes 2^{-1} = 3
    d2 = Mat.from_ints(GF5, [[2, 0, 0], [0, 0, 0], [0, 0, 0]])
    pi = pseudo_inverse(d2)
    assert pi.rows[0][0] == 3
    assert pi.rank() == 3


def test_pseudo_inverse_properties_random():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, GF7, n, n)
        pi = pseudo_inverse(a)
        assert pi.rank() == n
        # a' inverts a from im(a) back into a complement of ker(a)
        assert a.matmul(pi).matmul(a) == a
