"""Rank, determinant and kernel dimension against sympy, over Q and GF(p)."""

import random
from fractions import Fraction

import pytest

pytest.importorskip("sympy")

from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from symrank import Mat, PrimeField, RationalField, kernel


def low_rank(rng, f, nrows, ncols, inner, draw):
    """A product of nrows x inner and inner x ncols random factors."""
    left = Mat(f, [[draw(rng) for _ in range(inner)] for _ in range(nrows)])
    right = Mat(f, [[draw(rng) for _ in range(ncols)] for _ in range(inner)])
    return left.matmul(right)


def cases(f, draw, seed):
    rng = random.Random(seed)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.4:
            ncols = nrows
        inner = rng.randint(1, max(nrows, ncols))
        yield low_rank(rng, f, nrows, ncols, inner, draw)


def check(m, dm, scalar):
    assert m.rank() == dm.rank()
    assert kernel(m).dim == dm.nullspace().shape[0]
    if m.nrows == m.ncols:
        assert m.det() == scalar(dm.det())


@pytest.mark.parametrize("p", [2, 7, 101])
def test_prime_field_against_sympy(p):
    f, k = PrimeField(p), GF(p)
    for m in cases(f, lambda rng: rng.randrange(p), seed=p):
        dm = DomainMatrix([[k(e) for e in r] for r in m.rows], (m.nrows, m.ncols), k)
        check(m, dm, lambda d: int(d) % p)


def test_rationals_against_sympy():
    f = RationalField()
    draw = lambda rng: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    for m in cases(f, draw, seed=0):
        dm = DomainMatrix([[QQ(e.numerator, e.denominator) for e in r] for r in m.rows],
                          (m.nrows, m.ncols), QQ)
        check(m, dm, lambda d: Fraction(int(d.numerator), int(d.denominator)))
