"""Generalized Wong sequences and the singularity-witness test.

The first and second Wong sequences of a pair (a, space) iterate preimages
of images (resp. images of preimages); their limits characterize the
largest/smallest fixed subspaces.  The witness test runs the second
sequence itself: a limit inside im(a) gives a cork-witness, and a term
outside im(a) gives a power overflow instance through a pseudo-inverse of a.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import DimMismatch, NotMember, NotSquare
from .linalg import (Mat, Subspace, _eliminate, _null_basis, _rref_with_transform, image,
                     kernel, pseudo_inverse)
from .po import PoInstance
from .spaces import MatSpace, _grow


class WongTrace:
    """Strictly monotone terms, the last the limit: term i is spanned by rows[:dims[i]]
    in F^n (spaces._grow), or, in a first-Wong trace, is their orthogonal.  Subspaces
    are built when read: the limit and its orthogonal once, the terms when asked."""

    def __init__(self, field, n: int, rows: list, dims: list[int], dual: bool = False):
        self._field, self._n, self._rows, self.dims, self._dual = field, n, rows, dims, dual

    def _term(self, d: int, perp: bool) -> Subspace:
        f, n = self._field, self._n
        if d == n:  # n independent rows span F^n
            return Subspace.zero(f, n) if perp else Subspace.full(f, n)
        return kernel(Mat(f, self._rows[:d], n)) if perp else Subspace(f, n, self._rows[:d])

    @cached_property
    def terms(self) -> list[Subspace]:
        return [self._term(d, self._dual) for d in self.dims]

    @cached_property
    def limit(self) -> Subspace:
        return self._term(self.dims[-1], self._dual)

    @cached_property
    def limit_orthogonal(self) -> Subspace:
        return self._term(self.dims[-1], not self._dual)


def _second_wong(a: Mat, sp: MatSpace, dual: bool = False) -> tuple[WongTrace, list, int]:
    """(trace, pulled, k): the terms, dual for first_wong, pulled spanning a^{-1}(W*),
    its first k rows ker a, by spaces._grow's delta map from one P a = R of rank r
    (_rref_with_transform).  ker a, off R's free columns, pulls W_0 = 0, which adds
    no rows.  a x = w is solvable iff P w vanishes below r, so each new w runs as
    P w, lower coordinates first, through one running echelon, one product per w
    (_dense_products): a row whose lower part cancels is P w' for a w' in W new to
    W meet im(a), and x with its upper part at R's pivots has a x = w'."""
    if a.nrows != sp.nrows or a.ncols != sp.ncols:
        raise DimMismatch("anchor matrix vs space dimensions")
    f, m, n = a.field, a.nrows, a.ncols
    red, p, pivots = _rref_with_transform(a)
    r, ker = len(pivots), _null_basis(f, n, red, pivots)
    pm = MatSpace(f, m, m, [Mat(f, p[r:] + p[:r], m)], [None])  # P as dense, not detected
    echelon, at = [(), ()], {c: m - r + i for i, c in enumerate(pivots)}

    def pull(rows: list) -> list:
        if not rows:
            return ker
        known = len(echelon[1])
        echelon[:] = _eliminate(f, [pm._dense_products(w)[0] for w in rows], *echelon,
                                reduced=False, native=True)[:2]
        new = [z if type(z) is list else f.unpack(z, m)  # below the rank cancelled
               for z, c in zip(echelon[0][known:], echelon[1][known:]) if c >= m - r]
        return [[z[at[j]] if j in at else f.zero for j in range(n)] for z in new]

    rows, dims, pulled = _grow(sp, [], pull)
    return WongTrace(f, m, rows, dims, dual), pulled, len(ker)


def first_wong(a: Mat, sp: MatSpace) -> WongTrace:
    """U_0 = V, U_{i+1} = space^{-1}(a(U_i)); stabilizes within n steps.  U_i is
    the orthogonal of the i-th second-Wong term of (a^T, space^T), taken when read."""
    return _second_wong(a.transpose(), sp.transpose_space(), dual=True)[0]


def second_wong(a: Mat, sp: MatSpace) -> WongTrace:
    """W_0 = 0, W_{i+1} = space(a^{-1}(W_i)); stabilizes within n' steps."""
    return _second_wong(a, sp)[0]


@dataclass
class WitnessReport:
    exists: bool
    witness: Optional[Subspace] = None
    c: int = 0
    # when no witness exists: the power overflow instance (D, U, U')
    po: Optional[PoInstance] = None


def verify_witness(sp: MatSpace, u: Subspace, c: int) -> bool:
    """The universal certificate check: dim(u) - dim(space(u)) >= c."""
    return u.dim - sp.image_of(u).dim >= c


def witness_test(a: Mat, sp: MatSpace) -> WitnessReport:
    """Decide whether a cork(a)-singularity witness exists, via the second Wong sequence.

    The terms grow, so all stay inside im(a) iff the limit W* does: iff dim a^{-1}(W*)
    - dim W* = dim ker a, as dim a^{-1}(W) = dim(W meet im a) + dim ker a, with ker a
    = a^{-1}(0) the sequence's first pull; only these dimensions are read.  Then a is
    of maximum rank, c = dim ker a, and a^{-1}(W*), built only then, a cork-witness.
    Otherwise, with a pseudo-inverse A', the terms are W_i = D^i(U), i >= 1, for
    D = space . A' and U = ker(a A') up to the first one outside U' = im(a): the
    power overflow instance, the one place im(a) and A' are built.  D is
    sp.times(A'): a rank-one x y^T gives x (A'^T y)^T, no matmul.
    """
    if a.nrows != a.ncols:
        raise NotSquare("witness test needs a square space (pad first)")
    if not sp.contains(a):
        raise NotMember("anchor matrix is not in the space")
    trace, pulled, cork = _second_wong(a, sp)  # pulled spans a^{-1}(W*)
    if len(pulled) - trace.dims[-1] != cork:  # W* is not inside im(a)
        a_pi = pseudo_inverse(a)
        u = kernel(a.matmul(a_pi))
        return WitnessReport(exists=False, po=PoInstance(sp.times(a_pi), u, image(a)))
    witness = Subspace(a.field, a.ncols, pulled)
    assert verify_witness(sp, witness, cork), "witness failed its own check"
    return WitnessReport(exists=True, witness=witness, c=cork)
