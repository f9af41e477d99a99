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
from .linalg import Mat, Subspace, image, kernel, pseudo_inverse
from .po import PoInstance
from .spaces import MatSpace, _grow


class WongTrace:
    """Strictly monotone terms, the last the limit. A first-Wong trace holds their
    orthogonals and takes them back when read: the limit alone costs one kernel."""

    def __init__(self, terms: list[Subspace], dual: bool = False):
        self._terms, self._dual = terms, dual

    @cached_property
    def terms(self) -> list[Subspace]:
        return [t.orthogonal() for t in self._terms] if self._dual else self._terms

    @cached_property
    def limit(self) -> Subspace:
        return self._terms[-1].orthogonal() if self._dual else self._terms[-1]

    @property
    def limit_orthogonal(self) -> Subspace:
        return self._terms[-1] if self._dual else self._terms[-1].orthogonal()


def _second_wong(a: Mat, sp: MatSpace) -> tuple[list[Subspace], Subspace, Subspace]:
    """The second Wong terms, a^{-1} of the limit and ker a = a^{-1}(0): Y_i = a^{-1}(W_i)
    grows, so W_(i+1) = W_i + space(Y_i) maps only the rows Y_i adds (spaces._grow)."""
    if a.nrows != sp.nrows or a.ncols != sp.ncols:
        raise DimMismatch("anchor matrix vs space dimensions")
    return _grow(sp, Subspace.zero(a.field, a.nrows), MatSpace.of(a).preimage_of)


def first_wong(a: Mat, sp: MatSpace) -> WongTrace:
    """U_0 = V, U_{i+1} = space^{-1}(a(U_i)); stabilizes within n steps.

    U_i is the orthogonal of the i-th second-Wong term of (a^T, space^T), which
    are taken in delta form and turned back only when read."""
    return WongTrace(_second_wong(a.transpose(), sp.transpose_space())[0], dual=True)


def second_wong(a: Mat, sp: MatSpace) -> WongTrace:
    """W_0 = 0, W_{i+1} = space(a^{-1}(W_i)); stabilizes within n' steps."""
    return WongTrace(_second_wong(a, sp)[0])


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
    = a^{-1}(0) the sequence's first pull.  Then a is of maximum rank, c = dim ker a,
    and a^{-1}(W*) is a cork-witness.  Otherwise, with a pseudo-inverse A', the terms
    are W_i = D^i(U), i >= 1, for D = space . A' and U = ker(a A') up to the first
    one outside U' = im(a): the power overflow instance, the one place im(a) and A'
    are built.  D is sp.times(A'): a rank-one x y^T gives x (A'^T y)^T, no matmul.
    """
    if a.nrows != a.ncols:
        raise NotSquare("witness test needs a square space (pad first)")
    if not sp.contains(a):
        raise NotMember("anchor matrix is not in the space")
    terms, witness, ker = _second_wong(a, sp)  # witness = a^{-1}(W*)
    if witness.dim - terms[-1].dim != ker.dim:  # W* is not inside im(a)
        a_pi = pseudo_inverse(a)
        u = kernel(a.matmul(a_pi))
        return WitnessReport(exists=False, po=PoInstance(sp.times(a_pi), u, image(a)))
    cork = ker.dim
    assert verify_witness(sp, witness, cork), "witness failed its own check"
    return WitnessReport(exists=True, witness=witness, c=cork)
