"""Generalized Wong sequences and the singularity-witness test.

The first and second Wong sequences of a pair (a, space) iterate preimages
of images (resp. images of preimages); their limits characterize the
largest/smallest fixed subspaces.  The witness test runs the second
sequence itself: a limit inside im(a) gives a cork-witness, and a term
outside im(a) gives a power overflow instance through a pseudo-inverse of a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DimMismatch, NotMember, NotSquare
from .linalg import Mat, Subspace, image, kernel, pseudo_inverse
from .po import PoInstance
from .spaces import MatSpace, run_to_fixpoint


@dataclass
class WongTrace:
    terms: list[Subspace]      # strictly monotone, last term is the limit

    @property
    def limit(self) -> Subspace:
        return self.terms[-1]


def first_wong(a: Mat, sp: MatSpace) -> WongTrace:
    """U_0 = V, U_{i+1} = space^{-1}(a(U_i)); stabilizes within n steps.

    The terms decrease, so a zero term is the limit and is not mapped again."""
    if a.nrows != sp.nrows or a.ncols != sp.ncols:
        raise DimMismatch("anchor matrix vs space dimensions")
    a_sp = MatSpace.of(a)
    terms = run_to_fixpoint(lambda u: sp.preimage_of(a_sp.image_of(u)) if u.dim else u,
                            Subspace.full(a.field, a.ncols))
    return WongTrace(terms)


def second_wong(a: Mat, sp: MatSpace) -> WongTrace:
    """W_0 = 0, W_{i+1} = space(a^{-1}(W_i)); stabilizes within n' steps."""
    if a.nrows != sp.nrows or a.ncols != sp.ncols:
        raise DimMismatch("anchor matrix vs space dimensions")
    a_sp = MatSpace.of(a)
    terms = run_to_fixpoint(lambda w: sp.image_of(a_sp.preimage_of(w)),
                            Subspace.zero(a.field, a.nrows))
    return WongTrace(terms)


@dataclass
class WitnessReport:
    exists: bool
    witness: Optional[Subspace] = None
    c: int = 0
    stopped_at: Optional[int] = None
    # when no witness exists: the power overflow instance (D, U, U') and the
    # index of the first term of the second Wong sequence outside im(a)
    po: Optional[PoInstance] = None


def verify_witness(sp: MatSpace, u: Subspace, c: int) -> bool:
    """The universal certificate check: dim(u) - dim(space(u)) >= c."""
    return u.dim - sp.image_of(u).dim >= c


def witness_test(a: Mat, sp: MatSpace) -> WitnessReport:
    """Decide whether a cork(a)-singularity witness exists, via the second Wong sequence.

    If every term stays inside im(a), a is of maximum rank and the preimage
    a^{-1}(W*) of the limit is a cork-witness.  Otherwise, with a pseudo-inverse
    A', the terms are W_i = D^i(U), i >= 1, for D = space . A' and U = ker(a A')
    up to the first one outside U' = im(a): the power overflow instance.
    """
    if a.nrows != a.ncols:
        raise NotSquare("witness test needs a square space (pad first)")
    if not sp.contains(a):
        raise NotMember("anchor matrix is not in the space")
    n = a.nrows
    im_a = image(a)
    terms = second_wong(a, sp).terms
    i = next((i for i, w in enumerate(terms) if not im_a.contains(w)), None)
    if i is not None:
        a_pi = pseudo_inverse(a)
        ba = MatSpace(sp.field, n, n, [b.matmul(a_pi) for b in sp.gens])
        u = kernel(a.matmul(a_pi))
        return WitnessReport(exists=False, stopped_at=i, po=PoInstance(ba, u, im_a))
    cork = n - im_a.dim
    witness = MatSpace.of(a).preimage_of(terms[-1])
    assert verify_witness(sp, witness, cork), "witness failed its own check"
    return WitnessReport(exists=True, witness=witness, c=cork)
