"""Constructive SDIT for triangularizable spaces and the rational pipeline.

The recursive algorithm compresses along the limit of a first Wong
sequence: the nonsingular block it certifies is split off and the induced
action on the quotient is handled by recursion.  Triangularizability
itself (given a nonsingular element) reduces to nilpotency of the
commutator ideal, tested by iterating the ideal on subspaces of F^n.
Over the integers the problem is reduced modulo enough small primes to
cover a determinant bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .errors import EmptySpace, FieldTooSmall, NotMember, NotSquare, SingularS
from .fields import FieldSpec, _is_prime, make_field
from .linalg import Mat, Subspace, kernel, raise_rank
from .spaces import MatSpace, _grow
from .wong import first_wong, verify_witness


@dataclass
class TriOutcome:
    kind: str                          # nonsingular | witness | fail
    coefficients: Optional[list] = None
    witness: Optional[Subspace] = None


def _tri(mats: list[Mat], n: int, field, skip: Optional[int] = None) -> TriOutcome:
    """One level: the first witness among the generators' first-Wong limits U*,
    else recursion on the quotient by the first nonzero U*. Limits are taken in
    order up to that one, the rest only after a sub-outcome that is not
    nonsingular: a nonsingular one makes the space nonsingular, so no witness.

    skip is the generator B_j whose limit U* the level above recursed on. There
    B(U*) = B_j(U*), and U* lies in every term, so B_j's sequence here, pulled
    back, is U_(i+1) = B^-1(B_j(U_i) + B(U*)) = B^-1(B_j(U_i)): the sequence
    above, whose limit U* is 0 here. A zero limit is never a witness nor the
    one recursed on, so it is not computed.

    A nonsingular E on the quotient lifts to lam B_j + E for one of n + 1 values
    of lam: det(lam B_j + E) is det on U* times det on the quotient, the first
    with leading coefficient det(B_j|U*) != 0 and the second nonzero at lam = 0,
    so it is a nonzero polynomial of degree <= n.

    mats has no common kernel: tri_algo tests the top level once, and a quotient
    by U* = B^-1(B_j(U*)), where B(U*) = B_j(U*), has B^-1(B(U*)) = U*."""
    m = len(mats)
    span = MatSpace(field, n, n, mats)  # unpruned, so coefficients index mats
    traces = ((k, first_wong(b, span)) for k, b in enumerate(mats) if k != skip)
    for j, trace in traces:
        u_star = trace.limit
        bu = span.image_of(u_star)
        if bu.dim < u_star.dim:
            return TriOutcome("witness", witness=u_star)
        if u_star.dim > 0:
            break
    else:
        return TriOutcome("fail")

    if u_star.dim == n:
        # nothing left to recurse on; B_j alone is nonsingular on the block
        sub = TriOutcome("nonsingular", coefficients=[field.zero] * m)
    else:
        # quotient maps F^n -> F^n/U*: their kernels are U* and B(U*)
        perp = trace.limit_orthogonal
        # row r of q B_k is B_k^T r, for every k at once on the transpose space;
        # q B_k at perp's pivot columns is q B_k times a right inverse of perp's RREF
        qb = list(map(span.transpose_space().apply_each, bu.orthogonal().basis))
        induced = [Mat(field, [[x[k][c] for c in perp.pivots] for x in qb]) for k in range(m)]
        sub = _tri(induced, n - u_star.dim, field, j)

        if sub.kind != "nonsingular":
            later = next((t.limit for _, t in traces if verify_witness(span, t.limit, 1)),
                         None)
            if later is not None:
                return TriOutcome("witness", witness=later)
        if sub.kind == "witness":
            p = perp.basis_matrix()
            return TriOutcome("witness", witness=MatSpace.of(p).preimage_of(sub.witness))
        if sub.kind == "fail":
            return TriOutcome("fail")

    found = raise_rank(span.element(sub.coefficients), mats[j], n)
    if found is None:
        raise AssertionError("no nonsingular lam B_j + E among n + 1 values of lam")
    coeffs = list(sub.coefficients)
    coeffs[j] = field.add(coeffs[j], found[0])
    return TriOutcome("nonsingular", coefficients=coeffs)


def _sdit_space(sp: MatSpace) -> None:
    """Refuse a space that SDIT is not defined on: a non-square or empty one."""
    if sp.nrows != sp.ncols:
        raise NotSquare("SDIT is defined for square spaces")
    if sp.dim == 0:
        raise EmptySpace("empty generator list")


def check_outcome(sp: MatSpace, out: TriOutcome, c: int = 1) -> bool:
    """The claim of a tri_algo outcome on sp: a full-rank combination of sp's
    basis, or a witness U with dim U - dim sp(U) >= max(1, c); fail claims
    nothing.  A space tri_algo refuses is refused (_sdit_space), and so is any
    other kind (ValueError)."""
    _sdit_space(sp)
    if out.kind == "nonsingular":
        return sp.element(out.coefficients).rank() == sp.nrows
    if out.kind == "witness":
        return verify_witness(sp, out.witness, max(1, c))
    if out.kind == "fail":
        return True
    raise ValueError(f"unknown tri_algo outcome {out.kind!r}")


def tri_algo(sp: MatSpace) -> TriOutcome:
    """Run the recursion on sp's generators; coefficients refer to their positions."""
    _sdit_space(sp)
    n = sp.nrows
    card = sp.field.cardinality()
    if card is not None and card < n + 1:
        raise FieldTooSmall(f"need at least {n + 1} field elements")
    ck = kernel(Mat(sp.field, [r for b in sp.gens for r in b.rows]))  # common kernel
    out = TriOutcome("witness", witness=ck) if ck.dim > 0 else _tri(sp.gens, n, sp.field)
    assert check_outcome(sp, out), "outcome failed its own check"
    return out


def is_triangularizable_with_nonsingular(sp: MatSpace, s: Mat) -> bool:
    """Triangularizability over some extension, tested through s.

    A, the span of the space times s^{-1}, holds I = s s^{-1}. The commutators
    C of A generate an ideal J, and the space is triangularizable iff J^n(F^n) = 0.
    V <- cl(C(V)) from V = F^n gives J^k(F^n), where cl is the A-invariant
    closure: every V is A-invariant, so cl(C(V)) = J(V). The terms X, A(X), ...
    of cl(X) grow, as I is in A, so each maps only the rows it adds (spaces._grow).
    """
    n = sp.nrows
    if sp.nrows != sp.ncols:
        raise NotSquare("triangularizability is defined for square spaces")
    try:
        s_inv = s.inverse()
    except ZeroDivisionError:
        raise SingularS("pivot matrix must be nonsingular") from None
    if not sp.contains(s):
        raise NotMember("pivot matrix is not in the space")
    a_space = MatSpace.from_spanning([b.matmul(s_inv) for b in sp.gens])
    comms = a_space.commutator_space()
    v = Subspace.full(sp.field, n)
    for _ in range(n):
        v = _grow(a_space, comms.image_of(v))[0][-1]
    return v.dim == 0


# ---------------------------------------------------------------------------
# rational pipeline
# ---------------------------------------------------------------------------

@dataclass
class RationalSditReport:
    outcome: str                       # nonsingular_combination | inconclusive
    prime_used: Optional[int] = None
    integer_coefficients: Optional[list[int]] = None
    primes_tried: Optional[list[int]] = None
    bound_used: int = 0


def _int_det(rows: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rational_sdit(int_mats: list[list[list[int]]]) -> RationalSditReport:
    """Mod-p reduction pipeline for integer generator matrices.

    Tries ascending primes p > n until one succeeds or their product exceeds
    a Hadamard-style bound on |det| of any combination with coefficients in
    {0..n}.  primes_tried lists the primes tried, in order.  A nonsingular
    mod-p outcome needs no check over Z: with its coefficients c_k lifted to
    [0, p), det(sum c_k int_mats[k]) = det(E) (mod p) for the combination E
    over GF(p), whose rank n tri_algo has checked, so the determinant is nonzero.
    """
    if not int_mats:
        raise EmptySpace("empty generator list")
    m = len(int_mats)
    n = len(int_mats[0])
    b = max(1, max(abs(e) for mat in int_mats for row in mat for e in row))
    bound = (math.isqrt(n ** n) + 1) * (((n + 1) * m * b) ** n)

    primes, acc = [], 1
    for p in filter(_is_prime, itertools.count(max(n, 1) + 1)):
        primes.append(p)
        acc *= p
        gf = make_field(FieldSpec("prime", p=p))
        mats = [Mat.from_ints(gf, mat) for mat in int_mats]
        # unpruned, so coefficient positions stay those of int_mats
        out = tri_algo(MatSpace(gf, n, mats[0].ncols, mats))
        if out.kind == "nonsingular":
            return RationalSditReport("nonsingular_combination", prime_used=p,
                                      integer_coefficients=[c % p for c in out.coefficients],
                                      primes_tried=primes, bound_used=bound)
        if acc > bound:
            break
    return RationalSditReport("inconclusive", primes_tried=primes, bound_used=bound)
