"""Constructive maximum-rank search for rank-1-spanned matrix spaces.

From a greedy start, the driver alternates the witness test with the power
overflow solver: either the current element is certified maximal (with a
cork-singularity witness), or the overflow answer yields a direction whose
admixture raises the rank, from any start.  The loop runs over the input
field; a field with fewer than n + 1 elements is embedded into the
deterministic extension of at least n + 1 only when its lambda search or
PO runs out.  Over the rationals coefficients are renormalized into
{0,...,n} after every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .errors import EmptySpace
from .fields import Field, FieldSpec, ensure_size
from .linalg import Mat, Subspace, _eliminate, raise_rank
from .po import solve_po
from .spaces import MatSpace
from .wong import WitnessReport, verify_witness, witness_test


@dataclass
class SmrResult:
    status: str                      # max_rank_found | non_constructive_rank | failed_po
    coefficients: list
    rank: int
    witness: Optional[Subspace]
    working_field: FieldSpec
    ranks_visited: list = dc_field(default_factory=list)


def pad_square(sp: MatSpace) -> MatSpace:
    """Augment generators by zero rows or columns to make the space square."""
    n = max(sp.nrows, sp.ncols)
    if sp.nrows == sp.ncols:
        return sp
    f = sp.field
    padded = []
    for g in sp.gens:
        rows = [list(r) + [f.zero] * (n - sp.ncols) for r in g.rows]
        rows += [[f.zero] * n for _ in range(n - sp.nrows)]
        padded.append(Mat(f, rows))
    return MatSpace(f, n, n, padded)


def embed_space(sp: MatSpace, size: int) -> MatSpace:
    """The space over the deterministic field of at least `size` elements.

    Returns sp itself when its field is already large enough (or infinite);
    otherwise every generator is mapped entrywise by ensure_size's embedding.
    """
    big, embed = ensure_size(sp.field, size)
    if big is sp.field:
        return sp
    gens = [Mat(big, [[embed(e) for e in r] for r in g.rows]) for g in sp.gens]
    return MatSpace(big, sp.nrows, sp.ncols, gens)


def reduce_coefficients(sp: MatSpace, coeffs: list, a: Mat, r: int) -> tuple:
    """(coefficients, element, rank): each coefficient in order becomes the
    first value in {0,...,r} at which the running element a, of rank r, keeps
    rank r or more (raise_rank's r + 1 scalars contain one)."""
    f = sp.field
    out, rank = list(coeffs), r
    for i, b in enumerate(sp.gens):
        base = a.axpy(f.neg(out[i]), b)  # the running element without B_i
        out[i], a, rank = raise_rank(base, b, r)
    return out, a, rank


def greedy_start(sp: MatSpace, limit: int) -> tuple:
    """(coefficients, element, rank) of the sum of the generators, in basis
    order, that each raise the rank when added, stopping at rank `limit`.
    Coefficient 1 suffices: A + xy^T gains rank iff x, y are not in im A, row A,
    kept as echelons; a dense generator is taken if A + B has more rank, rebuilding them."""
    f = sp.field
    coeffs = [f.zero] * sp.dim
    a, r = Mat.zeros(f, sp.nrows, sp.ncols), 0
    cols = rows = ((), ())  # echelons (basis, pivots) of im A and row A
    for i, (g, xy) in enumerate(zip(sp.gens, sp.factors)):
        if r == limit:
            break
        if xy is None:
            cand = a.axpy(f.one, g)
            rank = cand.rank()
            if rank > r:
                coeffs[i], a, r = f.one, cand, rank
                cols, rows = (_eliminate(f, m.rows, reduced=False)[:2] for m in (a.transpose(), a))
            continue
        *more_cols, (x_lead,) = _eliminate(f, [xy[0]], *cols, reduced=False)
        if x_lead is not None:  # x is not in im A
            *more_rows, (y_lead,) = _eliminate(f, [xy[1]], *rows, reduced=False)
            if y_lead is not None:
                coeffs[i], a, r = f.one, a.axpy(f.one, g), r + 1
                cols, rows = more_cols, more_rows
    return coeffs, a, r


def smr(sp: MatSpace) -> SmrResult:
    """Maximum-rank search: the greedy start, then augmentation until certified.

    The loop runs over sp's own field.  Only raise_rank's lambda, among r + 2
    <= n + 1 scalars (lambda = 0 leaves rank r), needs a large field, so a field
    with fewer than n + 1 elements that runs out (PO finds no direction, or no
    lambda raises the rank) is embedded once into the deterministic extension
    of at least n + 1 elements, and the loop goes on there.  At rank sp.ncols
    no witness test runs: the padded columns, zero in every generator, span
    ker a, so W* = 0 and the witness is their span."""
    if sp.dim == 0:
        raise EmptySpace("cannot search an empty matrix space")
    work = pad_square(sp)
    n = work.nrows
    f = work.field
    coeffs, a, r = greedy_start(work, min(sp.nrows, sp.ncols))
    ranks = [r]

    for _ in range(n + 2):  # n rank increases and one embedding
        report = witness_test(a, work) if r < sp.ncols else WitnessReport(
            True, Subspace(f, n, Mat.identity(f, n).rows[r:], _canonical=True), n - r)
        if report.exists:
            return SmrResult(certified_status(sp.field, f), coeffs, r,
                             report.witness, f.spec, ranks)

        answer = solve_po(report.po)
        found = answer.found and raise_rank(a, work.element(answer.coefficients), r + 1)
        if found:
            lam, a, r = found
            coeffs = [f.add(c, f.mul(lam, bc)) for c, bc in zip(coeffs, answer.coefficients)]
            if f.cardinality() is None:
                coeffs, a, r = reduce_coefficients(work, coeffs, a, r)
            ranks.append(r)
        elif f.cardinality() is not None and f.cardinality() <= n:
            f, embed = ensure_size(f, n + 1)
            work = embed_space(work, n + 1)
            coeffs = [embed(c) for c in coeffs]
            a = work.element(coeffs)  # the embedding is a ring homomorphism
        else:
            return SmrResult("failed_po", coeffs, r, None, f.spec, ranks)
    raise AssertionError("rank increased more than n times")  # unreachable


def smr_rank_only(sp: MatSpace) -> int:
    """The maximum rank over smr's working field: the base field's own
    maximum when sp is spanned by rank-one matrices, whatever its size."""
    if sp.dim == 0:
        return 0
    return smr(sp).rank


def working_space(sp: MatSpace, spec: FieldSpec) -> MatSpace:
    """The padded space over the working field `spec`; ValueError if foreign."""
    space = embed_space(pad_square(sp), spec.cardinality() or 0)
    if space.field.spec != spec:
        raise ValueError("certificate working field does not match the instance")
    return space


def certified_status(base: Field, working: Field) -> str:
    """The status of a certified rank, the maximum over the working field.

    Over an extension that is the base field's maximum only when the space
    is spanned by rank-one matrices (the paper's promise); outside it the
    rank can exceed every base-field combination.  The combination is not
    an element of the space, so only one over the base field itself is
    constructive; non_constructive_rank does not mean that no base-field
    element reaches the rank."""
    return "max_rank_found" if working.spec == base.spec else "non_constructive_rank"


def check_claim(sp: MatSpace, res: SmrResult) -> bool:
    """The claim of an SMR result on the padded space over res.working_field
    (working_space): the combination has rank res.rank, and the witness has
    discrepancy at least n - rank, so no element has more.  A result without
    a witness is failed_po and claims only that lower bound; one with a
    witness has the status certified_status gives for the working field."""
    space = working_space(sp, res.working_field)
    status = "failed_po" if res.witness is None else certified_status(sp.field, space.field)
    return (res.status == status
            and space.element(res.coefficients).rank() == res.rank
            and (res.witness is None
                 or verify_witness(space, res.witness, space.nrows - res.rank)))
