"""Deterministic solver for the power overflow problem.

Given a square n x n space D and subspaces U, U', find an element X and an
exponent 1 <= l <= n with X^l(U) not inside U'.  The search is complete for
rank-1-spanned D; for other inputs failure is reported as a value, never
raised, so callers can fall back safely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .linalg import Mat, Subspace, kernel
from .spaces import MatSpace


@dataclass
class PoInstance:
    d: MatSpace
    u: Subspace
    u_prime: Subspace


@dataclass
class PoAnswer:
    found: bool
    ell: Optional[int] = None
    coefficients: Optional[list] = None


def _power_escapes(d: Mat, ell: int, u: Subspace, u_prime: Subspace) -> bool:
    """Check d^ell(u) not contained in u_prime, for an exponent 1 <= ell <= n."""
    if not 1 <= ell <= d.nrows:
        raise ValueError(f"exponent ell {ell} is outside 1..{d.nrows}")
    d_sp = MatSpace.of(d)
    for _ in range(ell):
        u = d_sp.image_of(u)
    return not u_prime.contains(u)


def find_ell(inst: PoInstance):
    """Smallest 1 <= j <= n with D^j(U) not inside U', plus [I_0, ..., I_(j-1)].

    I_0 = U and I_k = D(I_(k-1)) = D^k(U).  Returns (None, [I_0, ..., I_n])
    when D^n(U) stays inside U', which includes D = 0: then I_k = 0 for k >= 1.
    """
    d, u, u_prime = inst.d, inst.u, inst.u_prime
    images = [u]
    for j in range(1, d.nrows + 1):
        nxt = d.image_of(images[-1])
        if not u_prime.contains(nxt):
            return j, images
        images.append(nxt)
    return None, images


def helpful_subspaces(inst: PoInstance, ell: int, images: list[Subspace]) -> list[list]:
    """Coordinate bases, over D's basis, of the spaces H_1..H_ell of elements
    that only help at one position.

    H_i is the set of X in D with X(I_(j-1)) inside P_(ell-j) for all j != i,
    where I_k are find_ell's images and P_0 = U', P_k = D^-1(P_(k-1)): an
    element at any position j != i of a length-ell product still maps U
    into U'.  The orthogonals are images under the transpose space,
    P_0^perp = U'^perp and P_k^perp = D^T(P_(k-1)^perp).  Position j
    contributes the rows of _rows(d, I_(j-1), P_(ell-j)^perp).
    """
    d, u_prime = inst.d, inst.u_prime
    d_t = d.transpose_space()
    perps = [u_prime.orthogonal()]
    for _ in range(ell - 1):
        perps.append(d_t.image_of(perps[-1]))
    eqs = [_rows(d, images[j - 1], perps[ell - j]) for j in range(1, ell + 1)]
    return [kernel(Mat(d.field, [r for j, rows in enumerate(eqs) if j != i for r in rows],
                       d.dim)).basis
            for i in range(ell)]


def _rows(d: MatSpace, s: Subspace, perp: Subspace) -> list:
    """The rows [v . (B_k w)]_k over D's basis B_k, for w in s's basis and v in
    perp's: sum c_k B_k maps s into perp^perp iff c is orthogonal to every row."""
    f = d.field
    return [[f.dot(v, bw) for bw in bws] for bws in map(d.apply_each, s.basis)
            for v in perp.basis]


def _span(sp: MatSpace, cs: list, s: Subspace) -> Subspace:
    """The span of (sum_k c_k B_k) w over c in cs and w in s's basis."""
    f = sp.field
    return Subspace(f, sp.nrows, [[f.dot(c, col) for col in zip(*bws)]
                                  for bws in map(sp.apply_each, s.basis) for c in cs])


def solve_po(inst: PoInstance) -> PoAnswer:
    """Greedy construction of (X, ell) from the helpful subspaces.

    Fixes X_ell, then X_{ell-1}, ..., X_1 from the respective bases so each
    X_i maps H_(i-1) ... H_1(U) out of U' pulled back through the chosen
    X_ell ... X_(i+1); the sum X_1 + ... + X_ell then overflows at exponent ell.
    Every X is kept as its coordinates c over D's basis, and the pulled-back
    target T as T^perp: X^-1(T)^perp = X^T(T^perp).
    """
    d, u, u_prime = inst.d, inst.u, inst.u_prime
    ell, images = find_ell(inst)
    if ell is None:
        return PoAnswer(found=False)
    helpers = helpful_subspaces(inst, ell, images)

    prefixes = [u]
    for cs in helpers[:-1]:
        prefixes.append(_span(d, cs, prefixes[-1]))

    f = d.field
    perp = u_prime.orthogonal()
    coords = [f.zero] * d.dim
    for i in range(ell, 0, -1):
        rows = _rows(d, prefixes[i - 1], perp)
        for c in helpers[i - 1]:
            if any(f.nonzero(f.dot(c, r)) for r in rows):
                break
        else:
            return PoAnswer(found=False)
        perp = _span(d.transpose_space(), [c], perp)
        coords = [f.add(x, y) for x, y in zip(coords, c)]
    x = d.element(coords)
    assert _power_escapes(x, ell, u, u_prime), "power overflow check failed"
    return PoAnswer(found=True, ell=ell, coefficients=coords)
