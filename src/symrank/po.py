"""Deterministic solver for the power overflow problem.

Given a square space D and subspaces U, U', find an element X and an
exponent l with X^l(U) not inside U'.  The search is complete for
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


class HelperSpace(MatSpace):
    """A subspace of D that keeps each generator's coordinates in D's basis."""

    __slots__ = ("coords",)

    def __init__(self, d: MatSpace, gens: list[Mat], coords: list):
        super().__init__(d.field, d.nrows, d.ncols, gens)
        self.coords = coords


@dataclass
class PoAnswer:
    found: bool
    ell: Optional[int] = None
    coefficients: Optional[list] = None


def _power_escapes(d: Mat, ell: int, u: Subspace, u_prime: Subspace) -> bool:
    """Check d^ell(u) not contained in u_prime."""
    d_sp = MatSpace.of(d)
    for _ in range(ell):
        u = d_sp.image_of(u)
    return not u_prime.contains(u)


def find_ell(inst: PoInstance):
    """Smallest j <= n with D^j(U) not inside U', plus [I_0, ..., I_(j-1)].

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


def helpful_subspaces(inst: PoInstance, ell: int,
                      images: list[Subspace]) -> list[HelperSpace]:
    """The spaces H_1..H_ell of elements that only help at one position.

    H_i is the set of X in D with X(I_(j-1)) inside P_(ell-j) for all j != i,
    where I_k are find_ell's images and P_0 = U', P_k = D^-1(P_(k-1)): an
    element at any position j != i of a length-ell product still maps U
    into U'.  The orthogonals are images under the transpose space,
    P_0^perp = U'^perp and P_k^perp = D^T(P_(k-1)^perp).  Position j
    contributes the rows [v . (B w) for B in D's basis] for w in I_(j-1)'s
    basis and v in the basis of P_(ell-j)^perp.
    """
    d, u_prime = inst.d, inst.u_prime
    f = d.field
    d_t = d.transpose_space()
    perps = [u_prime.orthogonal()]
    for _ in range(ell - 1):
        perps.append(d_t.image_of(perps[-1]))
    eqs = []
    for j in range(1, ell + 1):
        perp = perps[ell - j]
        rows = []
        for w in images[j - 1].basis:
            moved = Mat(f, [g.apply(w) for g in d.gens])  # row k is B_k w
            rows += [moved.apply(v) for v in perp.basis]
        eqs.append(rows)

    spaces = []
    for i in range(ell):
        eq_rows = [r for j, rows in enumerate(eqs) if j != i for r in rows]
        coords = kernel(Mat(f, eq_rows, d.dim)).basis
        spaces.append(HelperSpace(d, [d.element(c) for c in coords], coords))
    return spaces


def solve_po(inst: PoInstance) -> PoAnswer:
    """Greedy construction of (X, ell) from the helpful subspaces.

    Fixes X_ell, then X_{ell-1}, ..., X_1 from the respective bases so each
    X_i maps H_(i-1) ... H_1(U) out of U' pulled back through the chosen
    X_ell ... X_(i+1); the sum X_1 + ... + X_ell then overflows at exponent ell.
    """
    d, u, u_prime = inst.d, inst.u, inst.u_prime
    ell, images = find_ell(inst)
    if ell is None:
        return PoAnswer(found=False)
    helpers = helpful_subspaces(inst, ell, images)

    prefixes = [u]
    for h in helpers[:-1]:
        prefixes.append(h.image_of(prefixes[-1]))

    f = d.field
    target = u_prime
    coords = [f.zero] * d.dim
    for i in range(ell, 0, -1):
        h = helpers[i - 1]
        for g, c in zip(h.gens, h.coords):
            if not target.contains((g_sp := MatSpace.of(g)).image_of(prefixes[i - 1])):
                break
        else:
            return PoAnswer(found=False)
        target = g_sp.preimage_of(target)  # the same space: its factors are found once
        coords = [f.add(x, y) for x, y in zip(coords, c)]
    x = d.element(coords)
    assert _power_escapes(x, ell, u, u_prime), "power overflow check failed"
    return PoAnswer(found=True, ell=ell, coefficients=coords)
