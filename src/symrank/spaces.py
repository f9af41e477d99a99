"""Matrix spaces and their actions on subspaces.

Convention fixed once for the whole package: matrices act on the left on
column vectors, so a space of n x n' matrices maps F^n' into F^n.
"""

from __future__ import annotations

from itertools import compress, count, repeat
from operator import mul

from .errors import DimMismatch, IdentityMissing, NotSquare
from .fields import Field
from .linalg import Mat, Subspace, _eliminate, kernel, solve


class MatSpace:
    """Linear span of matrices, stored as a linearly independent basis."""

    __slots__ = ("field", "nrows", "ncols", "gens", "_echelon", "_factors", "_t", "_dense")

    def __init__(self, field: Field, nrows: int, ncols: int, gens, factors=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.gens = list(gens)
        for g in self.gens:
            field.check(g.field)
            if g.nrows != nrows or g.ncols != ncols:
                raise DimMismatch("generator shape mismatch")
        self._echelon = None  # (basis, pivots) of the flattened gens, built on demand
        self._factors = factors  # rank-one factors, found on demand if None
        self._t = None  # the transpose space, built on demand
        self._dense = None  # (dense generators, their packed columns or False), on demand

    @staticmethod
    def from_spanning(mats: list[Mat], field: Field | None = None,
                      nrows: int | None = None, ncols: int | None = None,
                      flat: list | None = None) -> "MatSpace":
        """Select a maximal independent subset of the input, in input order; flat
        may hold their entries, row-major, for the elimination."""
        if not mats and (field is None or nrows is None or ncols is None):
            raise DimMismatch("empty spanning set needs explicit dimensions")
        if mats:
            field, nrows, ncols = mats[0].field, mats[0].nrows, mats[0].ncols
        basis, pivots, leads = _eliminate(field, flat or [m.entry_list() for m in mats],
                                          reduced=False, native=True)
        sp = MatSpace(field, nrows, ncols,
                      [m for m, lead in zip(mats, leads) if lead is not None])
        sp._echelon = basis, pivots
        return sp

    @staticmethod
    def of(a: Mat) -> "MatSpace":
        """The one-generator space of a single matrix, unpruned: a may be zero."""
        return MatSpace(a.field, a.nrows, a.ncols, [a])

    # -- basics -------------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.gens)

    def __repr__(self):
        return f"MatSpace(dim {self.dim} of {self.nrows}x{self.ncols})"

    def is_zero(self) -> bool:
        return not self.gens

    def contains(self, m: Mat) -> bool:
        """Membership of a single matrix in the span."""
        if m.nrows != self.nrows or m.ncols != self.ncols:
            raise DimMismatch("shape mismatch")
        if self._echelon is None:
            self._echelon = _eliminate(self.field, [g.entry_list() for g in self.gens],
                                       reduced=False, native=True)[:2]
        leads = _eliminate(self.field, [m.entry_list()], *self._echelon, reduced=False,
                           native=True)[2]
        return leads[0] is None

    def coordinates_of(self, m: Mat) -> list | None:
        """Expansion of m in the stored basis, or None if m is outside."""
        if not self.gens:
            return [] if m.is_zero() else None
        f = self.field
        cols = [g.entry_list() for g in self.gens]
        target = m.entry_list()
        a = Mat(f, cols).transpose()
        try:
            return solve(a, [target])[0]
        except ValueError:
            return None

    def element(self, coeffs) -> Mat:
        """Linear combination of the basis with the given coefficients."""
        if len(coeffs) != self.dim:
            raise DimMismatch("coefficient count vs basis size")
        f = self.field
        used = [k for k, c in enumerate(coeffs) if not f.is_zero(c)]
        if not used:
            return Mat.zeros(f, self.nrows, self.ncols)
        cs = [coeffs[k] for k in used]
        return Mat(f, [[f.dot(cs, entries) for entries in zip(*rows)]
                       for rows in zip(*(self.gens[k].rows for k in used))])

    @property
    def factors(self) -> list:
        """Per generator B in basis order, (x, y) with B = x y^T, or None (_rank_one)."""
        if self._factors is None:
            self._factors = [_rank_one(self.field, g) for g in self.gens]
        return self._factors

    def times(self, a: Mat) -> "MatSpace":
        """The space of the B a: a rank-one B = x y^T gives x (a^T y)^T, factors kept;
        column c of the dense B a is B times a's column c (_dense_products)."""
        f, at = self.field, a.transpose()
        factors = [xy and (xy[0], at.apply(xy[1])) for xy in self.factors]
        cols = [self._dense_products(c) for c in at.rows] if not all(factors) else []
        dense = (Mat(f, [c[k] for c in cols], self.nrows).transpose()  # cols[c][k] = B_k a e_c
                 for k in count())
        return MatSpace(f, self.nrows, a.ncols, [
            next(dense) if xy is None else Mat(f, [f.scale_row(c, xy[1]) for c in xy[0]], a.ncols)
            for xy in factors], factors)

    def transpose_space(self) -> "MatSpace":
        if self._t is None:
            self._t = MatSpace(self.field, self.ncols, self.nrows,  # B^T = y x^T
                               [g.transpose() for g in self.gens],
                               [xy and xy[::-1] for xy in self.factors])
        return self._t

    # -- actions on subspaces ----------------------------------------------

    def _dense_products(self, v) -> list:
        """[B v for the dense B, those without rank-one factors, in basis order].

        Over GF(p), when their m n_rows stacked rows pack as n_cols columns
        (PrimeField.packs), column j of the stack is packed once per space, and
        every B v is the one sum sum_j v_j col_j, each slot a sum of n_cols
        products, reduced and unpacked once; else one Mat.apply per B."""
        f, n = self.field, self.nrows
        if self._dense is None:
            dense = [g for g, xy in zip(self.gens, self.factors) if xy is None]
            packs = f.packs(len(dense) * n, self.ncols, terms=self.ncols)
            self._dense = dense, packs and [f.pack(col) for col in
                                            zip(*(r for g in dense for r in g.rows))]
        dense, cols = self._dense
        if not cols:
            return [g.apply(v) for g in dense]
        if len(v) != self.ncols:  # as Mat.apply refuses it
            raise DimMismatch(f"{self.ncols} vs {len(v)}")
        slots = len(dense) * n
        x = f.reduce(sum(map(mul, map(f.from_int, v), cols)), slots, self.ncols)
        out = f.unpack(x, slots)
        return [out[i:i + n] for i in range(0, slots, n)]

    def apply_each(self, v) -> list:
        """[B v for B in the basis]: a rank-one B = x y^T gives (y.v) x, the dense
        B come from _dense_products."""
        f, dense = self.field, iter(self._dense_products(v) if not all(self.factors) else ())
        return [next(dense) if xy is None else f.scale_row(f.dot(xy[1], v), xy[0])
                for xy in self.factors]

    def _image_rows(self, vecs) -> list:
        """Rows spanning B(span(vecs)): B v per dense B (_dense_products), then x per
        rank-one B = x y^T with some y.v != 0; no vecs read no factors."""
        if not vecs:
            return []
        f = self.field
        out = [w for v in vecs for w in self._dense_products(v)] if not all(self.factors) else []
        for xy in self.factors:
            if xy and any(map(f.nonzero, map(f.dot, repeat(xy[1]), vecs))):
                out.append(xy[0])
        return out

    def image_of(self, u: Subspace) -> Subspace:
        """Span of B(u) over the generators B: _image_rows of u's basis."""
        self.field.check(u.field)
        if u.ambient_dim != self.ncols:
            raise DimMismatch(f"subspace lives in F^{u.ambient_dim}, "
                              f"matrices act on F^{self.ncols}")
        return Subspace(self.field, self.nrows, self._image_rows(u.basis))

    def preimage_of(self, w: Subspace) -> Subspace:
        """Largest T with B(T) <= w for every generator B.

        T is the null space of the rows v.B, over the generators B and a
        basis of w's orthogonal.  For each free column j of w's RREF, that
        basis has v = e_j - sum r[j] e_p over the rows r of w with pivot p,
        so v.B is B's row j minus sum r[j] times B's row p."""
        f = self.field
        f.check(w.field)
        if w.ambient_dim != self.nrows:
            raise DimMismatch(f"subspace lives in F^{w.ambient_dim}, "
                              f"matrices map into F^{self.nrows}")
        free, rows = sorted(set(range(self.nrows)).difference(w.pivots)), []
        for g in self.gens:
            for j in free:
                x = g.rows[j]
                for r, p in zip(w.basis, w.pivots):
                    if f.nonzero(r[j]):
                        x = f.axpy_row(r[j], g.rows[p], x)
                rows.append(x)
        return kernel(Mat(f, rows, self.ncols))

    # -- products and algebras ----------------------------------------------

    def product(self, other: "MatSpace") -> "MatSpace":
        self.field.check(other.field)
        if self.ncols != other.nrows:
            raise DimMismatch("inner dimensions differ")
        prods = [a.matmul(b) for a in self.gens for b in other.gens]
        return MatSpace.from_spanning(prods, self.field, self.nrows, other.ncols)

    def commutator_space(self) -> "MatSpace":
        """Span of [B_i, B_j] over basis pairs (bilinearity suffices)."""
        if self.nrows != self.ncols:
            raise NotSquare("commutators of a non-square space")
        minus_one = self.field.neg(self.field.one)
        comms = [a.matmul(b).axpy(minus_one, b.matmul(a))
                 for i, a in enumerate(self.gens) for b in self.gens[i + 1:]]
        return MatSpace.from_spanning(comms, self.field, self.nrows, self.ncols)

    def generated_algebra(self) -> "MatSpace":
        """Multiplicative closure of the span; needs the identity inside."""
        if self.nrows != self.ncols:
            raise NotSquare("algebra of a non-square space")
        if not self.contains(Mat.identity(self.field, self.nrows)):
            raise IdentityMissing("generated_algebra needs the identity in the space")
        d = self
        while True:
            grown = MatSpace.from_spanning(
                d.gens + [a.matmul(b) for a in d.gens for b in self.gens],
                self.field, self.nrows, self.ncols)
            if grown.dim == d.dim:
                return d
            d = grown


def _rank_one(f: Field, g: Mat):
    """(x, y) with g = x y^T, or None for g zero or of rank above one: each row
    after the first nonzero one, r, must equal c r as stored (unreduced: None)."""
    for i, r in enumerate(g.rows):
        p = next(compress(count(), map(f.nonzero, r)), None)
        if p is not None:
            break
    else:
        return None
    rest = g.rows[i + 1:]
    if rest and f.mul(rest[0][p], r[-1]) != f.mul(rest[0][-1], r[p]):  # a 2 x 2 minor
        return None
    y = f.scale_row(f.inv(r[p]), r)
    if any(s != f.scale_row(s[p], y) for s in rest):
        return None
    return [s[p] for s in g.rows], y


def _grow(sp: MatSpace, rows, pull=lambda new: new) -> tuple[list, list[int], list]:
    """W_(i+1) = W_i + sp(Y_i) from W_0 = span(rows) up to the first term that does not
    grow or is full: (echelon, dims, pulled), term i spanned by echelon[:dims[i]],
    pulled spanning Y*.  W is one non-reduced echelon, in _eliminate's native form
    until it is returned, that only gains rows.  pull is the delta map of a monotone
    Y_i = pull(W_i): the rows W_i adds give those Y_i adds, and only they are mapped."""
    f, n = sp.field, sp.nrows
    basis, pivots, dims, pulled = (), (), [], []
    while True:
        basis, pivots, leads = _eliminate(f, rows, basis, pivots, reduced=False, native=True)
        new = [r for r, lead in zip(rows, leads) if lead is not None]
        if dims and not new:
            break
        dims.append(len(pivots))
        y = pull(new)
        pulled += y
        if len(pivots) == n:  # a full W cannot grow
            break
        rows = sp._image_rows(y)
    return [x if type(x) is list else f.unpack(x, n) for x in basis], dims, pulled
