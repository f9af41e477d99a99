"""Dense exact matrices and canonical subspace arithmetic.

Everything is plain Gaussian elimination over an exact field.  Subspace
bases are kept in reduced row echelon form, so subspace equality is a
syntactic check and every downstream algorithm is deterministic.
"""

from __future__ import annotations

from itertools import compress, count
from math import gcd
from operator import mul

from .errors import DimMismatch, NotSquare
from .fields import Field, distinct_elements, ratio


class Mat:
    """Dense rows x cols matrix over a single field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows, ncols: int | None = None):
        """ncols is needed only to give a matrix with no rows its width."""
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else ncols or 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise DimMismatch("ragged rows")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zeros(field: Field, nrows: int, ncols: int) -> "Mat":
        z = field.zero
        return Mat(field, [[z] * ncols for _ in range(nrows)], ncols)

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        z, o = field.zero, field.one
        return Mat(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def from_flat(field: Field, flat: list, nrows: int, ncols: int) -> "Mat":
        """The nrows x ncols matrix with the row-major entries flat, sliced once."""
        m = Mat(field, (), ncols)
        m.rows, m.nrows = [flat[i * ncols:(i + 1) * ncols] for i in range(nrows)], nrows
        return m

    @staticmethod
    def from_ints(field: Field, rows) -> "Mat":
        return Mat(field, [[field.from_int(v) for v in r] for r in rows])

    # -- basics -------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and self.ncols == other.ncols and self.rows == other.rows)

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols} over {self.field.spec.kind})"

    def entry_list(self) -> list:
        """Row-major flattening, used for independence tests on spaces."""
        return [e for r in self.rows for e in r]

    def is_zero(self) -> bool:
        f = self.field
        return all(f.is_zero(e) for r in self.rows for e in r)

    def transpose(self) -> "Mat":
        return Mat(self.field, [[self.rows[i][j] for i in range(self.nrows)]
                                for j in range(self.ncols)], self.nrows)

    def axpy(self, c, other: "Mat") -> "Mat":
        """self + c * other, one row update per row: the one matrix combination."""
        self._check(other)
        f = self.field
        minus_c = f.neg(c)
        return Mat(f, [f.axpy_row(minus_c, x, y) for x, y in zip(other.rows, self.rows)],
                   self.ncols)

    def matmul(self, other: "Mat") -> "Mat":
        self.field.check(other.field)
        if self.ncols != other.nrows:
            raise DimMismatch(f"{self.ncols} vs {other.nrows}")
        dot = self.field.dot
        cols = list(zip(*other.rows))
        return Mat(self.field, [[dot(r, c) for c in cols] for r in self.rows])

    def apply(self, vec) -> list:
        """Matrix times a column vector (given as a flat sequence)."""
        if len(vec) != self.ncols:
            raise DimMismatch(f"{self.ncols} vs {len(vec)}")
        dot = self.field.dot
        return [dot(r, vec) for r in self.rows]

    def _check(self, other: "Mat") -> None:
        self.field.check(other.field)
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimMismatch("shape mismatch")

    # -- elimination --------------------------------------------------------

    def rank(self) -> int:
        return len(_eliminate(self.field, self.rows, reduced=False)[1])

    def det(self):
        if self.nrows != self.ncols:
            raise NotSquare("determinant of a non-square matrix")
        f = self.field
        _, pivots, leads = _eliminate(f, self.rows, reduced=False)
        if len(pivots) < self.nrows:
            return f.zero
        # the reduced rows, columns taken in pivot order, are upper triangular
        det = f.one
        for c in leads:
            det = f.mul(det, c)
        swaps = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:])
        return f.neg(det) if swaps % 2 else det

    def inverse(self) -> "Mat":
        """The pseudo-inverse A', checked: a A' a = a gives A' = a^-1 for a nonsingular a."""
        a_pi = pseudo_inverse(self)
        if self.matmul(a_pi) != Mat.identity(self.field, self.nrows):
            raise ZeroDivisionError("singular matrix")
        return a_pi


def raise_rank(a: Mat, b: Mat, target: int):
    """(c, a + c b, its rank) for the first c of the field's first
    min(|F|, target + 1) elements (distinct_elements' order) at which the
    rank reaches target, else None.  If some a + x b reaches it, a target x
    target minor is a nonzero polynomial in x of degree <= target, so any
    target + 1 distinct scalars contain such a c: why SMR and SDIT need n + 1."""
    card = a.field.cardinality()
    for c in distinct_elements(a.field, target + 1 if card is None else min(card, target + 1)):
        cand = a.axpy(c, b)
        rank = cand.rank()
        if rank >= target:
            return c, cand, rank
    return None


def _eliminate(f: Field, rows, basis=(), pivots=(), reduced=True, native=False):
    """Add rows, in order, to an echelon; the one elimination loop of the package.

    The echelon is basis[k] with a one at column pivots[k] and zeros at the
    pivots of the rows before it (at every other pivot when reduced).  Each
    row is cleared at the echelon's pivots; a nonzero remainder is scaled to
    a leading one and appended, and, when reduced, cleared from the earlier
    rows.  Returns (basis, pivots, leads) with new lists: leads[i] is row i's
    leading entry before scaling, or None when row i added nothing.  A full
    echelon, one pivot per column, absorbs every row without reducing it.

    Over GF(p), long rows in large batches are packed (PrimeField.pack), and
    so is every batch given a packed echelon: a row is updated Y + (-c) X, c
    read off Y and X an echelon row below p, at most n - 1 times, so its slots
    stay below n p^2, and then reduced inside the int (PrimeField.reduce); its
    lead is its lowest nonzero slot.  When reduced, the echelon is cleared at
    the end, last row first, by the finished rows after it.  Over Q the rows
    are eliminated as integer multiples (_eliminate_fraction_free).  native
    returns the echelon in the kernel's own row form, packed when the batch
    packed and integer multiples over Q, to be passed back in as it is.
    """
    if f.integer_row:
        return _eliminate_fraction_free(f, rows, basis, pivots, reduced, native)
    n = len(rows[0]) if rows else 0
    packs = f.packs(n, len(rows)) or bool(basis) and type(basis[0]) is int
    basis = [f.pack(r) if packs and type(r) is not int else r for r in basis]
    pivots, leads = list(pivots), []
    nonzero, axpy = f.nonzero, f.axpy_row
    for v in rows:
        if len(pivots) == n:
            leads.append(None)
            continue
        if not packs:
            for piv, row in zip(pivots, basis):
                if nonzero(v[piv]):
                    v = axpy(v[piv], row, v)
            col = next(compress(count(), map(nonzero, v)), None)
        else:
            x = x0 = f.pack(v)
            for piv, row in zip(pivots, basis):
                c = f.entry(x, piv)
                if c:
                    x += f.neg(c) * row
            x = x if x is x0 else f.reduce(x, n)
            col = (x & -x).bit_length() - 1 >> 6 if x else None  # the lowest nonzero slot
        # an untouched packed row leads with its entry as given, as on list rows
        leads.append(None if col is None else v[col] if not packs or x == x0 else f.entry(x, col))
        if col is None:
            continue
        v = f.reduce(f.inv(leads[-1]) * x, n) if packs else f.scale_row(f.inv(leads[-1]), v)
        if reduced and not packs:
            basis = [axpy(row[col], v, row) if nonzero(row[col]) else row for row in basis]
        basis.append(v)
        pivots.append(col)
    if packs and reduced:
        for k in range(len(basis) - 2, -1, -1):
            row = f.unpack(basis[k], n)
            cs = [f.neg(row[piv]) for piv in pivots[k + 1:]]
            basis[k] = f.reduce(sum(map(mul, cs, basis[k + 1:]), basis[k]), n)
    return ([f.unpack(x, n) for x in basis] if packs and not native else basis), pivots, leads


def _clear(x, row, piv) -> tuple[list, int, int]:
    """(y / g, row[piv], g): y = row[piv] x - x[piv] row is zero at piv, g its gcd."""
    t, c = row[piv], x[piv]
    y = [t * a - c * b for a, b in zip(x, row)]
    g = gcd(*y) or 1  # 1 for a zero y
    return ([a // g for a in y] if g > 1 else y), t, g


def _eliminate_fraction_free(f: Field, rows, basis, pivots, reduced, native):
    """_eliminate over Q on integer rows, each a nonzero multiple of the row the
    Fraction loop holds: x = (num / den) v for a row v, and x = x[p] v for an
    echelon row with pivot p, converted on first use unless native.  Zero tests
    and pivots match it; the lead is x[col] den / num, and a new or changed row
    is x / x[p], or x itself when native."""
    basis, pivots, leads = list(basis), list(pivots), []
    ints = list(basis) if native else [None] * len(basis)  # basis[k] is None once changed
    for v in rows:
        (x, num), den = f.integer_row(v), 1
        for k, piv in enumerate(pivots):
            if x[piv]:
                row = ints[k] = ints[k] or f.integer_row(basis[k])[0]
                x, t, g = _clear(x, row, piv)
                num, den = num * t, den * g
        col = next(compress(count(), x), None)
        leads.append(None if col is None else ratio(x[col] * den, num))
        if col is None:
            continue
        for k, b in enumerate(basis if reduced else ()):
            if (ints[k] or b)[col]:
                ints[k], basis[k] = _clear(ints[k] or f.integer_row(b)[0], x, col)[0], None
        ints.append(x)
        basis.append(None)
        pivots.append(col)
    return (ints if native else [b or [ratio(a, x[p]) for a in x]
                                 for b, x, p in zip(basis, ints, pivots)]), pivots, leads


def _rref_rows(f: Field, rows, basis=(), pivots=()):
    """(basis, pivots) of the RREF of rows plus an RREF echelon, sorted by pivot.

    The RREF is unique, so the result does not depend on the row order.
    """
    basis, pivots, _ = _eliminate(f, rows, basis, pivots)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [basis[k] for k in order], [pivots[k] for k in order]


def rref(m: Mat):
    """Reduced row echelon form and rank."""
    f = m.field
    rows, pivots = _rref_rows(f, m.rows)
    zeros = [[f.zero] * m.ncols for _ in range(m.nrows - len(rows))]
    return Mat(f, rows + zeros, m.ncols), len(pivots)


class Subspace:
    """Subspace of F^ambient_dim with a canonical RREF basis."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field: Field, ambient_dim: int, rows=(), _canonical=False):
        self.field = field
        self.ambient_dim = ambient_dim
        if _canonical:
            self.basis = [list(r) for r in rows]
            self.pivots = [next(compress(count(), map(field.nonzero, r)))
                           for r in self.basis]
            return
        rows = list(rows)
        if any(len(r) != ambient_dim for r in rows):
            raise DimMismatch("vector length vs ambient dimension")
        self.basis, self.pivots = _rref_rows(field, rows)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, (), _canonical=True)

    @staticmethod
    def full(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim,
                        Mat.identity(field, ambient_dim).rows, _canonical=True)

    # -- basics -------------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim})"

    def basis_matrix(self) -> Mat:
        return Mat(self.field, self.basis, self.ambient_dim)

    def contains_vector(self, vec) -> bool:
        if len(vec) != self.ambient_dim:
            raise DimMismatch("vector length vs ambient dimension")
        leads = _eliminate(self.field, [vec], self.basis, self.pivots, reduced=False)[2]
        return leads[0] is None

    def contains(self, other: "Subspace") -> bool:
        self._check(other)
        return all(self.contains_vector(r) for r in other.basis)

    def _check(self, other: "Subspace") -> None:
        self.field.check(other.field)
        if self.ambient_dim != other.ambient_dim:
            raise DimMismatch("ambient dimensions differ")

    # -- lattice operations -------------------------------------------------

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        basis, _ = _rref_rows(self.field, other.basis, self.basis, self.pivots)
        return Subspace(self.field, self.ambient_dim, basis, _canonical=True)

    def orthogonal(self) -> "Subspace":
        """Orthogonal complement for the standard bilinear form."""
        return kernel(self.basis_matrix())


def kernel(m: Mat) -> Subspace:
    """Null space of m, a subspace of F^cols, from one elimination.

    m is reduced with its columns reversed, so each echelon row r, read back
    in the original order, ends at its pivot p.  The null vector of each free
    column j, one at j, zero at the other free columns and -r[j] at each p,
    then leads at j: already the RREF basis.
    """
    f, n = m.field, m.ncols
    rows, pivots = _rref_rows(f, [r[::-1] for r in m.rows])
    rows, pivots = [r[::-1] for r in rows], [n - 1 - p for p in pivots]
    basis = []
    for j in sorted(set(range(n)).difference(pivots)):
        v = [f.zero] * n
        v[j] = f.one
        for r, p in zip(rows, pivots):
            v[p] = f.neg(r[j])
        basis.append(v)
    return Subspace(f, n, basis, _canonical=True)


def image(m: Mat) -> Subspace:
    """Column span of m, a subspace of F^rows."""
    return Subspace(m.field, m.nrows, m.transpose().rows)


def solve(a: Mat, targets: list) -> list:
    """Solve a.x = t for each column vector t in targets.

    Every target must lie in the column span of a; the returned solution is
    the one with zeros at the free (non-pivot) coordinates.
    """
    f = a.field
    aug = [list(r) + [t[i] for t in targets] for i, r in enumerate(a.rows)]
    rows, pivots = _rref_rows(f, aug)
    ncols = a.ncols
    # a pivot in the target columns means no solution
    if pivots and pivots[-1] >= ncols:
        raise ValueError("inconsistent system")
    sols = []
    for t_idx in range(len(targets)):
        x = [f.zero] * ncols
        for r, p in zip(rows, pivots):
            x[p] = r[ncols + t_idx]
        sols.append(x)
    return sols


def pseudo_inverse(a: Mat) -> Mat:
    """Nonsingular A' with a A' a = a, from one RREF of [a | I].

    The RREF gives P a = R.  Row i of P becomes row c_i of A', c_i the i-th
    pivot column of R, and the rows of P below the rank fill the free
    columns in order, so a A' a = sum_i a[:, c_i] R_i = a.
    """
    if a.nrows != a.ncols:
        raise NotSquare("pseudo-inverse needs a square matrix (pad first)")
    n = a.nrows
    ident = Mat.identity(a.field, n).rows
    red, pivots = _rref_rows(a.field, [r + e for r, e in zip(a.rows, ident)])
    order = [c for c in pivots if c < n] + [j for j in range(n) if j not in pivots]
    out = [None] * n
    for j, r in zip(order, red):
        out[j] = r[n:]
    return Mat(a.field, out)
