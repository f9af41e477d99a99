"""Property tests of the shared elimination kernel, the fields' row operations
and the subspace actions behind the Wong sequences."""

import itertools
import math
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from symrank import (Mat, MatSpace, PrimeField, RationalField, Subspace,
                     first_wong, image, kernel, pseudo_inverse, rref, second_wong)
from symrank.errors import DimMismatch
from symrank.fields import (PACK_MIN, PACK_MIN_ROWS, ExtensionField, Field, _find_irreducible,
                            _is_prime, ratio)
from symrank.linalg import _eliminate, _rref_rows
from symrank.wong import _second_wong

FIELDS = [PrimeField(2), PrimeField(7), PrimeField(101),
          ExtensionField(2, 3, _find_irreducible(2, 3)),
          ExtensionField(3, 2, _find_irreducible(3, 2)), RationalField()]
FIELD_IDS = ["gf2", "gf7", "gf101", "gf2^3", "gf3^2", "q"]
WONG_FIELDS = [FIELDS[FIELD_IDS.index(name)] for name in ("gf7", "gf2^3", "gf3^2", "q")]

PROPERTY = settings(max_examples=40, deadline=None, database=None, derandomize=True)


def run_to_fixpoint(step, start):
    """[start, step(start), step(step(start)), ...] up to the first term t
    with step(t) == t, which is the last entry: the Wong sequences mapped
    step by step, the reference for their delta forms."""
    terms = [start]
    while True:
        nxt = step(terms[-1])
        if nxt == terms[-1]:
            return terms
        terms.append(nxt)


def scalars(f):
    if f.spec.kind == "rational":
        return st.fractions(min_value=-4, max_value=4, max_denominator=3)
    if f.spec.kind == "extension":
        return st.tuples(*[st.integers(0, f.p - 1)] * f.k)
    return st.integers(0, f.p - 1)


def entries(f):
    # zeros half the time, so rank-deficient matrices are common
    return st.one_of(st.just(f.zero), scalars(f))


def vectors(f, n):
    return st.lists(entries(f), min_size=n, max_size=n)


def matrices(f, nrows, ncols):
    return st.lists(vectors(f, ncols), min_size=nrows, max_size=nrows).map(
        lambda rows: Mat(f, rows))


@st.composite
def field_and_matrix(draw, square=False):
    f = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 5))
    return f, draw(matrices(f, nrows, ncols))


@PROPERTY
@given(field_and_matrix())
def test_rank_nullity(fm):
    f, m = fm
    assert m.rank() + kernel(m).dim == m.ncols
    assert rref(m)[1] == m.rank()


@PROPERTY
@given(field_and_matrix())
def test_rref_idempotent(fm):
    f, m = fm
    r, rank = rref(m)
    assert rref(r) == (r, rank)


@PROPERTY
@given(field_and_matrix(square=True))
def test_pseudo_inverse_reproduces(fm):
    f, a = fm
    a_pi = pseudo_inverse(a)
    assert a.matmul(a_pi).matmul(a) == a
    assert a_pi.rank() == a.nrows


@PROPERTY
@given(st.data())
def test_det_multiplicative_and_zero_iff_singular(data):
    f = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(1, 4))
    a, b = data.draw(matrices(f, n, n)), data.draw(matrices(f, n, n))
    assert a.matmul(b).det() == f.mul(a.det(), b.det())
    assert f.is_zero(a.det()) == (a.rank() < n)


@PROPERTY
@given(st.data())
def test_membership_agrees_with_rank_growth(data):
    f = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(vectors(f, n), min_size=1, max_size=4))
    more = data.draw(st.lists(vectors(f, n), min_size=1, max_size=3))
    v = data.draw(vectors(f, n))
    grows = Mat(f, rows + [v]).rank() > Mat(f, rows).rank()
    s = Subspace(f, n, rows)
    assert s.contains_vector(v) == (not grows)
    assert s.sum(Subspace(f, n, more)) == Subspace(f, n, rows + more)

    # the same question for a matrix space, with each vector as a 1 x n matrix
    sp = MatSpace.from_spanning([Mat(f, [r]) for r in rows])
    assert sp.dim == s.dim
    assert sp.contains(Mat(f, [v])) == (not grows)


@pytest.mark.parametrize("f", FIELDS + [PrimeField(65537)], ids=FIELD_IDS + ["gf65537"])
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_row_operations_match_generic(f, data):
    # each field's own row kernels against Field's generic scalar loops
    n = data.draw(st.integers(0, 8))
    x, y = data.draw(vectors(f, n)), data.draw(vectors(f, n))
    c = data.draw(scalars(f))
    assert f.axpy_row(c, x, y) == Field.axpy_row(f, c, x, y)
    assert f.scale_row(c, x) == Field.scale_row(f, c, x)
    assert f.dot(x, y) == Field.dot(f, x, y)
    # Mat.axpy, a row update per row, against a_ij + c b_ij entry by entry
    a, b = Mat(f, [x, y], n), Mat(f, [y, x], n)
    for k in (f.zero, f.one, f.neg(f.one), c):
        assert a.axpy(k, b).rows == [[f.add(p, f.mul(k, q)) for p, q in zip(r, s)]
                                     for r, s in zip(a.rows, b.rows)]


def _reference_eliminate(f, rows, basis=(), pivots=()):
    """The unreduced elimination loop, every row cleared, past a full echelon too."""
    basis, pivots, leads = list(basis), list(pivots), []
    for v in rows:
        for piv, row in zip(pivots, basis):
            v = f.axpy_row(v[piv], row, v)
        col = next((j for j, e in enumerate(v) if not f.is_zero(e)), None)
        leads.append(None if col is None else v[col])
        if col is not None:
            basis.append(f.scale_row(f.inv(v[col]), v))
            pivots.append(col)
    return basis, pivots, leads


def echelon_rows(f, basis, pivots, n):
    """A native echelon (_eliminate's native) as list rows with a one at each pivot."""
    if f.integer_row:
        return [[ratio(a, r[p]) for a in r] for r, p in zip(basis, pivots)]
    return [f.unpack(r, n) if type(r) is int else r for r in basis]


@PROPERTY
@given(st.data())
def test_rows_past_a_full_echelon(data):
    f = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(0, 3))
    rows = data.draw(st.lists(vectors(f, n), max_size=n + 4))
    at = data.draw(st.integers(0, len(rows)))
    rows[at:at] = Mat.identity(f, n).rows  # the echelon is full from here on
    assert _eliminate(f, rows, reduced=False) == _reference_eliminate(f, rows)
    basis, pivots, leads = _reference_eliminate(f, rows)
    mats = [Mat(f, [r], n) for r in rows]
    sp = MatSpace.from_spanning(mats, f, 1, n)
    assert sp.gens == [m for m, lead in zip(mats, leads) if lead is not None]
    assert (echelon_rows(f, *sp._echelon, n), sp._echelon[1]) == (basis, pivots)
    v = data.draw(vectors(f, n))
    assert sp.contains(Mat(f, [v], n))
    assert _eliminate(f, [v], basis, pivots, reduced=False)[2] == [None]


@PROPERTY
@given(st.data())
def test_first_wong_matches_every_step_mapped(data):
    # the reference maps every term, a zero one too.  to_zero puts I in the
    # space and makes a nilpotent, so U_i lies in a^i(V) and the limit is 0
    f = data.draw(st.sampled_from(FIELDS))
    to_zero = data.draw(st.booleans())
    nrows = data.draw(st.integers(1, 4))
    ncols = nrows if to_zero else data.draw(st.integers(1, 4))
    gens = data.draw(st.lists(matrices(f, nrows, ncols), max_size=3))
    a = data.draw(matrices(f, nrows, ncols))
    if to_zero:
        gens.append(Mat.identity(f, nrows))
        a = Mat(f, [[e if j > i else f.zero for j, e in enumerate(r)]
                    for i, r in enumerate(a.rows)])
    sp = MatSpace.from_spanning(gens, f, nrows, ncols)
    a_sp = MatSpace.of(a)
    reference = run_to_fixpoint(lambda u: sp.preimage_of(a_sp.image_of(u)),
                                Subspace.full(f, ncols))
    terms = first_wong(a, sp).terms
    assert terms == reference
    assert not to_zero or terms[-1].dim == 0


@PROPERTY
@given(st.data())
def test_second_wong_matches_every_step_mapped(data):
    # the reference maps the whole preimage a^-1(W_i) at every step.  to_full
    # puts I in the space and makes a nilpotent: a^-1(W*) lies in W*, and an x
    # outside W* would keep a^k x outside, up to a^n x = 0, so W* = F^n
    f = data.draw(st.sampled_from(FIELDS))
    to_full = data.draw(st.booleans())
    nrows = data.draw(st.integers(1, 4))
    ncols = nrows if to_full else data.draw(st.integers(1, 4))
    gens = data.draw(st.lists(matrices(f, nrows, ncols), max_size=3))
    a = data.draw(matrices(f, nrows, ncols))
    if to_full:
        gens.append(Mat.identity(f, nrows))
        a = Mat(f, [[e if j > i else f.zero for j, e in enumerate(r)]
                    for i, r in enumerate(a.rows)])
    sp = MatSpace.from_spanning(gens, f, nrows, ncols)
    a_sp = MatSpace.of(a)
    reference = run_to_fixpoint(lambda w: sp.image_of(a_sp.preimage_of(w)),
                                Subspace.zero(f, nrows))
    terms, pulled, ker = _second_wong(a, sp)
    assert terms == reference == second_wong(a, sp).terms
    assert pulled == a_sp.preimage_of(reference[-1])
    assert ker == kernel(a)
    assert not to_full or terms[-1].dim == nrows


@PROPERTY
@given(st.data())
def test_second_wong_is_orthogonal_to_first_on_transposes(data):
    f = data.draw(st.sampled_from(WONG_FIELDS))
    n = data.draw(st.integers(1, 4))
    gens = data.draw(st.lists(matrices(f, n, n), min_size=1, max_size=3))
    sp = MatSpace.from_spanning(gens, f, n, n)
    a = data.draw(matrices(f, n, n))
    second = second_wong(a, sp)
    dual = first_wong(a.transpose(), sp.transpose_space())
    assert len(second.terms) == len(dual.terms)
    for w, u in zip(second.terms, dual.terms):
        assert w == u.orthogonal()


@PROPERTY
@given(st.data())
def test_single_matrix_preimage(data):
    # {x : a x in W} has dimension dim ker a + dim (W meet im a)
    f = data.draw(st.sampled_from(WONG_FIELDS))
    nrows, ncols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    a = data.draw(matrices(f, nrows, ncols))
    w = Subspace(f, nrows, data.draw(st.lists(vectors(f, nrows), max_size=nrows)))
    pre = MatSpace.of(a).preimage_of(w)
    assert all(w.contains_vector(a.apply(x)) for x in pre.basis)
    assert pre.dim == kernel(a).dim + w.orthogonal().sum(image(a).orthogonal()).orthogonal().dim


@PROPERTY
@given(field_and_matrix())
def test_kernel_basis_is_canonical(fm):
    f, m = fm
    k = kernel(m)
    again = Subspace(f, m.ncols, k.basis)
    assert (again.basis, again.pivots) == (k.basis, k.pivots)
    assert all(f.is_zero(e) for v in k.basis for e in m.apply(v))


@PROPERTY
@given(st.data())
def test_preimage_matches_duality_formula(data):
    # the reference: T = (space^T (w^perp))^perp, the textbook duality
    f = data.draw(st.sampled_from(FIELDS))
    nrows, ncols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    gens = data.draw(st.lists(matrices(f, nrows, ncols), max_size=3))
    sp = MatSpace.from_spanning(gens, f, nrows, ncols)
    w = data.draw(st.one_of(
        st.just(Subspace.zero(f, nrows)), st.just(Subspace.full(f, nrows)),
        st.lists(vectors(f, nrows), max_size=nrows).map(lambda rows: Subspace(f, nrows, rows))))
    assert sp.preimage_of(w) == sp.transpose_space().image_of(w.orthogonal()).orthogonal()


# -- packed GF(p) rows -------------------------------------------------------

PACKED_FIELDS = [PrimeField(2), PrimeField(7), PrimeField(101), PrimeField(65537),
                 PrimeField(2**61 - 1)]
PACKED_IDS = ["gf2", "gf7", "gf101", "gf65537", "gf2^61-1"]


class ListRows(PrimeField):
    """GF(p) on list rows only: the kernels the packed rows must agree with."""

    def packs(self, n, rows, terms=None):
        return False


def raw_vectors(f, n):
    # entries below 0 and at or above p, as a Mat built from ints may hold
    return st.lists(st.one_of(st.just(0), st.integers(-2 * f.p, 3 * f.p)),
                    min_size=n, max_size=n)


@st.composite
def raw_rows(draw, f, n, max_rows):
    """Rows of n raw entries, some of them combinations of earlier rows
    shifted by multiples of p, so that dependent rows are common."""
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        if rows and draw(st.booleans()):
            cs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            shift = draw(st.integers(-2, 2)) * f.p
            rows.append([sum(c * r[j] for c, r in zip(cs, rows)) + shift for j in range(n)])
        else:
            rows.append(draw(raw_vectors(f, n)))
    return rows


def _reduced_leads(f, leads):
    return [None if c is None else c % f.p for c in leads]


@pytest.mark.parametrize("f", PACKED_FIELDS, ids=PACKED_IDS)
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_packed_elimination_matches_list_rows(f, data):
    # row lengths on both sides of PACK_MIN, batches on both sides of PACK_MIN_ROWS
    lf = ListRows(f.p)
    n = data.draw(st.integers(1, 40))
    rows = data.draw(raw_rows(f, n, 4 * PACK_MIN_ROWS + 2))  # GF(2) packs from 21 rows
    if data.draw(st.booleans()):  # rows past a full echelon
        at = data.draw(st.integers(0, len(rows)))
        rows[at:at] = Mat.identity(f, n).rows
    for reduced in (True, False):
        given_rows = data.draw(raw_rows(f, n, 3))
        basis, pivots, _ = _eliminate(lf, given_rows, reduced=reduced)
        for echelon in ((), (basis, pivots)):
            got = _eliminate(f, rows, *echelon, reduced=reduced)
            assert got == _eliminate(lf, rows, *echelon, reduced=reduced)
            ref_basis, ref_pivots, ref_leads = _reference_eliminate(
                f, [[a % f.p for a in r] for r in rows], *echelon)
            assert (got[1], _reduced_leads(f, got[2])) == (ref_pivots, ref_leads)
            if not reduced:
                assert got[0] == ref_basis
            else:  # the same rows, reduced: one at the own pivot, zero at the others
                assert all(0 <= a < f.p for r in got[0] for a in r)
                assert all(r[q] == (k == i) for k, r in enumerate(got[0])
                           for i, q in enumerate(got[1]))
                assert Subspace(lf, n, got[0]) == Subspace(lf, n, ref_basis)


# The largest primes with 12 p^2 <= 2^64 and <= 2^65: 12-entry rows pack over
# the first and not over the second, whose slots would reach 11 (p - 1)^2 > 2^64.
P_EDGE, P_PAST = 1239850223, 1753413037


@pytest.mark.parametrize("p", [P_EDGE, P_PAST])
def test_packed_slots_at_the_bound(p):
    # rows 0..10 are e_k + (p - 1)(e_{k+1} + ... + e_11); the last row makes
    # every multiplier 1, so slot j of it gets j (p - 1)^2 added
    f, n = PrimeField(p), PACK_MIN
    rows = [[0] * k + [1] + [p - 1] * (n - 1 - k) for k in range(n - 1)]
    rows.append([(1 - j) % p for j in range(n)])
    for reduced in (True, False):
        assert _eliminate(f, rows, reduced=reduced) == _eliminate(ListRows(p), rows,
                                                                  reduced=reduced)
    assert Mat(f, rows).rank() == n
    assert f.packs(n, len(rows)) == (p == P_EDGE)


def largest_packing_prime(n):
    """The largest p with n p^2 <= 2^64, the edge of PrimeField.packs at length n."""
    return next(q for q in range(math.isqrt((1 << 64) // n), 1, -1) if _is_prime(q))


AT_BOUND = [(n, p) for n in (PACK_MIN, 100) for p in (2, 3, 101, largest_packing_prime(n))]


@pytest.mark.parametrize("n, p", AT_BOUND + [(PACK_MIN, 65537), (100, 65537)])
@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_in_int_reduction_at_its_bound(n, p, data):
    # slots up to n p^2 - 1, the most an update loop leaves, in one, two or
    # three interleaved classes (fields._barrett)
    f, top = PrimeField(p), n * p * p - 1
    slots = data.draw(st.lists(st.one_of(st.just(top), st.just(p), st.integers(0, top)),
                               min_size=n, max_size=n))
    x = sum(a << 64 * j for j, a in enumerate(slots))
    assert f.unpack(f.reduce(x, n), n) == [a % p for a in slots]


@pytest.mark.parametrize("p", [101, 65537, 1000003])
def test_in_int_reduction_with_more_terms_than_slots(p):
    # 12 slots, each a sum of 60 products of reduced entries, as in a product over
    # 60 inner indices: near 60 p^2, past the 12 p^2 that 12 slots alone would
    # bound.  Every multiplier and 59 rows are p - 1, and the last row makes slot j
    # -(1 + j) mod p: residues near p, where a quotient estimate one too high shows
    f = PrimeField(p)
    rows = [[p - 1] * 12 for _ in range(59)]
    rows.append([(1 + j - sum(r[j] for r in rows)) % p for j in range(12)])
    x = sum((p - 1) * f.pack(r) for r in rows)
    assert f.unpack(f.reduce(x, 12, 60), 12) == [-(1 + j) % p for j in range(12)]


@pytest.mark.parametrize("n, p", AT_BOUND)
def test_packed_elimination_at_its_bound(n, p):
    # the echelon rows e_k + (p - 1)(e_(k+1) + ... + e_(n-1)), every entry
    # p - 1 but the pivot; rows with entry j = 1 - j then meet every
    # multiplier p - 1, and their slot j gets j (p - 1)^2 added.  The copies
    # with last entry 1 - n are dependent, so the echelon stays one short and
    # each copy is cleared at every pivot; they also make the batch pack
    f = PrimeField(p)
    rows = [[0] * k + [1] + [p - 1] * (n - 1 - k) for k in range(n - 1)]
    rows += [[(1 - j) % p for j in range(n - 1)] + [(1 - n) % p]] * (4 * PACK_MIN_ROWS + 2)
    rows.append([(1 - j) % p for j in range(n)])
    assert f.packs(n, len(rows))
    for reduced in (True, False):
        got = _eliminate(f, rows, reduced=reduced)
        assert got == _eliminate(ListRows(p), rows, reduced=reduced)
        assert got[2][n - 1:-1] == [None] * (4 * PACK_MIN_ROWS + 2) and len(got[1]) == n


@pytest.mark.parametrize("f", PACKED_FIELDS, ids=PACKED_IDS)
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_image_and_preimage_on_raw_entries(f, data):
    # entries below 0 and at or above p; the list-row space's duality
    # formula is the reference for the preimage
    lf = ListRows(f.p)
    m = data.draw(st.integers(1, 6))
    nrows, ncols = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    gens = [Mat(f, data.draw(st.lists(raw_vectors(f, ncols), min_size=nrows,
                                      max_size=nrows))) for _ in range(m)]
    sp = MatSpace.from_spanning(gens, f, nrows, ncols)
    lsp = MatSpace(lf, nrows, ncols, [Mat(lf, g.rows) for g in sp.gens])
    for _ in range(2):  # two draws of u and w on one space
        u = Subspace(f, ncols, data.draw(raw_rows(f, ncols, ncols + 1)))
        assert sp.image_of(u) == Subspace(f, nrows, [g.apply(v) for g in sp.gens
                                                     for v in u.basis])
        w = Subspace(f, nrows, data.draw(raw_rows(f, nrows, nrows + 1)))
        assert sp.preimage_of(w) == lsp.transpose_space().image_of(w.orthogonal()).orthogonal()


# Dense generators act through one packed product per vector (MatSpace._dense_products)
# when their m n_rows stacked rows pack as n_cols columns; each slot then sums n_cols
# products.  Square spaces (slots above the terms, and a rank-one generator among the
# dense ones) and a wide one (3 x 5 x 40: 15 slots, 40 terms), over primes from GF(2),
# which packs from 21 terms, to the largest with terms p^2 <= 2^64.
DENSE_SHAPES = [(3, 24, 24), (3, 5, 40)]
DENSE_CASES = [(p, shape) for shape in DENSE_SHAPES
               for p in (2, 3, 101, 65537, largest_packing_prime(shape[2]))]


def _dense_actions(sp, u, a, vs):
    """Everything that runs through the packed product: image_of, apply_each,
    times (generators and factors) and apply_each on the transpose space."""
    d = sp.times(a)
    return (sp.image_of(u), [sp.apply_each(v) for v in vs], d.gens, d.factors,
            [sp.transpose_space().apply_each(w) for w in Mat.identity(sp.field, sp.nrows).rows])


@pytest.mark.parametrize("p, shape", DENSE_CASES,
                         ids=[f"gf{p}-{m}x{r}x{c}" for p, (m, r, c) in DENSE_CASES])
def test_dense_products_agree_with_the_list_path(p, shape, monkeypatch):
    m, nrows, ncols = shape
    f, rng = PrimeField(p), random.Random(p * nrows)
    gens = [Mat(f, [[rng.randrange(-p, 2 * p) for _ in range(ncols)] for _ in range(nrows)])
            for _ in range(m)]
    if nrows == ncols:  # a rank-one generator in the middle, applied through its factors
        x, y = [rng.randrange(1, p) for _ in range(nrows)], [1] * ncols
        gens.insert(1, Mat(f, [[a * b % p for b in y] for a in x]))
    u = Subspace(f, ncols, [[rng.randrange(p) for _ in range(ncols)] for _ in range(ncols // 2)])
    a = Mat(f, [[rng.randrange(p) for _ in range(ncols)] for _ in range(ncols)])
    vs = u.basis + [[rng.randrange(-p, 2 * p) for _ in range(ncols)] for _ in range(3)]
    sp = MatSpace(f, nrows, ncols, gens)
    assert [xy is None for xy in sp.factors] == [nrows != ncols or k != 1
                                                 for k in range(len(gens))]
    assert f.packs(m * nrows, ncols, terms=ncols)
    if p == largest_packing_prime(ncols):  # the next prime's sums could pass 2^64
        past = PrimeField(next(q for q in itertools.count(p + 1) if _is_prime(q)))
        assert not past.packs(m * nrows, ncols, terms=ncols)
    packed = _dense_actions(sp, u, a, vs)
    assert sp._dense[1]  # the packed columns
    with pytest.raises(DimMismatch):
        sp.apply_each(vs[0][1:])
    monkeypatch.setattr(PrimeField, "packs", lambda self, n, rows, terms=None: False)
    listed = _dense_actions(MatSpace(f, nrows, ncols, gens), u, a, vs)
    assert packed == listed
    assert listed[1] == [[g.apply(v) for g in gens] for v in vs]
    assert packed[2] == [g.matmul(a) for g in gens]


@pytest.mark.parametrize("p", [101, 1000003])
def test_dense_products_past_the_slot_bound(p):
    # 3 generators of 5 x 40: 15 slots, each a sum of 40 products near 40 p^2, past
    # the 15 p^2 the slots alone would bound.  Every entry of v and all but the last
    # column are p - 1; the last makes row i of generator k sum to 1 + 5k + i, so
    # the slots are -(1 + 5k + i) mod p, residues near p (see the reduction above)
    f = PrimeField(p)
    gens = [Mat(f, [[p - 1] * 39 + [(40 + 5 * k + i) % p] for i in range(5)]) for k in range(3)]
    sp = MatSpace(f, 5, 40, gens)
    assert f.packs(15, 40, terms=40) and not any(sp.factors)
    assert sp.apply_each([p - 1] * 40) == [[-(1 + 5 * k + i) % p for i in range(5)]
                                            for k in range(3)]


def test_dense_products_below_the_gate_never_pack(monkeypatch):
    # 2 dense 5 x 5 generators: 10 slots, below PACK_MIN, so every action is a
    # Mat.apply per generator and vector, as in the elimination of short rows
    def refuse(self, row):
        raise AssertionError("a dense product packed below the gate")

    f, rng = PrimeField(101), random.Random(23)
    monkeypatch.setattr(PrimeField, "pack", refuse)
    for dim_u in range(1, 6):
        gens = [Mat(f, [[rng.randrange(101) for _ in range(5)] for _ in range(5)])
                for _ in range(2)]
        sp = MatSpace(f, 5, 5, gens)
        u = Subspace(f, 5, [[rng.randrange(101) for _ in range(5)] for _ in range(dim_u)])
        assert not any(sp.factors)
        assert sp.image_of(u) == Subspace(f, 5, [g.apply(v) for g in gens for v in u.basis])
        assert [sp.apply_each(v) for v in u.basis] == [[g.apply(v) for g in gens]
                                                       for v in u.basis]
        assert sp.times(gens[0]).gens == [g.matmul(gens[0]) for g in gens]


# -- rank-one factors ----------------------------------------------------------

FACTOR_FIELDS = [PrimeField(2), PrimeField(3), PrimeField(101),
                 ExtensionField(3, 2, _find_irreducible(3, 2)),
                 ExtensionField(1000003, 2, _find_irreducible(1000003, 2)), RationalField()]
FACTOR_IDS = ["gf2", "gf3", "gf101", "gf3^2", "gf1000003^2", "q"]


def outer(f, x, y):
    return Mat(f, [[f.mul(a, b) for b in y] for a in x], len(y))


@st.composite
def mixed_generators(draw, f, nrows, ncols):
    """Sums of one or two outer products, or dense matrices, in a drawn order."""
    gens = []
    for terms in draw(st.lists(st.sampled_from([1, 2, None]), max_size=5)):
        if terms is None:
            gens.append(draw(matrices(f, nrows, ncols)))
            continue
        g = Mat.zeros(f, nrows, ncols)
        for _ in range(terms):
            g = g.axpy(f.one, outer(f, draw(vectors(f, nrows)), draw(vectors(f, ncols))))
        gens.append(g)
    return gens


def _subspaces(draw, f, n):
    return Subspace(f, n, draw(st.lists(vectors(f, n), max_size=n + 1)))


def _refuse_apply(self, vec):
    raise AssertionError("a rank-one generator was applied as a matrix")


@pytest.mark.parametrize("f", FACTOR_FIELDS, ids=FACTOR_IDS)
@PROPERTY
@given(data=st.data())
def test_factored_image_and_preimage(f, data):
    # rank-one generators act through x y^T: against every generator applied,
    # and the preimage against the duality formula with the transposes applied
    nrows, ncols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    gens = data.draw(mixed_generators(f, nrows, ncols))
    for sp in (MatSpace.from_spanning(gens, f, nrows, ncols),
               MatSpace.of(Mat.zeros(f, nrows, ncols))):
        for g, xy in zip(sp.gens, sp.factors):
            assert (xy is not None) == (g.rank() == 1)
            assert xy is None or outer(f, *xy) == g
        for space, mats in ((sp, sp.gens), (sp.transpose_space(), [g.transpose() for g in sp.gens])):
            u = _subspaces(data.draw, f, space.ncols)
            image = Subspace(f, space.nrows, [g.apply(v) for g in mats for v in u.basis])
            assert space.image_of(u) == image
            assert all(space.apply_each(v) == [g.apply(v) for g in mats] for v in u.basis)
            base = _subspaces(data.draw, f, space.nrows)
            assert space.image_of(u, base) == image.sum(base)
            w = _subspaces(data.draw, f, space.nrows)
            perp = w.orthogonal().basis
            assert space.preimage_of(w) == Subspace(
                f, space.ncols, [g.transpose().apply(v) for g in mats for v in perp]).orthogonal()
    ones = MatSpace.from_spanning(
        [outer(f, data.draw(vectors(f, nrows)), data.draw(vectors(f, ncols))) for _ in range(3)],
        f, nrows, ncols)
    u = _subspaces(data.draw, f, ncols)
    image = Subspace(f, nrows, [g.apply(v) for g in ones.gens for v in u.basis])
    moved = [[g.apply(v) for g in ones.gens] for v in u.basis]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Mat, "apply", _refuse_apply)
        assert ones.image_of(u) == image
        assert [ones.apply_each(v) for v in u.basis] == moved


# -- the fraction-free kernel over Q against plain Fraction elimination ---------

def fraction_eliminate(rows, basis=(), pivots=()):
    """Rows added in order to an echelon (rows with a one at their pivots),
    each cleared at its pivots and scaled to a leading one: (basis, pivots, leads)."""
    basis, pivots, leads = [list(map(Fraction, r)) for r in basis], list(pivots), []
    for v in rows:
        v = list(map(Fraction, v))
        for p, r in zip(pivots, basis):
            v = [a - v[p] * b for a, b in zip(v, r)]
        col = next((j for j, a in enumerate(v) if a), None)
        leads.append(None if col is None else v[col])
        if col is not None:
            basis.append([a / v[col] for a in v])
            pivots.append(col)
    return basis, pivots, leads


def fraction_rref(rows, n):
    """(basis, pivots) of the RREF, column by column."""
    rows, basis, pivots = [list(map(Fraction, r)) for r in rows], [], []
    for col in range(n):
        k = next((i for i, r in enumerate(rows) if r[col]), None)
        if k is not None:
            r = rows.pop(k)
            r = [a / r[col] for a in r]
            rows, basis = ([[a - s[col] * b for a, b in zip(s, r)] for s in rs]
                           for rs in (rows, basis))
            basis.append(r)
            pivots.append(col)
    return basis, pivots


def leibniz_det(rows):
    n = len(rows)
    return sum((-1) ** sum(s[i] > s[j] for i in range(n) for j in range(i + 1, n))
               * math.prod(Fraction(rows[i][s[i]]) for i in range(n))
               for s in itertools.permutations(range(n)))


def q_entries():
    # zeros often; denominators 1-7 and numerators up to 10^20, some of them
    # integral Fractions
    big = st.integers(-10 ** 20, 10 ** 20)
    return st.one_of(st.just(0), big, st.builds(Fraction, big, st.integers(1, 7)))


@st.composite
def q_rows(draw, nrows, n):
    """Rows of n rationals, with zero rows and repeated rows put in."""
    rows = draw(st.lists(st.lists(q_entries(), min_size=n, max_size=n), max_size=nrows))
    for _ in range(draw(st.integers(0, 2))):
        extra = draw(st.sampled_from(rows)) if rows and draw(st.booleans()) else [0] * n
        rows.insert(draw(st.integers(0, len(rows))), list(extra))
    return rows


def scalar_types(*groups):
    """The types of every scalar in lists, rows of lists, or Mats."""
    out = set()
    for g in groups:
        for r in getattr(g, "rows", g):
            out |= set(map(type, r)) if isinstance(r, list) else {type(r)}
    return out - {type(None)}


@PROPERTY
@given(st.data())
def test_rational_kernel_matches_fraction_elimination(data):
    f = RationalField()
    n = data.draw(st.integers(1, 5))
    rows = data.draw(q_rows(5, n))
    basis, pivots = fraction_rref(rows, n)
    got = _rref_rows(f, rows)
    assert got == (basis, pivots)
    m = Mat(f, rows, n)
    assert m.rank() == len(pivots)
    free = [j for j in range(n) if j not in pivots]
    null = [[int(i == j) for i in range(n)] for j in free]
    for v, j in zip(null, free):
        for r, p in zip(basis, pivots):
            v[p] = -r[j]
    ker = kernel(m)
    assert ker.basis == fraction_rref(null, n)[0]
    # onto a passed-in echelon, unreduced: basis, pivots and exact leads
    given_rows = data.draw(q_rows(3, n))
    echelon = _eliminate(f, given_rows, reduced=False)
    assert echelon == fraction_eliminate(given_rows)
    onto = _eliminate(f, rows, *echelon[:2], reduced=False)
    assert onto == fraction_eliminate(rows, *echelon[:2])
    merged = _rref_rows(f, rows, *_rref_rows(f, given_rows))
    assert merged == fraction_rref(given_rows + rows, n)
    sub = Subspace(f, n, given_rows)
    for v in rows + data.draw(q_rows(2, n)):
        inside = len(fraction_rref(given_rows + [v], n)[1]) == sub.dim
        assert sub.contains_vector(v) == inside
    k = data.draw(st.integers(1, 4))
    sq = Mat(f, (data.draw(q_rows(k, k)) + [[0] * k] * k)[:k], k)  # zero rows make it square
    det = sq.det()
    assert det == leibniz_det(sq.rows)
    if det:
        inv = sq.inverse()
        aug = [r + [int(i == j) for j in range(k)] for i, r in enumerate(sq.rows)]
        assert inv.rows == [r[k:] for r in fraction_rref(aug, 2 * k)[0]]
    else:
        inv = Mat(f, [], k)
        with pytest.raises(ZeroDivisionError):
            sq.inverse()
    assert scalar_types(got[0], ker.basis, echelon[0], echelon[2], onto[0], onto[2],
                        merged[0], sub.basis, [det], inv) <= {int, Fraction}
