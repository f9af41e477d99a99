"""Field arithmetic, extension construction, deterministic enlargement."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from symrank import (ExtensionField, FieldSpec, Mat, PrimeField, RationalField,
                     SymrankError, distinct_elements, ensure_size, make_field)
from symrank.errors import FieldMismatch, FieldTooSmall, NonPrimeModulus, ReducibleModulus
from symrank.fields import (_MR_BOUND, TABLE_MAX, _counting, _find_irreducible, _is_prime,
                            _poly_divmod, _poly_irreducible, _poly_mul, _poly_trim,
                            extension_field)
from symrank.smr import smr

from conftest import gf2_fallback


def test_prime_field_basics():
    f = PrimeField(7)
    assert f.add(5, 4) == 2
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.neg(2) == 5
    assert f.from_int(-1) == 6
    assert f.cardinality() == 7
    assert list(f.elements()) == list(range(7))
    with pytest.raises(ZeroDivisionError):
        f.inv(7)


def test_prime_field_rejects_composites():
    for bad in (1, 4, 6, 9, 100):
        with pytest.raises(NonPrimeModulus):
            PrimeField(bad)


def test_extension_field_gf4():
    # x^2 + x + 1 over GF(2), constant coefficient first
    f = ExtensionField(2, 2, (1, 1, 1))
    x = (0, 1)
    assert f.mul(x, x) == (1, 1)        # x^2 = x + 1
    assert f.mul(x, f.inv(x)) == f.one
    assert f.cardinality() == 4
    assert len(list(f.elements())) == 4


def test_extension_field_rejects_reducible_modulus():
    with pytest.raises(ReducibleModulus):
        ExtensionField(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over GF(2)


def test_rational_field():
    f = RationalField()
    assert f.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    assert f.cardinality() is None
    assert f.from_int(5) == Fraction(5)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(FieldTooSmall):
        f.elements()


def test_mixing_fields_raises():
    a, b = Mat.identity(PrimeField(5), 2), Mat.identity(PrimeField(7), 2)
    with pytest.raises(FieldMismatch):
        a.matmul(b)
    with pytest.raises(FieldMismatch):
        Mat.identity(RationalField(), 2).axpy(1, a)


def exact(a, b) -> bool:
    """a == b, both of one type."""
    return type(a) is type(b) and a == b


def test_rational_scalars_are_ints_while_integral():
    f = RationalField()
    assert exact(f.inv(2), Fraction(1, 2))
    assert f.inv(-1) == -1
    assert exact(f.scalar_from_json("4/2"), 2)
    assert exact(f.scalar_from_json("-6/4"), Fraction(-3, 2))
    assert exact(f.scalar_from_json(-5), -5)
    assert all(type(a) is int for a in (f.zero, f.one, f.from_int(7)))
    assert all(type(a) is int for a in distinct_elements(f, 3))
    # 1/2 * 4 + 3 * 1/3 and 3 * 1/2 - 1/2 * 1: integral results are ints
    assert exact(f.dot([Fraction(1, 2), 3], [4, Fraction(1, 3)]), 3)
    assert exact(f.dot([Fraction(3, 2), 1], [1, Fraction(-1, 2)]), 1)
    row = f.axpy_row(Fraction(1, 2), [2, Fraction(2, 3), 4], [5, Fraction(1, 3), Fraction(1, 2)])
    assert row == [4, 0, Fraction(-3, 2)] and [type(a) for a in row] == [int, int, Fraction]
    # a certificate writes 3 as "3/1" whether it is held as an int or a Fraction
    assert f.scalar_to_json(3) == f.scalar_to_json(Fraction(3)) == "3/1"
    assert f.scalar_to_json(Fraction(-3, 2)) == "-3/2"


def test_make_field_round_trip():
    for spec in (FieldSpec("prime", p=11),
                 FieldSpec("extension", p=2, k=3, modulus=(1, 1, 0, 1)),
                 FieldSpec("rational")):
        f = make_field(spec)
        assert f.spec == spec
        assert make_field(FieldSpec.from_json(spec.to_json())) is f


def test_ensure_size_no_op_when_large_enough():
    f = PrimeField(11)
    big, embed = ensure_size(f, 5)
    assert big == f
    assert embed(7) == 7
    q = RationalField()
    big, embed = ensure_size(q, 10 ** 6)
    assert big == q


def test_ensure_size_gf2_to_gf8():
    f = PrimeField(2)
    big, embed = ensure_size(f, 5)
    assert big.cardinality() == 8
    assert big.spec.modulus == _find_irreducible(2, 3)
    # embedding is a field homomorphism
    assert embed(1) == big.one
    assert big.add(embed(1), embed(1)) == big.zero
    # deterministic: same call, same field handle
    big2, _ = ensure_size(PrimeField(2), 5)
    assert big2 is big


def test_shared_handle_tables_unchanged_by_smr():
    gf8 = extension_field(2, 3)
    tables = (dict(gf8._log), list(gf8._exp), list(gf8._zech))
    # n = 4 over GF(2) runs out of lambdas and goes on over GF(8)
    res = smr(gf2_fallback())
    assert make_field(res.working_field) is gf8
    assert (gf8._log, gf8._exp, gf8._zech) == tables


def test_is_prime_matches_sieve():
    sieve = [False, False] + [True] * (10 ** 5 - 2)
    for i in range(2, 317):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, 10 ** 5, i))
    assert [_is_prime(i) for i in range(10 ** 5)] == sieve


@pytest.mark.parametrize("n", [561, 3215031751, 3825123056546413051])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not _is_prime(n)


@pytest.mark.parametrize("p", [2 ** 61 - 1, 2 ** 64 - 59])
def test_is_prime_large_primes_fast(p):
    start = time.perf_counter()
    assert _is_prime(p)
    assert time.perf_counter() - start < 0.01


def test_is_prime_refuses_to_guess_at_the_bound():
    # the bound is itself a strong pseudoprime to all thirteen bases
    with pytest.raises(SymrankError, match=str(_MR_BOUND)):
        _is_prime(_MR_BOUND)
    with pytest.raises(SymrankError):
        FieldSpec("prime", p=_MR_BOUND + 2)


def test_ensure_size_extension_base():
    f = ExtensionField(2, 2, (1, 1, 1))
    big, embed = ensure_size(f, 5)
    assert big.cardinality() >= 5
    assert big.cardinality() % 2 == 0
    x = (0, 1)
    # images satisfy the old modulus: embed(x)^2 + embed(x) + 1 = 0
    ex = embed(x)
    assert big.add(big.add(big.mul(ex, ex), ex), big.one) == big.zero
    # homomorphism on products
    rng = random.Random(5)
    elems = list(f.elements())
    for _ in range(20):
        a, b = rng.choice(elems), rng.choice(elems)
        assert embed(f.mul(a, b)) == big.mul(embed(a), embed(b))
        assert embed(f.add(a, b)) == big.add(embed(a), embed(b))


def test_counting_order():
    f = ExtensionField(3, 2, _find_irreducible(3, 2))
    assert list(f.elements()) == [(a % 3, a // 3) for a in range(9)]
    expected = {(2, 1): (0, 1), (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1),
                (2, 4): (1, 1, 0, 0, 1), (2, 5): (1, 0, 1, 0, 0, 1),
                (3, 1): (0, 1), (3, 2): (1, 0, 1), (3, 3): (1, 2, 0, 1),
                (5, 2): (2, 0, 1), (5, 3): (1, 1, 0, 1), (7, 2): (1, 0, 1),
                (101, 2): (2, 0, 1)}
    for (p, k), modulus in expected.items():
        assert _find_irreducible(p, k) == modulus
    for p, k in [(2, 4), (3, 3), (5, 2)]:
        assert list(_counting(p, k)) == [t[::-1] for t in itertools.product(range(p), repeat=k)]


def _irreducible_by_trial_division(m, p):
    """Reference: no monic factor of degree 1 .. deg(m)/2 divides m."""
    k = len(m) - 1
    return k > 0 and all(
        _poly_divmod(m, tail + (1,), p)[1]
        for d in range(1, k // 2 + 1) for tail in itertools.product(range(p), repeat=d))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rabin_test_agrees_with_trial_division(p):
    for k in range(5):
        for tail in itertools.product(range(p), repeat=k):
            m = tail + (1,)
            assert _poly_irreducible(m, p) == _irreducible_by_trial_division(m, p), m


def test_find_irreducible_over_a_large_prime_is_fast():
    # x^2 + 1 is irreducible for p = 3 mod 4; GF(p) itself is never enumerated
    for p in (1000003, 2**61 - 1):
        start = time.perf_counter()
        assert _find_irreducible.__wrapped__(p, 2) == (1, 0, 1)
        assert time.perf_counter() - start < 1.0


def test_is_zero_is_not_nonzero():
    for f in (extension_field(2, 2), extension_field(3, 2), PrimeField(5)):
        for a in f.elements():
            assert f.is_zero(a) == (not f.nonzero(a)) == (a == f.zero)
    q = RationalField()
    for a in (Fraction(0), Fraction(0, 4), Fraction(-3, 7), Fraction(5)):
        assert q.is_zero(a) == (not q.nonzero(a)) == (a == 0)
    f = PrimeField(7)
    for a in (-14, -8, -1, 7, 13, 49, 7**40, 7**40 + 1):  # unreduced ints
        assert f.is_zero(a) == (not f.nonzero(a)) == (a % 7 == 0)


@pytest.mark.parametrize("bad", [2.5, True, "3", None, [1]])
def test_prime_row_from_json_matches_the_entrywise_parse(bad):
    # the row parse reduces whole integer rows and refuses a bad entry with
    # the per-entry message
    f = PrimeField(7)
    assert f.row_from_json([0, -1, 9, 7**30 + 2]) == [0, 6, 2, 2]
    with pytest.raises(ValueError) as entry:
        f.scalar_from_json(bad)
    with pytest.raises(ValueError) as row:
        f.row_from_json([1, bad, 3])
    assert str(row.value) == str(entry.value)


def test_distinct_elements():
    assert distinct_elements(PrimeField(7), 3) == [0, 1, 2]
    assert distinct_elements(RationalField(), 4) == [Fraction(i) for i in range(4)]
    f = ExtensionField(2, 2, (1, 1, 1))
    got = distinct_elements(f, 3)
    assert len(got) == len(set(got)) == 3
    with pytest.raises(SymrankError):
        distinct_elements(PrimeField(2), 3)


def test_field_axioms_random():
    rng = random.Random(1)
    for f in (PrimeField(5), ExtensionField(3, 2, _find_irreducible(3, 2))):
        elems = list(f.elements())
        for _ in range(50):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.add(a, f.neg(a)) == f.zero
            if not f.is_zero(a):
                assert f.mul(a, f.inv(a)) == f.one


def _reference_mul(f, a, b):
    prod = _poly_mul(_poly_trim(a), _poly_trim(b), f.p)
    return f._pad(_poly_divmod(prod, f.modulus, f.p)[1])


def _reference_inv(f, a):
    """Extended Euclid on (a, modulus), written out independently of the field."""
    p = f.p
    r0, r1, s0, s1 = _poly_trim(a), f.modulus, (1,), ()
    while r1:
        q, r = _poly_divmod(r0, r1, p)
        qs = _poly_mul(q, s1, p)
        width = max(len(s0), len(qs))
        diff = [((s0[i] if i < len(s0) else 0) - (qs[i] if i < len(qs) else 0)) % p
                for i in range(width)]
        r0, r1, s0, s1 = r1, r, s1, _poly_trim(tuple(diff))
    c_inv = pow(r0[0], p - 2, p)
    return f._pad(_poly_trim(tuple(c * c_inv % p for c in s0)))


@pytest.mark.parametrize("p, k", [(2, 3), (3, 2), (5, 2), (2, 5), (2, 13)],
                         ids=["gf2^3", "gf3^2", "gf5^2", "gf2^5", "gf2^13-untabled"])
def test_extension_tables_match_polynomial_arithmetic(p, k):
    f = ExtensionField(p, k, _find_irreducible(p, k))
    assert (f._log is None) == (p ** k > TABLE_MAX)
    elems = list(f.elements())
    if p ** k > TABLE_MAX:
        # every pair of a fixed sample: q^2 products would take minutes
        elems = elems[:24] + elems[-24:] + random.Random(13).sample(elems, 24)
    for a in elems:
        for b in elems:
            assert f.mul(a, b) == _reference_mul(f, a, b)
        if any(a):
            assert f.inv(a) == _reference_inv(f, a)
    with pytest.raises(ZeroDivisionError):
        f.inv(f.zero)


def test_untabled_axpy_by_plus_or_minus_one_makes_no_product(monkeypatch):
    # GF(1000003^2) has no tables, so Mat.axpy runs Field.axpy_row: a + g and
    # a - g take one add or sub per entry, and any other multiplier multiplies
    f = ExtensionField(1000003, 2, _find_irreducible(1000003, 2))
    assert f._log is None
    rng = random.Random(29)
    a, g = (Mat(f, [[(rng.randrange(f.p), rng.randrange(f.p)) for _ in range(4)]
                    for _ in range(3)]) for _ in range(2))
    two = f.from_int(2)
    expected = {c: [[f.add(x, f.mul(c, y)) for x, y in zip(r, s)] for r, s in zip(a.rows, g.rows)]
                for c in (f.one, f.neg(f.one), two)}
    muls = []
    monkeypatch.setattr(f, "mul", lambda x, y: muls.append(1) or ExtensionField.mul(f, x, y))
    assert a.axpy(f.one, g).rows == expected[f.one]
    assert a.axpy(f.neg(f.one), g).rows == expected[f.neg(f.one)]
    assert muls == []
    assert a.axpy(two, g).rows == expected[two]
    assert len(muls) == 12
