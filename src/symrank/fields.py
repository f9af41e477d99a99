"""Exact coefficient arithmetic: GF(p), GF(p^k) and big rationals.

Scalars are plain Python values owned by a field handle: ints in [0, p) for
GF(p), coefficient tuples (constant term first) for GF(p^k), and for Q ints
while integral, ``fractions.Fraction`` otherwise.  All arithmetic goes through
the field handle; matrices carry the handle and refuse to mix fields.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .errors import FieldMismatch, FieldTooSmall, NonPrimeModulus, ReducibleModulus, \
    SymrankError


# Miller-Rabin on these bases is exact below _MR_BOUND (Sorenson & Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


@functools.cache
def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, memoised; SymrankError for p >= _MR_BOUND, never a guess."""
    if p < 2 or any(p % b == 0 for b in _MR_BASES):
        return p in _MR_BASES
    if p >= _MR_BOUND:
        raise SymrankError(f"cannot decide whether {p} is prime: "
                           f"the test is exact only below {_MR_BOUND}")
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    for b in _MR_BASES:
        # for prime p, b^d = 1 or one of b^d, b^2d, ..., b^(2^(s-1) d) is -1
        x = pow(b, (p - 1) >> s, p)
        if x != 1 and p - 1 not in itertools.accumulate(
                range(s - 1), lambda y, _: y * y % p, initial=x):
            return False
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); coefficient tuples, constant term first,
# trailing zeros stripped
# ---------------------------------------------------------------------------

def _poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    n = len(c)
    while n > 0 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(tuple(out))


def _poly_divmod(a: tuple[int, ...], b: tuple[int, ...], p: int):
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[db], p - 2, p)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if c:
            f = c * inv_lead % p
            q[i - db] = f
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - f * b[j]) % p
    return _poly_trim(tuple(q)), _poly_trim(tuple(v % p for v in a))


def _poly_pow_mod(a: tuple[int, ...], e: int, m: tuple[int, ...], p: int):
    """a^e mod m, for m of degree >= 1: square and multiply, high bit first."""
    out = (1,)
    for bit in bin(e)[2:]:
        out = _poly_divmod(_poly_mul(out, out, p), m, p)[1]
        if bit == "1":
            out = _poly_divmod(_poly_mul(out, a, p), m, p)[1]
    return out


@functools.cache
def _poly_irreducible(m: tuple[int, ...], p: int) -> bool:
    """Rabin's test: m of degree k >= 1 is irreducible iff x^(p^k) = x mod m
    and gcd(x^(p^(k/q)) - x, m) = 1 for every prime q dividing k.  Memoised:
    every extension FieldSpec runs it, one per certificate parsed."""
    k = len(m) - 1
    if k <= 0:
        return False
    frob = [_poly_divmod((0, 1), m, p)[1]]  # frob[i] = x^(p^i) mod m
    for _ in range(k):
        frob.append(_poly_pow_mod(frob[-1], p, m, p))
    for q in _prime_factors(k):
        a = _poly_trim(tuple((u - v) % p for u, v in itertools.zip_longest(
            frob[k // q], frob[0], fillvalue=0)))
        b = m
        while a:
            a, b = _poly_divmod(b, a, p)[1], a
        if len(b) > 1:  # b = gcd(x^(p^(k/q)) - x, m) is not a constant
            return False
    return frob[k] == frob[0]


def _counting(p: int, k: int) -> Iterator[tuple[int, ...]]:
    """All coefficient k-tuples over GF(p) in counting order: the constant
    coefficient varies fastest (degree-lex).  Lazy, so a huge p costs nothing
    until its tuples are drawn."""
    return (tuple(i // p**e % p for e in range(k)) for i in range(p**k))


@functools.cache
def _find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible of degree k over GF(p) in counting order."""
    return next(c + (1,) for c in _counting(p, k) if _poly_irreducible(c + (1,), p))


# ---------------------------------------------------------------------------
# field specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    kind: str  # "prime" | "extension" | "rational"
    p: Optional[int] = None
    k: int = 1
    modulus: Optional[tuple[int, ...]] = None  # constant term first, monic

    def __post_init__(self):
        if self.kind not in ("prime", "extension", "rational"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "rational":
            return
        if not _is_prime(self.p or 0):
            raise NonPrimeModulus(f"{self.p} is not prime")
        if self.kind == "extension":
            m = self.modulus
            if m is None or self.k < 1 or len(m) != self.k + 1 or m[-1] % self.p != 1:
                raise ReducibleModulus("modulus must be monic of degree k >= 1")
            object.__setattr__(self, "modulus", tuple(c % self.p for c in m))
            if not _poly_irreducible(self.modulus, self.p):
                raise ReducibleModulus(f"modulus {self.modulus} reducible over GF({self.p})")

    def cardinality(self) -> Optional[int]:
        """p^k for finite kinds, None for the rationals."""
        if self.kind == "rational":
            return None
        return self.p ** (self.k if self.kind == "extension" else 1)

    def to_json(self) -> dict:
        if self.kind == "rational":
            return {"kind": "rational"}
        if self.kind == "prime":
            return {"kind": "prime", "p": self.p}
        return {"kind": "extension", "p": self.p, "k": self.k, "modulus": list(self.modulus)}

    @staticmethod
    def from_json(d) -> "FieldSpec":
        kind = _json_typed(d, dict, "a field")["kind"]
        if kind == "prime":
            return FieldSpec(kind, p=_json_int(d["p"]))
        if kind == "extension":
            modulus = _json_typed(d["modulus"], list, "a modulus")
            return FieldSpec(kind, p=_json_int(d["p"]), k=_json_int(d["k"]),
                             modulus=tuple(map(_json_int, modulus)))
        return FieldSpec(kind)  # the rationals; __post_init__ refuses other kinds


# ---------------------------------------------------------------------------
# field handles
# ---------------------------------------------------------------------------

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _json_int(v) -> int:
    """A JSON integer scalar; floats, booleans and strings are refused."""
    if type(v) is not int:
        raise ValueError(f"expected an integer scalar, got {v!r}")
    return v


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string"}


def _json_typed(v, kind: type, what: str):
    """v if it is a JSON value of Python type `kind` (dict, list or str)."""
    if type(v) is not kind:
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]} in JSON, got {v!r}")
    return v


class Field:
    """Common interface of the three concrete fields."""

    spec: FieldSpec

    def cardinality(self) -> Optional[int]:
        return self.spec.cardinality()

    def check(self, other: "Field") -> None:
        if self.spec != other.spec:
            raise FieldMismatch(f"{self.spec} vs {other.spec}")

    # subclasses implement: zero, one, add, sub, mul, neg, inv, from_int,
    # elements, scalar_to_json, scalar_from_json, and nonzero, a C callable
    # whose result is true exactly for the nonzero scalars

    def is_zero(self, a) -> bool:
        return not self.nonzero(a)

    # row operations, the inner loops of elimination and matrix products;
    # a field with cheaper arithmetic than its scalar methods overrides them

    def axpy_row(self, c, x, y) -> list:
        """y - c*x, entrywise; c = +-1 costs one sub or add per entry."""
        if c == self.one or c == self.neg(self.one):
            return list(map(self.sub if c == self.one else self.add, y, x))
        sub, mul = self.sub, self.mul
        return [sub(b, mul(c, a)) for a, b in zip(x, y)]

    def scale_row(self, c, x) -> list:
        mul = self.mul
        return [mul(c, a) for a in x]

    def dot(self, x, y):
        add, mul, nonzero = self.add, self.mul, self.nonzero
        acc = self.zero
        for a, b in zip(x, y):
            if nonzero(a) and nonzero(b):
                acc = add(acc, mul(a, b))
        return acc

    def packs(self, n: int, rows: int, terms: int | None = None) -> bool:
        """Whether a batch of `rows` rows of n entries is worked on packed, each
        entry a sum of at most `terms` (n if None) products of reduced entries."""
        return False

    # over Q, integer_row(v) gives (m v, m) with m v integral, and
    # linalg._eliminate holds each row as an integer multiple; None elsewhere
    integer_row = None

    def row_from_json(self, row) -> list:
        if set(map(type, row)) <= {int}:  # no entry to refuse
            return list(map(self.from_int, row))
        return [self.scalar_from_json(v) for v in row]

    def __eq__(self, other):
        return isinstance(other, Field) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"Field({self.spec})"


class PrimeField(Field):
    def __init__(self, p: int):
        self.spec = FieldSpec("prime", p=p)
        self.p = p
        self.zero = 0
        self.one = 1 % p
        self.nonzero = self.from_int = p.__rmod__  # a % p, exact for unreduced ints too

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def elements(self) -> Iterator[int]:
        return iter(range(self.p))

    # plain integer arithmetic, reduced once per entry or once per sum

    def axpy_row(self, c, x, y) -> list:
        p = self.p
        return [(b - c * a) % p for a, b in zip(x, y)]

    def scale_row(self, c, x) -> list:
        p = self.p
        return [c * a % p for a in x]

    def dot(self, x, y):
        return sum(map(operator.mul, x, y)) % self.p

    # A packed row is one int, entry j in the 64-bit slot at bit 64j.  Nonnegative
    # multiples of packed rows add slot by slot while no slot reaches 2^64: a sum
    # of `terms` products of reduced entries fits when terms * p^2 <= 2^64.  An
    # elimination updates a row of n entries at most n - 1 times, so its terms
    # are n; a product sums one term per inner index, however many slots it has.

    def packs(self, n: int, rows: int, terms: int | None = None) -> bool:
        p = self.p
        return (n >= PACK_MIN and rows * (p - 1) ** 2 > PACK_MIN_ROWS * p * p
                and (n if terms is None else terms) * p * p <= 1 << 64
                and sys.byteorder == "little")

    def pack(self, row) -> int:
        p = self.p
        return int.from_bytes(array("Q", [a % p for a in row]), "little")

    def unpack(self, x: int, n: int) -> list:  # a reduced row
        return memoryview(x.to_bytes(8 * n, "little")).cast("Q").tolist()

    def entry(self, x: int, j: int) -> int:
        return (x >> 64 * j & 0xFFFF_FFFF_FFFF_FFFF) % self.p

    def reduce(self, x: int, n: int, terms: int | None = None) -> int:
        """x, n packed slots below terms p^2 (n p^2 if terms is None), with each
        reduced mod p in the int (_barrett)."""
        k, s, m, low, mask = _barrett(self.p, n, n if terms is None else terms)
        if k == 1:
            return x - self.p * (x * m >> s & mask)
        out = 0
        for r in range(0, 64 * k, 64):
            y = x >> r & low
            out |= y - self.p * (y * m >> s & mask) << r
        return out

    def scalar_to_json(self, a):
        return a % self.p

    def scalar_from_json(self, v):
        return _json_int(v) % self.p


# linalg._eliminate packs GF(p) rows from PACK_MIN entries (PrimeField.pack) in
# batches of `rows` rows with rows ((p - 1) / p)^2 > PACK_MIN_ROWS, ((p - 1) / p)^2
# being how often a product x_i y_j of random entries is nonzero: a pack and a
# reduction inside the int each cost about a list axpy, and the list path skips
# zero multipliers.  On half-zero random rows, 3 rows of 16 entries took 1.4x the
# list time packed, 5-20 rows of 49-100 entries 0.3-0.7x over GF(101), and 8 rows
# of 25 entries 1.15x over GF(2), 0.8x over GF(3).  spaces.MatSpace._dense_products
# packs the n_cols columns of m stacked dense n_rows x n_cols generators by the same
# rule, with n = m n_rows slots and rows = terms = n_cols: with the packing, once per
# space, counted, 3 random 10 x 10 generators over GF(101) took 1.4x the list time
# for 1 vector, 0.54x for 5 and 0.39x for 10, and 24 of 16 x 16 0.22x for 8.
PACK_MIN = 12
PACK_MIN_ROWS = 5

# Extension fields up to this size do their multiplications by log/antilog
# tables, built in O(q) at construction; larger ones keep polynomial arithmetic.
TABLE_MAX = 1 << 12


@functools.cache
def _barrett(p: int, n: int, terms: int) -> tuple:
    """(k, s, m, low, mask) to reduce the n slots x < X = terms p^2 of a packed row mod p:
    with 2^s > (X - 1) p and m = ceil(2^s / p), x m >> s is x // p, as x (m p - 2^s)
    < 2^s.  Slot j is taken in class j mod k, low masking one class, with k the
    least (k = 1 while X < ~2^31) that keeps each x m within its 64 k bits, its
    quotient the low 64 k - s of them after the shift, which mask keeps."""
    x_max = terms * p * p - 1
    s = (x_max * p).bit_length()
    m = -(-(1 << s) // p)
    k = -(-(x_max * m).bit_length() // 64)
    w, slots = 64 * k, -(-n // k)
    low = int.from_bytes((b"\xff" * 8 + bytes(w // 8 - 8)) * slots, "little")
    mask = int.from_bytes(((1 << w - s) - 1).to_bytes(w // 8, "little") * slots, "little")
    return k, s, m, low, mask


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


class ExtensionField(Field):
    """GF(p)[x]/(modulus); elements are coefficient tuples of length k.

    Up to TABLE_MAX elements, with g the first primitive element in
    counting order and m = q - 1:
      _exp[i] = g^(i mod m) for 0 <= i < 2m (negative indices wrap too),
      _log[a] = i with g^i = a, and None for zero,
      _zech[i] = log(1 + g^(i mod m)), or None where 1 + g^i = 0; 2m long.
    Then a*b = _exp[_log[a] + _log[b]] and g^i + g^j = g^(j + _zech[i - j]).
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.spec = FieldSpec("extension", p=p, k=k, modulus=tuple(modulus))
        self.p = p
        self.k = k
        self.modulus = self.spec.modulus
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        self.nonzero = any  # elements are reduced coefficient tuples
        self._log = None
        if p ** k <= TABLE_MAX:
            self._build_tables()

    def _build_tables(self) -> None:
        self._order = m = self.p ** self.k - 1
        cofactors = [m // r for r in _prime_factors(m)]
        g = next(a for a in itertools.islice(self.elements(), 1, None)
                 if all(self._poly_pow(a, e) != self.one for e in cofactors))
        powers = [self.one]
        for _ in range(m - 1):
            powers.append(self._poly_mul_mod(powers[-1], g))
        self._exp = powers + powers
        self._log = {a: i for i, a in enumerate(powers)}
        self._log[self.zero] = None
        # -g^i = g^(i + m/2) for odd p, and -1 = 1 for p = 2
        self._neg_shift = m // 2 if self.p > 2 else 0
        zech = [self._log[self.add(self.one, a)] for a in powers]
        self._zech = zech + zech

    def _poly_mul_mod(self, a, b):
        prod = _poly_mul(_poly_trim(a), _poly_trim(b), self.p)
        return self._pad(_poly_divmod(prod, self.modulus, self.p)[1])

    def _poly_pow(self, a, e: int):
        return self._pad(_poly_pow_mod(_poly_trim(a), e, self.modulus, self.p))

    def _pad(self, c: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(c) + (0,) * (self.k - len(c))

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        log = self._log
        if log is None:
            return self._poly_mul_mod(a, b)
        la, lb = log[a], log[b]
        if la is None or lb is None:
            return self.zero
        return self._exp[la + lb]

    def inv(self, a):
        if self._log is not None:
            la = self._log[a]
            if la is None:
                raise ZeroDivisionError("inverse of zero")
            return self._exp[-la]
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        return self._poly_pow(a, self.p ** self.k - 2)

    # table lookups that skip zero terms; Field's generic loops above TABLE_MAX

    def axpy_row(self, c, x, y) -> list:
        log = self._log
        if log is None:
            return Field.axpy_row(self, c, x, y)
        lc = log[c]
        if lc is None:
            return list(y)
        exp, zech, zero = self._exp, self._zech, self.zero
        lc = (lc + self._neg_shift) % self._order   # log of -c
        out = []
        for a, b in zip(x, y):
            la = log[a]
            if la is None:
                out.append(b)
                continue
            lt = lc + la
            lb = log[b]
            if lb is None:
                out.append(exp[lt])
                continue
            z = zech[lt - lb]
            out.append(zero if z is None else exp[lb + z])
        return out

    def scale_row(self, c, x) -> list:
        log = self._log
        if log is None:
            return Field.scale_row(self, c, x)
        lc = log[c]
        if lc is None:
            return [self.zero] * len(x)
        exp, zero = self._exp, self.zero
        return [zero if la is None else exp[lc + la] for la in map(log.__getitem__, x)]

    def dot(self, x, y):
        log = self._log
        if log is None:
            return Field.dot(self, x, y)
        exp, zech, m = self._exp, self._zech, self._order
        acc = None                       # log of the running sum; None for zero
        for a, b in zip(x, y):
            la, lb = log[a], log[b]
            if la is None or lb is None:
                continue
            t = la + lb
            if acc is None:
                acc = t % m
                continue
            z = zech[t - acc]
            acc = None if z is None else (acc + z) % m
        return self.zero if acc is None else exp[acc]

    def from_int(self, i: int):
        return self._pad((i % self.p,))

    def elements(self) -> Iterator[tuple[int, ...]]:
        return _counting(self.p, self.k)

    def scalar_to_json(self, a):
        return list(a)

    def scalar_from_json(self, v):
        if not isinstance(v, list):
            return self.from_int(_json_int(v))
        if len(v) > self.k:
            raise ValueError(f"{v!r} has more than {self.k} coefficients")
        return self._pad(tuple(_json_int(c) % self.p for c in v))


def ratio(n: int, d: int):
    """n / d for ints n and d != 0: an int when d divides n, else a Fraction."""
    return n // d if n % d == 0 else Fraction(n, d)


class RationalField(Field):
    def __init__(self):
        self.spec = FieldSpec("rational")
        self.zero = 0
        self.one = 1
        self.nonzero = bool

    def add(self, a, b):
        return ratio(*(a + b).as_integer_ratio())

    def sub(self, a, b):
        return ratio(*(a - b).as_integer_ratio())

    def mul(self, a, b):
        return ratio(a.numerator * b.numerator, a.denominator * b.denominator)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return ratio(a.denominator, a.numerator)  # never 1 / a, a float for an int a

    from_int = staticmethod(operator.index)  # an int stays itself

    def integer_row(self, v) -> tuple[list, int]:
        """(m v, m), m the LCM of the denominators of v's entries."""
        if {*map(type, v)} <= {int}:
            return v, 1
        m = math.lcm(*[a.denominator for a in v])
        return [a.numerator * (m // a.denominator) for a in v], m

    # integer numerators and denominators, one ratio built per entry or per
    # sum; zero terms skipped

    def axpy_row(self, c, x, y) -> list:
        if not c:
            return list(y)
        cn, cd = c.numerator, c.denominator
        return [ratio(b.numerator * cd * a.denominator - cn * a.numerator * b.denominator,
                      b.denominator * cd * a.denominator) if a else b for a, b in zip(x, y)]

    def scale_row(self, c, x) -> list:
        cn, cd = c.numerator, c.denominator
        return [ratio(cn * a.numerator, cd * a.denominator) if a else a for a in x]

    def dot(self, x, y):
        num, den = 0, 1
        for a, b in zip(x, y):
            n = a.numerator * b.numerator
            if n:
                d = a.denominator * b.denominator
                if d == den:
                    num += n
                else:
                    g = math.gcd(den, d)
                    num, den = num * (d // g) + n * (den // g), den // g * d
        return ratio(num, den)

    def elements(self):
        raise FieldTooSmall("cannot enumerate an infinite field")

    def scalar_to_json(self, a):
        return f"{a.numerator}/{a.denominator}"

    def scalar_from_json(self, v):
        if not isinstance(v, str):
            return _json_int(v)
        m = _RATIONAL.fullmatch(v)
        den = int(m[2] or 1) if m else 0
        if den == 0:
            raise ValueError(f"malformed rational scalar {v!r}")
        return ratio(int(m[1]), den)


@functools.cache
def make_field(spec: FieldSpec) -> Field:
    """The handle of a field spec, one per spec; handles are not changed after
    construction, so every caller shares it."""
    if spec.kind == "rational":
        return RationalField()
    if spec.kind == "prime":
        return PrimeField(spec.p)
    return ExtensionField(spec.p, spec.k, spec.modulus)


def extension_field(p: int, k: int) -> Field:
    """GF(p^k) modulo the first monic irreducible of degree k in counting order."""
    if k < 1:
        raise ValueError(f"extension degree must be at least 1, got {k}")
    FieldSpec("prime", p=p)  # refuses a non-prime p before the search
    return make_field(FieldSpec("extension", p=p, k=k, modulus=_find_irreducible(p, k)))


# ---------------------------------------------------------------------------
# operations from the module contract
# ---------------------------------------------------------------------------

def ensure_size(field: Field, t: int):
    """Return (field', embed) with |field'| >= t.

    embed is a ring homomorphism from the original field into field'; it is
    the identity when the field is already large enough.
    """
    card = field.cardinality()
    if card is None or card >= t:
        return field, lambda a: a
    p = field.spec.p
    k_old = field.spec.k if field.spec.kind == "extension" else 1
    k = k_old
    while p ** k < t:
        k += k_old  # keep GF(p^k_old) a subfield
    big = extension_field(p, k)
    if field.spec.kind == "prime":
        return big, big.from_int

    def evaluate(coeffs, x):
        """sum_i coeffs[i] x^i in big, for GF(p) coefficients."""
        acc, power = big.zero, big.one
        for c in coeffs:
            acc = big.add(acc, big.mul(big.from_int(c), power))
            power = big.mul(power, x)
        return acc

    # embed GF(p^k_old) by sending x to the first root of the old modulus
    root = next(x for x in big.elements() if big.is_zero(evaluate(field.spec.modulus, x)))
    return big, lambda a: evaluate(a, root)


def distinct_elements(field: Field, t: int) -> list:
    """First t elements of the field in its canonical enumeration order."""
    card = field.cardinality()
    if card is not None and card < t:
        raise FieldTooSmall(f"need {t} elements, field has {card}")
    if card is None:
        return list(range(t))
    return list(itertools.islice(field.elements(), t))
