"""Seeded instance families with planted answers, and the answer checks.

Every generator plants the truth it later checks against: for SMR an upper
bound (a subspace U with dim U - dim B(U) = c) and a lower bound (a
coefficient vector whose combination has rank n - c); for the structure
commands the expected outcome by construction. Both bounds are confirmed
with ``exact`` when the instance is made, so a wrong answer from the solver
is caught even when ``symrank verify`` accepts it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import exact

P = 101          # prime of the GF(p) families
SMALL = range(-3, 4)  # entries of integer (Q) inputs


@dataclass
class Instance:
    kind: str             # command kind: smr | tri-test | sdit-tri | sdit-tri-modp | po
    family: str           # instance family, for the per-kind time shares
    n: int
    data: dict            # instance JSON
    truth: dict
    extra: dict = field(default_factory=dict)  # subspace files: flag -> JSON

    def argv(self, inst_path: str, extra_paths: dict, cert_path: str) -> list:
        cmd = {"smr": ["smr"], "tri-test": ["tri-test", "--pivot", "0"],
               "sdit-tri": ["sdit-tri"], "sdit-tri-modp": ["sdit-tri", "--mod-p"],
               "po": ["po"]}[self.kind]
        out = cmd[:1] + [inst_path] + cmd[1:]
        for flag, path in extra_paths.items():
            out += [flag, path]
        return out + ["-o", cert_path]


# ---------------------------------------------------------------------------
# random matrices
# ---------------------------------------------------------------------------

def _field_json(p):
    return {"kind": "prime", "p": p} if p else {"kind": "rational"}


def _entry(rng, p):
    return rng.randrange(p) if p else rng.choice(SMALL)


def _vec(rng, p, size, support):
    while True:
        v = [_entry(rng, p) if j in support else 0 for j in range(size)]
        if any(v):
            return v


def _nonsingular(rng, p, n):
    """(A, A^-1); over Q a signed permutation, so integer entries stay small."""
    if p is None:
        perm = list(range(n))
        rng.shuffle(perm)
        a = [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)]
             for i in range(n)]
        return a, [list(col) for col in zip(*a)]
    while True:
        a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if exact.rank(a, p) == n:
            return a, exact.inverse(a, p)


def _independent(mats, p) -> bool:
    return exact.rank([[e for r in m for e in r] for m in mats], p) == len(mats)


def _upper(rng, p, n, diag):
    """Upper triangular with the given diagonal and random entries above it."""
    return [[diag[i] if j == i else (_entry(rng, p) if j > i else 0)
             for j in range(n)] for i in range(n)]


def _nonzero(rng, p):
    return rng.randrange(1, p) if p else rng.choice((-3, -2, -1, 1, 2, 3))


# ---------------------------------------------------------------------------
# SMR: rank-1-spanned spaces with a planted maximum rank
# ---------------------------------------------------------------------------

def smr_square(rng, p, n, c, m, family):
    """n x n, m rank-1 generators, maximum rank exactly n - c.

    Before the twist, with k = ceil((n - c) / 2), rows W = e_0..e_{k-1} and
    columns U = e_0..e_{k+c-1}: half the generators map everything into W,
    the other half vanish on U, so B(U) <= W and U is a c-witness. The
    twist Q . B . R hides the coordinates; the witness becomes R^-1 U.
    """
    k = (n - c + 1) // 2
    q, _ = _nonsingular(rng, p, n)
    r, r_inv = _nonsingular(rng, p, n)
    allrows, w_rows, tail = set(range(n)), set(range(k)), set(range(k + c, n))
    while True:
        gens = []
        for i in range(m):
            x = _vec(rng, p, n, w_rows if i % 2 == 0 else allrows)
            y = _vec(rng, p, n, allrows if i % 2 == 0 else tail)
            x, y = exact.apply(q, x, p), exact.apply(list(zip(*r)), y, p)
            gens.append([[a * b % p if p else a * b for b in y] for a in x])
        witness = [[r_inv[i][j] for i in range(n)] for j in range(k + c)]
        planted = _planted(rng, p, n, gens, n - c, witness, c)
        if planted is not None:
            return _smr_instance(p, n, n, gens, n - c, planted, family)


def smr_rect(rng, p, n, ncols, family):
    """n x ncols with n + 1 random rank-1 generators; maximum rank min(n, ncols)."""
    size = max(n, ncols)
    r = min(n, ncols)
    while True:
        gens = []
        for _ in range(r + 1):
            x = _vec(rng, p, n, set(range(n)))
            y = _vec(rng, p, ncols, set(range(ncols)))
            gens.append([[a * b % p if p else a * b for b in y] for a in x])
        padded = [_pad(g, size) for g in gens]
        # wide: B(F^size) lies in the first n rows; tall: B kills the padded columns
        witness = [[int(i == j) for i in range(size)]
                   for j in (range(size) if n < ncols else range(ncols, size))]
        planted = _planted(rng, p, size, padded, r, witness, size - r)
        if planted is not None:
            return _smr_instance(p, n, ncols, gens, r, planted, family)


def _pad(g, size):
    rows = [list(row) + [0] * (size - len(row)) for row in g]
    return rows + [[0] * size for _ in range(size - len(rows))]


def _planted(rng, p, size, gens, max_rank, witness, c):
    """A coefficient vector of rank max_rank, after checking both bounds."""
    if not _independent(gens, p):
        return None
    assert exact.witness_gap(gens, witness, p) >= c  # upper bound by construction
    for _ in range(40):  # a random combination reaches the maximum often
        coeffs = [_entry(rng, p) if p else rng.randrange(size + 1) for _ in gens]
        if exact.rank(exact.combine(coeffs, gens, p), p) == max_rank:
            return {"coefficients": coeffs, "witness": witness}
    return None


def _smr_instance(p, n, ncols, gens, max_rank, planted, family):
    return Instance("smr", family, max(n, ncols),
                    {"field": _field_json(p), "n": n, "n_cols": ncols, "basis": gens},
                    {"max_rank": max_rank, "size": max(n, ncols), "p": p, **planted})


# ---------------------------------------------------------------------------
# structure: triangularizability, tri_algo, the mod-p pipeline, PO
# ---------------------------------------------------------------------------

def _twisted(rng, p, n, tris):
    q, _ = _nonsingular(rng, p, n)
    r, r_inv = _nonsingular(rng, p, n)
    return [exact.matmul(exact.matmul(q, t, p), r, p) for t in tris], r_inv


def tri_test(rng, n, triangularizable):
    """Q.T_i.R with T_0 nonsingular upper triangular, or Q.{I, X, Y}.R with [X, Y]
    not nilpotent (a commutator of a triangularizable algebra is nilpotent)."""
    while True:
        if triangularizable:
            tris = [_upper(rng, P, n, [_nonzero(rng, P) for _ in range(n)])]
            tris += [_upper(rng, P, n, [_entry(rng, P) for _ in range(n)])
                     for _ in range(2)]
        else:
            x, y = ([[rng.randrange(P) for _ in range(n)] for _ in range(n)]
                    for _ in range(2))
            comm = [[(a - b) % P for a, b in zip(r1, r2)]
                    for r1, r2 in zip(exact.matmul(x, y, P), exact.matmul(y, x, P))]
            power = comm
            for _ in range(n - 1):
                power = exact.matmul(power, comm, P)
            if not any(any(r) for r in power):
                continue
            tris = [[[int(i == j) for j in range(n)] for i in range(n)], x, y]
        gens, _ = _twisted(rng, P, n, tris)
        if _independent(gens, P):
            family = "triangularizable" if triangularizable else "full_algebra"
            return Instance("tri-test", family, n,
                            {"field": _field_json(P), "n": n, "basis": gens},
                            {"triangularizable": triangularizable})


def _singular_diagonals(rng, p, n, m, dead):
    """m diagonals, each zero off its own residue class mod m, so every
    generator is singular but their sum is not; `dead` is zero in all."""
    return [[_nonzero(rng, p) if j % m == i and j != dead else 0 for j in range(n)]
            for i in range(m)]


def sdit_tri(rng, n, m, nonsingular):
    """Q.T_i.R, every T_i singular upper triangular. Nonsingular: the sum of
    the T_i has a full diagonal. Otherwise diagonal entry `dead` is zero in
    all T_i, so R^-1 span(e_0..e_dead) is a 1-witness."""
    while True:
        dead = -1 if nonsingular else rng.randrange(n)
        tris = [_upper(rng, P, n, d) for d in _singular_diagonals(rng, P, n, m, dead)]
        gens, r_inv = _twisted(rng, P, n, tris)
        if not _independent(gens, P):
            continue
        if nonsingular:
            assert exact.rank(exact.combine([1] * m, gens, P), P) == n
            truth = {"outcome": "nonsingular"}
        else:
            witness = [[r_inv[i][j] for i in range(n)] for j in range(dead + 1)]
            assert exact.witness_gap(gens, witness, P) >= 1
            truth = {"outcome": "witness"}
        family = "nonsingular" if nonsingular else "witness"
        return Instance("sdit-tri", family, n,
                        {"field": _field_json(P), "n": n, "basis": gens}, truth)


def sdit_modp(rng, n, m):
    """Integer Q.T_i.R with signed permutations Q, R and singular T_i whose sum
    is nonsingular; the pipeline must find a nonsingular integer combination."""
    while True:
        tris = [_upper(rng, None, n, d)
                for d in _singular_diagonals(rng, None, n, m, -1)]
        gens, _ = _twisted(rng, None, n, tris)
        if _independent(gens, None) and \
                exact.rank(exact.combine([1] * m, gens), None) == n:
            return Instance("sdit-tri-modp", "integer_triangular", n,
                            {"field": _field_json(None), "n": n, "basis": gens},
                            {"outcome": "nonsingular_combination"})


def po_jordan(rng, n):
    """D = Q.span(E_{i,i+1}).Q^-1, U = Q e_{n-1}, U' = Q span(e_1..e_{n-1}):
    D^j(U) first leaves U' at j = n - 1."""
    q, q_inv = _nonsingular(rng, P, n)
    gens = []
    for i in range(n - 1):
        e = [[int((a, b) == (i, i + 1)) for b in range(n)] for a in range(n)]
        gens.append(exact.matmul(exact.matmul(q, e, P), q_inv, P))
    cols = [list(col) for col in zip(*q)]
    u = {"ambient_dim": n, "basis": [cols[n - 1]]}
    u_prime = {"ambient_dim": n, "basis": cols[1:]}
    return Instance("po", "jordan_chain", n,
                    {"field": _field_json(P), "n": n, "basis": gens},
                    {"ell": n - 1, "u": u["basis"], "u_prime": u_prime["basis"]},
                    {"--u": u, "--uprime": u_prime})


# ---------------------------------------------------------------------------
# workloads: a fixed cycle of (family, size) slots; the seed fills in entries
# ---------------------------------------------------------------------------

# Each slot list has an odd length, so the median instance falls inside one
# family's cluster of times, not on the gap between two.

def _smr_gfp(rng):
    out = []
    for n in (8, 9, 10):
        out.append(smr_square(rng, P, n, 2, 2 * n, "cork2"))
        out.append(smr_square(rng, P, n, 0, n + 2, "full_rank"))
    out.append(smr_square(rng, P, 8, 2, 16, "cork2"))
    out.append(smr_rect(rng, P, 8, 10, "rect_wide"))
    out.append(smr_rect(rng, P, 10, 8, "rect_tall"))
    return out


def _smr_ext_rational(rng):
    # cork2 at n = 5 and 6, full_rank at n = 6 only: n = 5 solves 2-3 times
    # faster, and with both sizes in equal parts the median fell on the gap
    # between them. With n = 6 alone, p90 sat in the heavy tail of n = 6.
    out = []
    for p, family in ((2, "gf2"), (3, "gf3"), (None, "rational")):
        out.append(smr_square(rng, p, 5, 2, 10, family + "_cork2"))
        out.append(smr_square(rng, p, 6, 2, 12, family + "_cork2"))
        out.append(smr_square(rng, p, 6, 0, 8, family + "_full_rank"))
    return out


def _structure(rng):
    # Seven slots with two po: the median solve then falls inside the po
    # cluster, not on the edge between two command kinds, where it would jump.
    return [tri_test(rng, 5, True), tri_test(rng, 4, False),
            sdit_tri(rng, 10, 3, True), sdit_tri(rng, 10, 3, False),
            sdit_modp(rng, 8, 3), po_jordan(rng, 7), po_jordan(rng, 7)]


WORKLOADS = {"smr-gfp": _smr_gfp, "smr-ext-rational": _smr_ext_rational,
             "structure": _structure}


def generate(workload: str, seed: int, cycles: int) -> list:
    """`cycles` repetitions of the workload's slot list, all seeded."""
    rng = random.Random(f"{workload}:{seed}")
    return [inst for _ in range(cycles) for inst in WORKLOADS[workload](rng)]


# ---------------------------------------------------------------------------
# answer checks
# ---------------------------------------------------------------------------

def _q(v, p):
    return v % p if p else Fraction(v)


def check(inst: Instance, cert: dict):
    """None if the certificate's answer matches the planted truth, else why not."""
    t = inst.truth
    basis = inst.data["basis"]
    if inst.kind == "smr":
        if cert["status"] not in ("max_rank_found", "non_constructive_rank"):
            return f"status {cert['status']}"
        if cert["rank"] != t["max_rank"] or cert["c"] != t["size"] - t["max_rank"]:
            return f"rank {cert['rank']}, c {cert['c']}, planted {t['max_rank']}"
        p = t["p"]
        if cert["working_field"] != inst.data["field"]:
            return None  # extension field: rank checked, certificate by verify
        gens = [_pad(g, t["size"]) for g in basis]
        coeffs = [_q(c, p) for c in cert["coefficients"]]
        if exact.rank(exact.combine(coeffs, gens, p), p) != t["max_rank"]:
            return "coefficients do not reach the rank"
        witness = [[_q(e, p) for e in row] for row in cert["witness_basis"]]
        if exact.witness_gap(gens, witness, p) < cert["c"]:
            return "witness does not prove c"
        return None
    if inst.kind == "tri-test":
        want = "triangularizable" if t["triangularizable"] else "not_triangularizable"
        return None if cert["status"] == want else f"status {cert['status']}"
    if inst.kind in ("sdit-tri", "sdit-tri-modp"):
        if cert["status"] != t["outcome"]:
            return f"status {cert['status']}, planted {t['outcome']}"
        p = P if inst.kind == "sdit-tri" else None
        if cert["status"] == "witness":
            if exact.witness_gap(basis, cert["witness_basis"], p) < 1:
                return "witness is not strict"
            return None
        coeffs = [_q(c, p) for c in cert["coefficients"]]
        if exact.rank(exact.combine(coeffs, basis, p), p) != inst.n:
            return "combination is singular"
        return None
    if inst.kind == "po":
        if cert["status"] != "found" or cert.get("ell") != t["ell"]:
            return f"status {cert['status']}, ell {cert.get('ell')}"
        x = exact.combine(cert["coefficients"], basis, P)
        moved = t["u"]
        for _ in range(t["ell"]):
            moved = [exact.apply(x, v, P) for v in moved]
        if exact.rank(t["u_prime"] + moved, P) == exact.rank(t["u_prime"], P):
            return "X^ell(U) stays inside U'"
        return None
    raise ValueError(f"unknown kind {inst.kind}")
