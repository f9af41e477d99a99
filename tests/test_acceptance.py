"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Every randomized corpus is seeded, so a red run is reproducible as-is.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from symrank import (Mat, MatSpace, PoInstance, PrimeField, RationalField,
                     Subspace, first_wong, is_triangularizable_with_nonsingular,
                     rational_sdit, second_wong, smr, smr_rank_only, solve_po,
                     tri_algo, verify_witness, witness_test)
from symrank.cli import main
from symrank.oracles import (brute_disc, brute_max_rank, sk3,
                             strict_upper_embed)
from symrank.po import _power_escapes
from conftest import (GF2, GF5, GF7, rand_matrix, rand_nonsingular,
                      rand_subspace, rank_one_space, upper_triangular)


def report(name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_criterion_01_sk3_anchors():
    t0 = time.monotonic()
    sp = sk3(GF5)
    rank, _ = brute_max_rank(sp)
    disc, _ = brute_disc(sp)
    elapsed = time.monotonic() - t0
    report("criterion 1: sk3 over GF(5) has max_rank 2 and disc 0 in under 1s",
           rank == 2 and disc == 0 and elapsed < 1.0)


def test_criterion_02_cork_disc_separation():
    t0 = time.monotonic()
    ok = True
    for f in (GF2, PrimeField(3)):
        emb = strict_upper_embed(sk3(f))
        rank, _ = brute_max_rank(emb)
        cork = emb.ncols - rank
        if f is GF2:
            disc, _ = brute_disc(emb)
            ok = ok and disc == 3
        ok = ok and cork == 4
    elapsed = time.monotonic() - t0
    report("criterion 2: strict_upper_embed(sk3) separates cork 4 from disc 3",
           ok and elapsed < 30.0)


def test_criterion_03_rank_one_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(103)
    done = 0
    ok = True
    while done < 200:
        f = rng.choice([GF5, GF7])
        n = rng.randint(1, 4)
        sp = rank_one_space(rng, f, n, n, rng.randint(1, 4))
        if sp.dim == 0:
            continue
        res = smr(sp)
        brute, _ = brute_max_rank(sp)
        ok = ok and res.status == "max_rank_found" and res.rank == brute
        ok = ok and verify_witness(sp, res.witness, n - res.rank)
        done += 1
    elapsed = time.monotonic() - t0
    report("criterion 3: smr matches brute force with verified witnesses on "
           "200 rank-1 instances in under 60s", ok and elapsed < 60.0)


def test_criterion_04_small_field_smr():
    rng = random.Random(104)
    done = 0
    ok = True
    while done < 50:
        n = rng.randint(1, 3)
        sp = rank_one_space(rng, GF2, n, n, rng.randint(1, 3))
        if sp.dim == 0:
            continue
        brute, _ = brute_max_rank(sp)
        ok = ok and smr_rank_only(sp) == brute
        done += 1
    report("criterion 4: smr_rank_only matches GF(2) brute force on 50 "
           "rank-1 instances", ok)


def test_criterion_05_pencil_compression():
    rng = random.Random(105)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 4)
        sp = MatSpace.from_spanning(
            [rand_matrix(rng, GF7, n, n), rand_matrix(rng, GF7, n, n)],
            GF7, n, n)
        if sp.dim == 0:
            continue
        rank, coeffs = brute_max_rank(sp)
        rep = witness_test(sp.element(coeffs), sp)
        ok = ok and rep.exists and rep.c == n - rank
        ok = ok and verify_witness(sp, rep.witness, n - rank)
    report("criterion 5: every max-rank pencil element yields a verified "
           "cork-witness on 200 pencils", ok)


def _brute_po(inst):
    f = inst.d.field
    n = inst.d.ncols
    best = None
    for tup in itertools.product(f.elements(), repeat=inst.d.dim):
        d = inst.d.element(list(tup))
        for ell in range(1, n + 1):
            if _power_escapes(d, ell, inst.u, inst.u_prime):
                best = ell if best is None else min(best, ell)
                break
    return best


def test_criterion_06_po_correctness():
    rng = random.Random(106)
    done = 0
    ok = True
    while done < 200:
        n = rng.randint(1, 4)
        sp = rank_one_space(rng, GF5, n, n, rng.randint(1, 3))
        if sp.dim == 0:
            continue
        inst = PoInstance(sp, rand_subspace(rng, GF5, n),
                          rand_subspace(rng, GF5, n))
        ans = solve_po(inst)
        expect = _brute_po(inst)
        ok = ok and ans.found == (expect is not None)
        if ans.found:
            d = sp.element(ans.coefficients)
            ok = ok and ans.ell == expect
            ok = ok and _power_escapes(d, ans.ell, inst.u, inst.u_prime)
        done += 1
    report("criterion 6: solve_po agrees with brute-force existence and "
           "minimal exponent on 200 instances", ok)


def test_criterion_07_tri_algo_promise_class():
    rng = random.Random(107)
    ok = True
    for trial in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(1, 3)
        singular_corpus = trial % 2 == 1
        tris = [upper_triangular(rng, GF7, n) for _ in range(m)]
        if singular_corpus:
            pos = rng.randrange(n)
            for t in tris:
                t.rows[pos][pos] = GF7.zero
        else:
            tris[0] = upper_triangular(rng, GF7, n, force_diag=True)
        q = rand_nonsingular(rng, GF7, n)
        p_inv = rand_nonsingular(rng, GF7, n)
        gens = [q.matmul(t).matmul(p_inv) for t in tris]
        sp = MatSpace.from_spanning(gens, GF7, n, n)
        if sp.dim == 0:
            continue
        out = tri_algo(sp)
        ok = ok and out.kind != "fail"
        if singular_corpus:
            ok = ok and out.kind == "witness"
            if out.kind == "witness":
                ok = ok and verify_witness(sp, out.witness, 1)
        else:
            ok = ok and out.kind == "nonsingular"
            if out.kind == "nonsingular":
                ok = ok and sp.element(out.coefficients).rank() == n
    report("criterion 7: tri_algo certifies 200 equivalence-twisted "
           "triangular instances without a single fail", ok)


def test_criterion_08_triangularizability_test():
    rng = random.Random(108)
    ok = True
    for _ in range(50):
        n = rng.randint(2, 4)
        m = rng.randint(1, 3)
        tris = [upper_triangular(rng, GF7, n, force_diag=(i == 0))
                for i in range(m)]
        q = rand_nonsingular(rng, GF7, n)
        p = rand_nonsingular(rng, GF7, n)
        gens = [q.matmul(t).matmul(p) for t in tris]
        sp = MatSpace.from_spanning(gens, GF7, n, n)
        ok = ok and is_triangularizable_with_nonsingular(sp, gens[0])

    for n in (2, 3):
        full = MatSpace.from_spanning(
            [Mat.from_ints(GF5, [[1 if (a, b) == (i, j) else 0
                                  for b in range(n)] for a in range(n)])
             for i in range(n) for j in range(n)])
        ok = ok and not is_triangularizable_with_nonsingular(
            full, Mat.identity(GF5, n))

    # invariance: basis change of the span and two-sided equivalence
    for _ in range(20):
        n = 3
        tris = [upper_triangular(rng, GF7, n, force_diag=True),
                upper_triangular(rng, GF7, n)]
        sp = MatSpace.from_spanning(tris, GF7, n, n)
        base = is_triangularizable_with_nonsingular(sp, tris[0])
        lam = GF7.from_int(rng.randint(1, 6))
        mu = GF7.from_int(rng.randint(0, 6))
        s = Mat.zeros(GF7, n, n).axpy(lam, tris[0]).axpy(mu, tris[1])
        mixed = MatSpace.from_spanning([s, tris[1]], GF7, n, n)
        if s.rank() == n:
            ok = ok and is_triangularizable_with_nonsingular(mixed, s) == base
        q = rand_nonsingular(rng, GF7, n)
        p = rand_nonsingular(rng, GF7, n)
        twisted = MatSpace.from_spanning(
            [q.matmul(t).matmul(p) for t in tris], GF7, n, n)
        ok = ok and is_triangularizable_with_nonsingular(
            twisted, q.matmul(tris[0]).matmul(p)) == base
    report("criterion 8: triangularizability test is sound on the corpus and "
           "invariant under equivalence", ok)


def _signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = rng.choice([-1, 1])
    return rows


def _int_matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def test_criterion_09_rational_pipeline():
    from symrank.sdit import _int_det
    rng = random.Random(109)
    ok = True
    for _ in range(50):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        tris = []
        for i in range(m):
            t = [[rng.randint(-3, 3) if j >= r else 0 for j in range(n)]
                 for r in range(n)]
            if i == 0:
                for r in range(n):
                    t[r][r] = rng.choice([-3, -2, -1, 1, 2, 3])
            tris.append(t)
        q = _signed_permutation(rng, n)
        p = _signed_permutation(rng, n)
        mats = [_int_matmul(_int_matmul(q, t), p) for t in tris]
        assert all(abs(e) <= 10 for mat in mats for row in mat for e in row)
        rep = rational_sdit(mats)
        ok = ok and rep.outcome == "nonsingular_combination"
        if rep.outcome == "nonsingular_combination":
            combo = [[sum(c * mat[i][j] for c, mat in
                          zip(rep.integer_coefficients, mats))
                      for j in range(n)] for i in range(n)]
            ok = ok and _int_det(combo) != 0
            ok = ok and rep.prime_used <= rep.bound_used

    # coefficient reduction over the rationals stays inside {0,...,n}
    qf = RationalField()
    done = 0
    while done < 10:
        n = rng.randint(1, 3)
        gens = []
        for _ in range(rng.randint(1, 3)):
            u = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            v = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            gens.append(Mat(qf, [[a * b for b in v] for a in u]))
        sp = MatSpace.from_spanning(gens, qf, n, n)
        if sp.dim == 0:
            continue
        res = smr(sp)
        ok = ok and res.status == "max_rank_found"
        ok = ok and all(c.denominator == 1 and 0 <= c <= n
                        for c in res.coefficients)
        done += 1
    report("criterion 9: rational_sdit verifies integer determinants within "
           "its prime bound and rational smr coefficients stay in {0..n}", ok)


def test_criterion_10_wong_structural_suite():
    rng = random.Random(110)
    ok = True
    for _ in range(500):
        f = rng.choice([GF2, PrimeField(3)])
        n = rng.randint(1, 3)
        gens = [rand_matrix(rng, f, n, n) for _ in range(rng.randint(1, 2))]
        sp = MatSpace.from_spanning(gens, f, n, n)
        a = sp.gens[0] if sp.dim else Mat.zeros(f, n, n)
        first = first_wong(a, sp)
        second = second_wong(a, sp)

        for u, v in zip(first.terms, first.terms[1:]):
            ok = ok and u.contains(v) and u != v
        for u, v in zip(second.terms, second.terms[1:]):
            ok = ok and v.contains(u) and u != v
        ok = ok and len(first.terms) <= n + 1 and len(second.terms) <= n + 1

        # limits are the extreme fixed subspaces of their update maps
        u_star, w_star = first.limit, second.limit
        ok = ok and MatSpace.of(a).image_of(u_star).contains(sp.image_of(u_star))
        ok = ok and w_star.contains(sp.image_of(MatSpace.of(a).preimage_of(w_star)))
        for _ in range(200):
            c = rand_subspace(rng, f, n)
            if MatSpace.of(a).image_of(c).contains(sp.image_of(c)):
                ok = ok and u_star.contains(c)
            if c.contains(sp.image_of(MatSpace.of(a).preimage_of(c))):
                ok = ok and c.contains(w_star)

        # duality against the transpose space
        dual = first_wong(a.transpose(), sp.transpose_space())
        ok = ok and w_star == dual.limit.orthogonal()
        for w, u in zip(second.terms, dual.terms):
            ok = ok and w == u.orthogonal()
        assert ok
    report("criterion 10: 500 Wong traces satisfy monotonicity, "
           "stabilization, extremality, and duality", ok)


def test_criterion_11_determinism(tmp_path):
    inst = str(tmp_path / "diag.json")
    with open(inst, "w") as fh:
        json.dump({"field": {"kind": "prime", "p": 7}, "n": 3, "n_cols": 3,
                   "basis": [[[1, 0, 0], [0, 0, 0], [0, 0, 0]],
                             [[0, 0, 0], [0, 1, 0], [0, 0, 0]]]}, fh)
    rat = str(tmp_path / "upper.json")
    with open(rat, "w") as fh:
        json.dump({"field": {"kind": "rational"}, "n": 2, "n_cols": 2,
                   "basis": [[["1", "0"], ["0", "1"]],
                             [["0", "1"], ["0", "0"]]]}, fh)
    u = str(tmp_path / "u.json")
    with open(u, "w") as fh:
        json.dump({"ambient_dim": 3, "basis": [[0, 0, 1]]}, fh)

    runs = [
        ["gallery", "sk3", "--field", "gf5"],
        ["smr", inst],
        ["oracle", inst],
        ["wong", inst, "--anchor", "0", "--kind", "first"],
        ["wong", inst, "--anchor", "1", "--kind", "second"],
        ["po", inst, "--u", u, "--uprime", u],
        ["sdit-tri", rat, "--mod-p"],
        ["tri-test", rat, "--pivot", "0"],
    ]
    ok = True
    for i, argv in enumerate(runs):
        outs = []
        for rep in range(2):
            out = str(tmp_path / f"cert_{i}_{rep}.json")
            main(argv + ["-o", out])
            outs.append(open(out, "rb").read())
        ok = ok and outs[0] == outs[1]
    report("criterion 11: every command is byte-for-byte deterministic", ok)
