"""Command line entry point: instance I/O, dispatch, certificates.

Instances and certificates are JSON.  Certificates are self-contained and
deterministic byte for byte; `verify` re-checks every claim a certificate
makes against the instance file alone.

Exit codes: 0 success, 1 malformed input, 2 typed algorithmic failure
(`failed_po`, `fail`, a `po` "no", or a failed verification).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain

from . import oracles, sdit
from .smr import SmrResult, check_claim, pad_square
from .smr import smr as run_smr
from .errors import DimMismatch, SymrankError
from .fields import FieldSpec, _json_int, _json_typed, extension_field, make_field
from .linalg import Mat, Subspace
from .po import PoInstance, _power_escapes, solve_po
from .spaces import MatSpace
from .wong import first_wong, second_wong


# ---------------------------------------------------------------------------
# I/O helpers
# ---------------------------------------------------------------------------

def parse_field_name(name: str):
    name = name.lower()
    if name in ("q", "rational", "rationals"):
        return make_field(FieldSpec("rational"))
    if name.startswith("gf"):
        body = name[2:]
        if "^" in body:
            p_s, k_s = body.split("^")
            return extension_field(int(p_s), int(k_s))
        return make_field(FieldSpec("prime", p=int(body)))
    raise ValueError(f"unknown field name {name!r}")


def load_instance(path: str) -> MatSpace:
    with open(path) as fh:
        data = _json_typed(json.load(fh), dict, "an instance")
    field = make_field(FieldSpec.from_json(data["field"]))
    n = _json_int(data["n"])
    n_cols = _json_int(data.get("n_cols", n))
    if n < 0 or n_cols < 0:
        raise ValueError(f"negative matrix size {n} x {n_cols}")
    gens, flats = [], []
    for mat in _json_typed(data["basis"], list, "a basis"):
        rows = [_json_typed(row, list, "a basis matrix")
                for row in _json_typed(mat, list, "a basis matrix")]
        flats.append(field.row_from_json(list(chain.from_iterable(rows))))
        if len({*map(len, rows)}) > 1:
            raise DimMismatch("ragged rows")
        if len(rows) != n or rows and len(rows[0]) != n_cols:
            raise ValueError("basis matrix has wrong shape")
        gens.append(Mat.from_flat(field, flats[-1], n, n_cols))
    return MatSpace.from_spanning(gens, field, n, n_cols, flats)


def integer_generators(sp: MatSpace) -> list[list[list[int]]]:
    """Each generator of a space over Q times the LCM of its denominators.

    Scaling a generator keeps the span, so the integer pipeline decides the
    same question on the same basis that `load_instance` returns.
    """
    if sp.field.spec.kind != "rational":
        raise ValueError("the integer pipeline needs an instance over the rationals")
    f = sp.field
    return [Mat.from_flat(f, f.integer_row(g.entry_list())[0], sp.nrows, sp.ncols).rows
            for g in sp.gens]


def save_instance(sp: MatSpace, path: str) -> None:
    f = sp.field
    data = {
        "field": f.spec.to_json(),
        "n": sp.nrows,
        "n_cols": sp.ncols,
        "basis": [[[f.scalar_to_json(e) for e in row] for row in g.rows]
                  for g in sp.gens],
    }
    _write_json(data, path)


def load_subspace(path: str, field) -> Subspace:
    with open(path) as fh:
        data = _json_typed(json.load(fh), dict, "a subspace")
    return _subspace_from_json(field, _json_int(data["ambient_dim"]), data["basis"])


def _subspace_from_json(field, ambient_dim: int, rows) -> Subspace:
    what = "a subspace basis"
    return Subspace(field, ambient_dim, [field.row_from_json(_json_typed(row, list, what))
                                         for row in _json_typed(rows, list, what)])


def _coefficients(parse, cert) -> list:
    """The certificate's coefficient array, each entry parsed by `parse`."""
    return [parse(c) for c in _json_typed(cert["coefficients"], list, "coefficients")]


def _subspace_json(u: Subspace):
    f = u.field
    return [[f.scalar_to_json(e) for e in row] for row in u.basis]


def _coeffs_json(field, coeffs):
    return [field.scalar_to_json(c) for c in coeffs]


def _generator(sp: MatSpace, i) -> Mat:
    """The basis matrix at index i of the loaded space."""
    i = _json_int(i)
    if sp.dim == 0:
        raise ValueError("the instance has no generators")
    if not 0 <= i < sp.dim:
        raise ValueError(f"generator index {i} is outside 0..{sp.dim - 1}")
    return sp.gens[i]


def _write_json(data, path) -> None:
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# certificate builders, one per instance command
# ---------------------------------------------------------------------------

FAILURES = ("failed_po", "fail", "no")


def _emit(cert: dict, path) -> int:
    """Write a certificate; exit code 2 if its status is a typed failure."""
    _write_json(cert, path)
    return 2 if cert.get("status") in FAILURES else 0


def smr_certificate(sp: MatSpace) -> dict:
    res = run_smr(sp)
    wf = make_field(res.working_field)
    cert = {
        "algorithm": "smr",
        "status": res.status,
        "coefficients": _coeffs_json(wf, res.coefficients),
        "rank": res.rank,
        "working_field": res.working_field.to_json(),
        "trace_summary": {"iterations": len(res.ranks_visited),
                          "ranks_visited": res.ranks_visited},
    }
    if res.witness is not None:
        cert["witness_basis"] = _subspace_json(res.witness)
        cert["c"] = max(sp.nrows, sp.ncols) - res.rank
    return cert


def sdit_certificate(sp: MatSpace, mod_p: bool) -> dict:
    """tri_algo's certificate.  With mod_p the integer pipeline runs first,
    and its certificate is returned if a prime finds a nonsingular
    combination; a spent prime loop decides nothing, so tri_algo decides."""
    if mod_p:
        report = sdit.rational_sdit(integer_generators(sp))
        if report.outcome == "nonsingular_combination":
            return {
                "algorithm": "rational_sdit",
                "status": report.outcome,
                "prime_used": report.prime_used,
                "coefficients": report.integer_coefficients,
                "working_field": {"kind": "rational"},
                "trace_summary": {"primes_tried": report.primes_tried,
                                  "bound_used": str(report.bound_used)},
            }
    out = sdit.tri_algo(sp)
    f = sp.field
    cert = {
        "algorithm": "tri_algo",
        "status": out.kind,
        "working_field": f.spec.to_json(),
        "trace_summary": {"generators": sp.dim},
    }
    if out.kind == "nonsingular":
        cert["coefficients"] = _coeffs_json(f, out.coefficients)
    elif out.kind == "witness":
        cert["witness_basis"] = _subspace_json(out.witness)
        cert["c"] = out.witness.dim - sp.image_of(out.witness).dim
    return cert


# deterministic commands: verify compares a certificate with what these build

def tri_test_certificate(sp: MatSpace, pivot) -> dict:
    result = sdit.is_triangularizable_with_nonsingular(sp, _generator(sp, pivot))
    return {
        "algorithm": "tri_test",
        "status": "triangularizable" if result else "not_triangularizable",
        "pivot": pivot,
        "working_field": sp.field.spec.to_json(),
    }


def wong_certificate(sp: MatSpace, anchor, kind) -> dict:
    if kind not in ("first", "second"):
        raise ValueError(f"unknown Wong sequence kind {kind!r}")
    trace = (first_wong if kind == "first" else second_wong)(_generator(sp, anchor), sp)
    return {
        "algorithm": "wong",
        "kind": kind,
        "anchor": anchor,
        "terms": [_subspace_json(t) for t in trace.terms],
        "limit": _subspace_json(trace.limit),
        "working_field": sp.field.spec.to_json(),
    }


def po_certificate(sp: MatSpace, u: Subspace, u_prime: Subspace) -> dict:
    answer = solve_po(PoInstance(sp, u, u_prime))
    f = sp.field
    cert = {
        "algorithm": "po",
        "status": "found" if answer.found else "no",
        "u_basis": _subspace_json(u),
        "uprime_basis": _subspace_json(u_prime),
        "working_field": f.spec.to_json(),
    }
    if answer.found:
        cert["coefficients"] = _coeffs_json(f, answer.coefficients)
        cert["ell"] = answer.ell
    return cert


def oracle_certificate(sp: MatSpace, budget: int = oracles.DEFAULT_BUDGET) -> dict:
    rank, coeffs = oracles.brute_max_rank(sp, budget)
    disc, witness = oracles.brute_disc(sp, budget)
    f = sp.field
    card = f.cardinality()
    return {
        "algorithm": "oracle",
        "max_rank": rank,
        "disc": disc,
        "argmax_coefficients": _coeffs_json(f, coeffs),
        "argmax_witness": _subspace_json(witness),
        "enumerated_elements": card ** sp.dim,
        "enumerated_subspaces": oracles.count_subspaces(sp.ncols, card),
        "working_field": f.spec.to_json(),
    }


def cmd_gallery(args) -> int:
    name = args.name.replace("-", "_")
    if name == "sk3":
        sp = oracles.sk3(parse_field_name(args.field))
    elif name not in ("strict_upper_embed", "yz_lift", "yz_lift_shifted"):
        raise ValueError(f"unknown gallery name {args.name!r}")
    elif args.base is None:
        raise ValueError(f"gallery {args.name} needs --base")
    elif name == "strict_upper_embed":
        sp = oracles.strict_upper_embed(load_instance(args.base))
    else:
        base = load_instance(args.base)
        fn = oracles.yz_lift if name == "yz_lift" else oracles.yz_lift_shifted
        sp = fn(pad_square(base), Mat.identity(base.field, max(base.nrows, base.ncols)))
    save_instance(sp, args.output)
    return 0


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

STATUSES = {"smr": ("max_rank_found", "non_constructive_rank", "failed_po"),
            "tri_algo": ("nonsingular", "witness", "fail"),
            "rational_sdit": ("nonsingular_combination",),
            "po": ("found", "no"),
            "tri_test": ("triangularizable", "not_triangularizable")}


def verify_certificate(sp: MatSpace, cert: dict) -> bool:
    """Parse a certificate and check its claim with the solver's own checker.

    A wong, tri_test or oracle certificate, or a po `no`, claims its whole
    text: it passes only if it equals what the command's builder writes.
    A malformed certificate raises ValueError; a false claim returns False.
    """
    cert = _json_typed(cert, dict, "a certificate")
    algo = _json_typed(cert["algorithm"], str, "algorithm")
    status = cert.get("status")
    if algo in STATUSES and status not in STATUSES[algo]:
        raise ValueError(f"{algo} certificate has unknown status {status!r}")

    if algo == "smr":
        wf = make_field(FieldSpec.from_json(cert["working_field"]))
        n, rank = max(sp.nrows, sp.ncols), _json_int(cert["rank"])
        c = witness = None
        if status != "failed_po":
            c = _json_int(cert["c"])
            witness = _subspace_from_json(wf, n, cert["witness_basis"])
        coeffs = _coefficients(wf.scalar_from_json, cert)
        # check_claim first: a working field the instance does not embed into
        # is malformed (ValueError), whatever c says
        res = SmrResult(status, coeffs, rank, witness, wf.spec)
        return check_claim(sp, res) and (c is None or c == n - rank)

    if algo in ("tri_algo", "rational_sdit") or (algo, status) == ("po", "found"):
        # the other certificates are rebuilt, working field included
        if FieldSpec.from_json(cert["working_field"]) != sp.field.spec:
            raise ValueError("certificate working field does not match the instance")

    if algo == "tri_algo":
        f = sp.field
        out = sdit.TriOutcome(status)
        if status == "nonsingular":
            out.coefficients = _coefficients(f.scalar_from_json, cert)
        elif status == "witness":
            out.witness = _subspace_from_json(f, sp.ncols, cert["witness_basis"])
        return sdit.check_outcome(sp, out, _json_int(cert.get("c", 1)))

    if algo == "rational_sdit":
        f = sp.field  # a nonzero determinant over Z is full rank over Q
        space = MatSpace(f, sp.nrows, sp.ncols,
                         [Mat.from_ints(f, g) for g in integer_generators(sp)])
        coeffs = _coefficients(lambda v: f.from_int(_json_int(v)), cert)
        return sdit.check_outcome(space, sdit.TriOutcome("nonsingular", coeffs))

    if algo == "po":
        u = _subspace_from_json(sp.field, sp.ncols, cert["u_basis"])
        u_prime = _subspace_from_json(sp.field, sp.ncols, cert["uprime_basis"])
        if status == "found":
            coeffs = _coefficients(sp.field.scalar_from_json, cert)
            return _power_escapes(sp.element(coeffs), _json_int(cert["ell"]), u, u_prime)
        rebuilt = po_certificate(sp, u, u_prime)
    elif algo == "wong":
        rebuilt = wong_certificate(sp, cert["anchor"], cert["kind"])
    elif algo == "oracle":
        counts = (_json_int(cert["enumerated_elements"]), _json_int(cert["enumerated_subspaces"]))
        # the counts set the rebuild's budget, so they must be the instance's own;
        # over Q (no cardinality) the rebuild refuses to enumerate
        card = sp.field.cardinality()
        if card is not None and counts != (card ** sp.dim,
                                           oracles.count_subspaces(sp.ncols, card)):
            return False
        rebuilt = oracle_certificate(sp, max(oracles.DEFAULT_BUDGET, *counts))
    elif algo == "tri_test":
        rebuilt = tri_test_certificate(sp, cert["pivot"])
    else:
        raise ValueError(f"unknown certificate algorithm {algo!r}")
    # compared as JSON text, in which neither 1.0 nor true stands for 1
    return json.dumps(cert, sort_keys=True) == json.dumps(rebuilt, sort_keys=True)


def cmd_verify(args) -> int:
    sp = load_instance(args.instance)
    with open(args.cert) as fh:
        cert = json.load(fh)
    ok = verify_certificate(sp, cert)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="symrank",
        description="Symbolic matrix rank and determinant identity testing "
                    "via generalized Wong sequences")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, about, build):
        """A subcommand that writes build(instance, args) to -o (default stdout)."""
        p = sub.add_parser(name, help=about)
        p.add_argument("instance")
        p.add_argument("-o", "--output", default=None)
        p.set_defaults(fn=lambda a: _emit(build(load_instance(a.instance), a), a.output))
        return p

    command("smr", "constructive maximum-rank search", lambda sp, a: smr_certificate(sp))
    p = command("sdit-tri", "SDIT for triangularizable spaces",
                lambda sp, a: sdit_certificate(sp, a.mod_p))
    p.add_argument("--mod-p", action="store_true",
                   help="over Q, first try reductions modulo small primes; "
                        "tri_algo decides if they run out")
    p = command("tri-test", "triangularizability given a nonsingular pivot",
                lambda sp, a: tri_test_certificate(sp, a.pivot))
    p.add_argument("--pivot", type=int, required=True)
    p = command("wong", "dump a Wong sequence trace",
                lambda sp, a: wong_certificate(sp, a.anchor, a.kind))
    p.add_argument("--anchor", type=int, required=True)
    p.add_argument("--kind", choices=["first", "second"], required=True)
    p = command("po", "power overflow solver", lambda sp, a: po_certificate(
        sp, load_subspace(a.u, sp.field), load_subspace(a.uprime, sp.field)))
    p.add_argument("--u", required=True, help="subspace file for U")
    p.add_argument("--uprime", required=True, help="subspace file for U'")
    p = command("oracle", "brute-force rank and discrepancy",
                lambda sp, a: oracle_certificate(sp, a.budget))
    p.add_argument("--budget", type=int, default=oracles.DEFAULT_BUDGET)

    p = sub.add_parser("verify", help="re-check a certificate against its instance")
    p.add_argument("instance")
    p.add_argument("--cert", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gallery", help="write a constructed example instance")
    p.add_argument("name", help="sk3 | yz_lift | yz_lift_shifted | strict_upper_embed")
    p.add_argument("--field", default="gf5", help="for sk3: gf5, gf2^3, rational")
    p.add_argument("--base", default=None, help="instance file for the lifts")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_gallery)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SymrankError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: missing key {exc}" if isinstance(exc, KeyError) else f"error: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
