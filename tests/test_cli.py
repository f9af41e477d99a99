"""End-to-end CLI checks: JSON round trips, exit codes, verification."""

import json

import pytest

from symrank import cli, oracles
from symrank.cli import build_parser, main

from conftest import GF2_FALLBACK


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def diag_instance(tmp_path):
    return write_json(tmp_path / "diag.json", {
        "field": {"kind": "prime", "p": 7}, "n": 3, "n_cols": 3,
        "basis": [[[1, 0, 0], [0, 0, 0], [0, 0, 0]],
                  [[0, 0, 0], [0, 1, 0], [0, 0, 0]]]})


@pytest.fixture
def upper_instance(tmp_path):
    return write_json(tmp_path / "upper2.json", {
        "field": {"kind": "rational"}, "n": 2, "n_cols": 2,
        "basis": [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]]})


def test_gallery_oracle_verify(tmp_path, capsys):
    inst = str(tmp_path / "sk3.json")
    cert = str(tmp_path / "sk3_oracle.json")
    assert main(["gallery", "sk3", "--field", "gf5", "-o", inst]) == 0
    assert main(["oracle", inst, "-o", cert]) == 0
    data = json.loads(open(cert).read())
    assert data["max_rank"] == 2 and data["disc"] == 0
    assert main(["verify", inst, "--cert", cert]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("p, modulus", [(2, [1, 1, 1]), (3, [1, 0, 1])], ids=["gf2", "gf3"])
def test_smr_sk3_small_field_certificate(tmp_path, capsys, p, modulus):
    # PO finds nothing over GF(p), so smr goes on over GF(p^2) and ends failed_po
    # there: the certificate is the one written when every small field was
    # extended before the first step
    inst, cert = str(tmp_path / "sk3.json"), str(tmp_path / "cert.json")
    assert main(["gallery", "sk3", "--field", f"gf{p}", "-o", inst]) == 0
    assert main(["smr", inst, "-o", cert]) == 2
    expected = {
        "algorithm": "smr", "coefficients": [[1, 0], [0, 0], [0, 0]], "rank": 2,
        "status": "failed_po", "trace_summary": {"iterations": 1, "ranks_visited": [2]},
        "working_field": {"k": 2, "kind": "extension", "modulus": modulus, "p": p}}
    assert open(cert).read() == json.dumps(expected, sort_keys=True, indent=2) + "\n"
    assert main(["verify", inst, "--cert", cert]) == 0
    assert "PASS" in capsys.readouterr().out


def test_oracle_certificate_above_default_budget_verifies(tmp_path, capsys):
    # 24 independent 5x5 matrices over GF(2), the last the identity: 2^24
    # tuples exceed the default budget, but the second one in lex order
    # already has full rank, so the search ends at once
    units = [[[int((i, j) == (r, c)) for c in range(5)] for r in range(5)]
             for i in range(5) for j in range(5) if (i, j) not in ((0, 0), (4, 4))]
    eye = [[int(r == c) for c in range(5)] for r in range(5)]
    inst = write_json(tmp_path / "big.json", {
        "field": {"kind": "prime", "p": 2}, "n": 5, "n_cols": 5,
        "basis": units + [eye]})
    cert = str(tmp_path / "big_oracle.json")
    assert main(["oracle", inst, "-o", cert]) == 1
    assert "exceed budget" in capsys.readouterr().err
    assert main(["oracle", inst, "--budget", "100000000", "-o", cert]) == 0
    assert json.loads(open(cert).read())["enumerated_elements"] == 2 ** 24
    assert main(["verify", inst, "--cert", cert]) == 0
    assert "PASS" in capsys.readouterr().out


def test_smr_cert_and_verify(tmp_path, capsys, diag_instance):
    cert = str(tmp_path / "smr.json")
    assert main(["smr", diag_instance, "-o", cert]) == 0
    data = json.loads(open(cert).read())
    assert data["rank"] == 2
    assert data["status"] == "max_rank_found"
    assert data["witness_basis"] == [[0, 0, 1]]
    assert main(["verify", diag_instance, "--cert", cert]) == 0
    assert "PASS" in capsys.readouterr().out


def test_sdit_mod_p(tmp_path, upper_instance):
    cert = str(tmp_path / "sdit.json")
    assert main(["sdit-tri", upper_instance, "--mod-p", "-o", cert]) == 0
    data = json.loads(open(cert).read())
    assert data["status"] == "nonsingular_combination"
    assert data["prime_used"] in (3, 5)
    assert main(["verify", upper_instance, "--cert", cert]) == 0


def test_sdit_mod_p_falls_back_to_tri_algo(tmp_path, capsys):
    # <E11, 2 E11 + E21> is singular, so every prime fails and tri_algo
    # decides over Q: the certificate is the one sdit-tri writes without --mod-p
    inst = write_json(tmp_path / "sing.json", {
        "field": {"kind": "rational"}, "n": 2, "n_cols": 2,
        "basis": [[["1", "0"], ["0", "0"]], [["2", "0"], ["1", "0"]]]})
    plain, mod_p = str(tmp_path / "plain.json"), str(tmp_path / "mod_p.json")
    assert main(["sdit-tri", inst, "-o", plain]) == 0
    assert main(["sdit-tri", inst, "--mod-p", "-o", mod_p]) == 0
    assert open(mod_p).read() == open(plain).read()
    data = json.loads(open(mod_p).read())
    assert (data["algorithm"], data["status"]) == ("tri_algo", "witness")
    assert main(["verify", inst, "--cert", mod_p]) == 0
    assert capsys.readouterr().out == "PASS\n"
    # sk3 is not triangularizable: outside the promise tri_algo fails
    sk3, cert = str(tmp_path / "sk3.json"), str(tmp_path / "sk3_cert.json")
    assert main(["gallery", "sk3", "--field", "rational", "-o", sk3]) == 0
    assert main(["sdit-tri", sk3, "--mod-p", "-o", cert]) == 2
    data = json.loads(open(cert).read())
    assert (data["algorithm"], data["status"]) == ("tri_algo", "fail")


def test_sdit_mod_p_dependent_generator(tmp_path, capsys):
    # the certificate's coefficients must refer to the basis verify loads,
    # which drops the dependent 2*E11
    inst = write_json(tmp_path / "dep.json", {
        "field": {"kind": "rational"}, "n": 2, "n_cols": 2,
        "basis": [[["1", "0"], ["0", "0"]], [["2", "0"], ["0", "0"]],
                  [["0", "0"], ["0", "1"]]]})
    cert = str(tmp_path / "dep_cert.json")
    assert main(["sdit-tri", inst, "--mod-p", "-o", cert]) == 0
    assert len(json.loads(open(cert).read())["coefficients"]) == 2
    assert main(["verify", inst, "--cert", cert]) == 0
    assert "PASS" in capsys.readouterr().out


def test_sdit_mod_p_clears_denominators(tmp_path, capsys):
    # diag(1/2, 0) and diag(0, 1/2) span a nonsingular matrix; truncating
    # the entries to integers would leave only zeros
    inst = write_json(tmp_path / "half.json", {
        "field": {"kind": "rational"}, "n": 2, "n_cols": 2,
        "basis": [[["1/2", "0"], ["0", "0"]], [["0", "0"], ["0", "1/2"]]]})
    cert = str(tmp_path / "half_cert.json")
    assert main(["sdit-tri", inst, "--mod-p", "-o", cert]) == 0
    assert json.loads(open(cert).read())["status"] == "nonsingular_combination"
    assert main(["verify", inst, "--cert", cert]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("field, basis, message", [
    ({"kind": "prime", "p": 5}, [[[1]]], "rationals"),
    ({"kind": "rational"}, [[["0"]]], "empty generator list"),
], ids=["prime-field", "only-zero-generators"])
def test_sdit_mod_p_input_checks(tmp_path, capsys, field, basis, message):
    inst = write_json(tmp_path / "inst.json", {
        "field": field, "n": 1, "n_cols": 1, "basis": basis})
    assert main(["sdit-tri", inst, "--mod-p"]) == 1
    assert message in capsys.readouterr().err


GF2_SQUARED = {"kind": "extension", "p": 2, "k": 2, "modulus": [1, 1, 1]}


@pytest.mark.parametrize("field, entry", [
    ({"kind": "rational"}, 0.5),           # used to become 0
    ({"kind": "prime", "p": 7}, 2.9),      # used to become 2
    ({"kind": "prime", "p": 7}, True),     # used to become 1
    ({"kind": "rational"}, True),
    ({"kind": "prime", "p": 7}, "3"),
    ({"kind": "rational"}, "1/0"),
    ({"kind": "rational"}, "0.5"),
    ({"kind": "rational"}, "two"),
    (GF2_SQUARED, [1, 0.5]),
    (GF2_SQUARED, [1, 0, 1]),
], ids=["q-float", "gfp-float", "gfp-bool", "q-bool", "gfp-string",
        "q-zero-denominator", "q-decimal-string", "q-word",
        "ext-float-coefficient", "ext-too-many-coefficients"])
def test_malformed_scalar_exit_code(tmp_path, capsys, field, entry):
    inst = write_json(tmp_path / "bad.json", {
        "field": field, "n": 1, "n_cols": 1, "basis": [[[1]], [[entry]]]})
    assert main(["smr", inst]) == 1
    assert "error:" in capsys.readouterr().err


def test_extension_row_mixes_integers_and_coefficient_lists(tmp_path):
    # a row with a list in it is parsed per scalar, and an integer there is the
    # constant coefficient: the mixed spelling gives the all-list certificate
    mixed = [[[1, [0, 1]], [0, 0]], [[0, 0], [[1, 1], 1]], [[0, 1], [1, 0]]]
    lists = [[[[c, 0] if isinstance(c, int) else c for c in row] for row in b] for b in mixed]
    certs = []
    for name, basis in (("mixed", mixed), ("lists", lists)):
        inst = write_json(tmp_path / f"{name}.json", {
            "field": GF2_SQUARED, "n": 2, "n_cols": 2, "basis": basis})
        certs.append(tmp_path / f"{name}_cert.json")
        assert main(["smr", inst, "-o", str(certs[-1])]) == 0
    assert certs[0].read_bytes() == certs[1].read_bytes()


def test_tri_test(tmp_path, capsys):
    inst = write_json(tmp_path / "tri.json", {
        "field": {"kind": "prime", "p": 5}, "n": 2, "n_cols": 2,
        "basis": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]})
    cert = str(tmp_path / "tri_cert.json")
    assert main(["tri-test", inst, "--pivot", "0", "-o", cert]) == 0
    assert json.loads(open(cert).read())["status"] == "triangularizable"
    assert main(["verify", inst, "--cert", cert]) == 0


def test_wong_and_po(tmp_path, diag_instance):
    wcert = str(tmp_path / "wong.json")
    assert main(["wong", diag_instance, "--anchor", "0",
                 "--kind", "first", "-o", wcert]) == 0
    assert main(["verify", diag_instance, "--cert", wcert]) == 0

    u = write_json(tmp_path / "u.json",
                   {"ambient_dim": 3, "basis": [[0, 0, 1]]})
    up = write_json(tmp_path / "up.json",
                    {"ambient_dim": 3, "basis": [[0, 0, 1]]})
    pcert = str(tmp_path / "po.json")
    # diag generators fix <e3> pointwise into itself, so no escape: exit 2
    assert main(["po", diag_instance, "--u", u, "--uprime", up,
                 "-o", pcert]) == 2
    assert json.loads(open(pcert).read())["status"] == "no"


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["smr", str(bad)]) == 1
    assert main(["smr", str(tmp_path / "missing.json")]) == 1
    shaped = write_json(tmp_path / "shape.json", {
        "field": {"kind": "prime", "p": 5}, "n": 2, "n_cols": 2,
        "basis": [[[1, 0, 0], [0, 0, 0]]]})
    assert main(["smr", shaped]) == 1
    # wrong JSON types where an object, an array or an integer belongs
    for key, value in (("basis", 5), ("basis", [5]), ("field", "gf7"), ("n", 1.5),
                       ("field", {"kind": "extension", "p": 2, "k": -1, "modulus": []})):
        data = {"field": {"kind": "prime", "p": 5}, "n": 1, "n_cols": 1,
                "basis": [[[1]]], key: value}
        assert main(["smr", write_json(tmp_path / "typed.json", data)]) == 1
    assert main(["smr", write_json(tmp_path / "list.json", [1])]) == 1
    assert capsys.readouterr().err.count("error:") == 9


GF101 = {"kind": "prime", "p": 101}
GOOD_2X3 = [[1, 2, 3], [4, 5, 6]]


@pytest.mark.parametrize("field, matrix, message", [
    (GF101, [[1, 2, 3], 7], "a basis matrix must be an array in JSON, got 7"),
    (GF101, [[1, 2, 3], [4, 5]], "ragged rows"),
    (GF101, [[1, 2, 3]], "basis matrix has wrong shape"),
    (GF101, [[1, 2], [3, 4]], "basis matrix has wrong shape"),
    (GF101, [[1, True, 3], [4, 5, 6]], "expected an integer scalar, got True"),
    ({"kind": "rational"}, [[1, 2, 3], [4, 2.5, 6]], "expected an integer scalar, got 2.5"),
], ids=["row-not-an-array", "ragged-row", "too-few-rows", "short-rows", "gfp-bool-among-ints",
        "q-float-among-ints"])
def test_malformed_basis_matrix(tmp_path, capsys, field, matrix, message):
    # the bad matrix second, after a well-formed one; one error line, nothing else
    inst = write_json(tmp_path / "bad.json", {
        "field": field, "n": 2, "n_cols": 3, "basis": [GOOD_2X3, matrix]})
    assert main(["smr", inst]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_rejects_tampered_cert(tmp_path, capsys, diag_instance):
    cert = str(tmp_path / "smr.json")
    main(["smr", diag_instance, "-o", cert])
    data = json.loads(open(cert).read())
    data["rank"] = 3
    open(cert, "w").write(json.dumps(data))
    assert main(["verify", diag_instance, "--cert", cert]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_verify_rejects_c_not_tied_to_rank(tmp_path, capsys):
    # diag(e11, e22) has maximum rank 2; an empty witness with c = 0
    # proves nothing, so a claim of rank 1 must not pass
    inst = write_json(tmp_path / "diag2.json", {
        "field": {"kind": "prime", "p": 7}, "n": 2, "n_cols": 2,
        "basis": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]})
    cert = write_json(tmp_path / "weak.json", {
        "algorithm": "smr", "status": "max_rank_found",
        "coefficients": [1, 0], "rank": 1, "c": 0, "witness_basis": [],
        "working_field": {"kind": "prime", "p": 7}})
    assert main(["verify", inst, "--cert", cert]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_verify_rejects_foreign_working_field(tmp_path, capsys, diag_instance):
    cert = str(tmp_path / "smr.json")
    main(["smr", diag_instance, "-o", cert])
    data = json.loads(open(cert).read())
    data["working_field"] = {"kind": "prime", "p": 3}
    open(cert, "w").write(json.dumps(data))
    assert main(["verify", diag_instance, "--cert", cert]) == 1
    assert "working field" in capsys.readouterr().err
    # malformed, exit 1, also when c is wrong
    open(cert, "w").write(json.dumps({**data, "c": 5}))
    assert main(["verify", diag_instance, "--cert", cert]) == 1
    assert "working field" in capsys.readouterr().err


@pytest.mark.parametrize("argv, instance, message", [
    (["gallery", "yz_lift"], None, "gallery yz_lift needs --base"),
    (["gallery", "yz_lift_shifted"], None, "gallery yz_lift_shifted needs --base"),
    (["gallery", "strict_upper_embed"], None, "gallery strict_upper_embed needs --base"),
    (["gallery", "nonsense"], None, "unknown gallery name 'nonsense'"),
    (["gallery", "sk3", "--field", "reals"], None, "unknown field name 'reals'"),
    (["gallery", "sk3", "--field", "gf2^0"], None, "extension degree must be at least 1, got 0"),
    (["gallery", "sk3", "--field", "gf1^2"], None, "1 is not prime"),
    (["oracle"], {"field": {"kind": "prime", "p": 3317044064679887385961981}, "n": 1,
                  "basis": [[[1]]]},
     "cannot decide whether 3317044064679887385961981 is prime: the test is exact only "
     "below 3317044064679887385961981"),
    (["oracle"], {"field": {"kind": "prime", "p": 5}, "n": -1, "basis": []},
     "negative matrix size -1 x -1"),
    (["oracle"], {"field": {"kind": "prime", "p": 5}, "n": 2, "n_cols": -1, "basis": []},
     "negative matrix size 2 x -1"),
    (["oracle"], {"field": {"kind": "real"}, "n": 1, "basis": [[[1]]]},
     "unknown field kind 'real'"),
    (["oracle"], {"field": {"kind": "prime", "p": 5}, "n": 1}, "missing key 'basis'"),
    (["oracle"], {"field": {"kind": "prime"}, "n": 1, "basis": [[[1]]]}, "missing key 'p'"),
], ids=["yz-lift-without-base", "yz-lift-shifted-without-base",
        "strict-upper-embed-without-base", "unknown-gallery-name", "unknown-field-name",
        "degree-zero-extension", "non-prime-extension-base", "prime-test-bound", "negative-n",
        "negative-n-cols", "unknown-field-kind", "missing-basis", "missing-field-p"])
def test_input_errors_exit_1(tmp_path, capsys, argv, instance, message):
    if instance is not None:
        argv = argv + [write_json(tmp_path / "inst.json", instance)]
    assert main(argv + ["-o", str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_certificate_missing_key_exit_1(tmp_path, capsys, diag_instance):
    cert = str(tmp_path / "smr.json")
    main(["smr", diag_instance, "-o", cert])
    data = json.loads(open(cert).read())
    del data["rank"]
    open(cert, "w").write(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", diag_instance, "--cert", cert]) == 1
    assert capsys.readouterr() == ("", "error: missing key 'rank'\n")


def test_instance_round_trip_identical(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    main(["gallery", "sk3", "--field", "gf5", "-o", a])
    main(["gallery", "sk3", "--field", "gf5", "-o", b])
    assert open(a, "rb").read() == open(b, "rb").read()


@pytest.mark.parametrize("name", ["yz_lift", "yz_lift_shifted", "strict_upper_embed"])
def test_gallery_lift(tmp_path, name):
    base = str(tmp_path / "sk3.json")
    out = str(tmp_path / "emb.json")
    main(["gallery", "sk3", "--field", "gf2", "-o", base])
    assert main(["gallery", name, "--base", base, "-o", out]) == 0
    data = json.loads(open(out).read())
    assert data["n"] == 6


# ---------------------------------------------------------------------------
# tampered certificates: each emitted certificate, one field changed
# ---------------------------------------------------------------------------

TAMPER_INSTANCES = {
    "diag": ({"kind": "prime", "p": 7}, [[[1, 0, 0], [0, 0, 0], [0, 0, 0]],
                                         [[0, 0, 0], [0, 1, 0], [0, 0, 0]]]),
    "upper": ({"kind": "prime", "p": 5}, [[[0, 1], [0, 0]], [[1, 0], [0, 1]]]),
    "top_row": ({"kind": "prime", "p": 7}, [[[1, 0], [0, 0]], [[0, 1], [0, 0]]]),
    "half": ({"kind": "rational"}, [[["1/2", "0"], ["0", "0"]],
                                    [["0", "0"], ["0", "1/2"]]]),
    "q_singular": ({"kind": "rational"}, [[["1", "0"], ["0", "0"]],
                                          [["2", "0"], ["1", "0"]]]),
    "shift": ({"kind": "prime", "p": 7}, [[[0, 1], [0, 0]]]),
    "gf2_diag": ({"kind": "prime", "p": 2}, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]),
    "gf2_fallback": ({"kind": "prime", "p": 2}, GF2_FALLBACK),
    "sk3": ({"kind": "prime", "p": 5}, [[[0, 1, 0], [4, 0, 0], [0, 0, 0]],
                                        [[0, 0, 0], [0, 0, 1], [0, 4, 0]],
                                        [[0, 0, 1], [0, 0, 0], [4, 0, 0]]]),
}

# command -> (instance, argv before and after the instance path); E1 and E2
# stand for subspace files holding the span of the first or second unit vector
E1, E2 = "E1", "E2"
TAMPER_COMMANDS = {
    "smr": ("diag", ["smr"], []),
    "smr-gf2": ("gf2_diag", ["smr"], []),        # certified over GF(2) itself
    "smr-extended": ("gf2_fallback", ["smr"], []),   # out of lambdas: working field GF(8)
    "smr-failed-po": ("sk3", ["smr"], []),       # no rank witness: exit 2
    "sdit-tri-nonsingular": ("upper", ["sdit-tri"], []),
    "sdit-tri-witness": ("top_row", ["sdit-tri"], []),
    "sdit-tri-mod-p": ("half", ["sdit-tri"], ["--mod-p"]),
    "sdit-tri-mod-p-spent": ("q_singular", ["sdit-tri"], ["--mod-p"]),  # tri_algo witness
    "po": ("shift", ["po"], ["--u", E2, "--uprime", E2]),
    "po-no": ("shift", ["po"], ["--u", E1, "--uprime", E1]),   # D e1 = 0: exit 2
    "po-no-escape": ("shift", ["po"], ["--u", E1, "--uprime", E2]),   # U escapes at ell = 0
    "wong": ("diag", ["wong"], ["--anchor", "1", "--kind", "second"]),
    "tri-test": ("upper", ["tri-test"], ["--pivot", "1"]),
    "oracle": ("sk3", ["oracle"], []),
}
EMIT_CODES = {"smr-failed-po": 2, "po-no": 2, "po-no-escape": 2}


def _set(**fields):
    return lambda cert: cert.update(fields)


def _bump(key):
    return lambda cert: cert.update({key: cert[key] + 1})


def _drop_coefficient(cert):
    cert["coefficients"].pop()


def _append_coefficient(cert):
    cert["coefficients"].append(0)


def _relabel_no(cert):
    """A found answer passed off as no, with its combination removed."""
    cert["status"] = "no"
    del cert["coefficients"], cert["ell"]


def _whole(value):
    """Replace the whole certificate by value."""
    return lambda cert: value


def _tamper(command, mutate, code, name):
    return pytest.param(command, mutate, code, id=f"{command}-{name}")


TAMPER_CASES = [
    *(_tamper(cmd, _set(status="bogus"), 1, "status") for cmd in (
        "smr", "sdit-tri-nonsingular", "sdit-tri-witness", "sdit-tri-mod-p", "po")),
    _tamper("smr", _set(rank=2.0), 1, "float-rank"),
    _tamper("smr", _set(c=True), 1, "bool-c"),
    _tamper("sdit-tri-witness", _set(c=True), 1, "bool-c"),
    _tamper("po", _set(ell=True), 1, "bool-ell"),
    _tamper("po", _set(ell=1.0), 1, "float-ell"),
    _tamper("po", _set(ell=-1, u_basis=[[1, 0]]), 1, "negative-ell"),
    # X^0(U) = U, which is outside U' = <e2>: the exponent is at least 1
    _tamper("po", _set(ell=0, u_basis=[[1, 0]]), 1, "zero-ell"),
    # verify applies the combination ell times: an ell past n is refused, not run
    _tamper("po", _set(ell=3), 1, "ell-past-n"),
    _tamper("sdit-tri-mod-p", _set(coefficients=[1.7, 1.2]), 1, "float-coefficients"),
    _tamper("sdit-tri-mod-p", _set(coefficients=[True, True]), 1, "bool-coefficients"),
    _tamper("sdit-tri-mod-p", _set(coefficients=[1, 1, 5, 7]), 1, "extra-coefficients"),
    _tamper("wong", _set(kind="bogus"), 1, "kind"),
    _tamper("wong", _set(anchor=-1), 1, "negative-anchor"),
    _tamper("wong", _set(anchor=5), 1, "anchor-past-end"),
    _tamper("tri-test", _set(pivot=-1), 1, "negative-pivot"),
    _tamper("tri-test", _set(pivot=7), 1, "pivot-past-end"),
    # wrong JSON types: error and exit 1, not a traceback
    *(_tamper(cmd, _set(coefficients=5), 1, "number-coefficients") for cmd in (
        "smr", "sdit-tri-nonsingular", "sdit-tri-mod-p")),
    _tamper("smr", _set(working_field="gf7"), 1, "string-working-field"),
    _tamper("smr", _set(witness_basis=5), 1, "number-witness"),
    _tamper("smr", _set(algorithm=["smr"]), 1, "list-algorithm"),
    _tamper("po", _whole(["po"]), 1, "list-certificate"),
    # the status must match the working field: max_rank_found claims a
    # maximizer over the instance's own field, which a GF(8) one is not
    _tamper("smr-extended", _set(status="max_rank_found"), 2, "constructive-status"),
    *(_tamper(cmd, _set(status="non_constructive_rank"), 2, "non-constructive-status")
      for cmd in ("smr", "smr-gf2")),
    # controls: verify rejected these before its fields were strict (the
    # dropped rational coefficient with a FAIL, exit 2, then)
    _tamper("smr", _bump("rank"), 2, "rank-plus-one"),
    _tamper("smr", _bump("c"), 2, "c-plus-one"),
    _tamper("smr", _drop_coefficient, 1, "dropped-coefficient"),
    _tamper("sdit-tri-mod-p", _drop_coefficient, 1, "dropped-coefficient"),
    # a singular combination: diag(1, 0) after scaling, and the nilpotent generator
    _tamper("sdit-tri-mod-p", _set(coefficients=[1, 0]), 2, "singular-combination"),
    _tamper("sdit-tri-nonsingular", _set(coefficients=[1, 0]), 2, "singular-combination"),
    # a failed_po certificate claims a lower bound: the combination has rank `rank`
    _tamper("smr-failed-po", _bump("rank"), 2, "rank-plus-one"),
    _tamper("smr-failed-po", _set(rank=1), 2, "rank-minus-one"),
    _tamper("smr-failed-po", _drop_coefficient, 1, "dropped-coefficient"),
    _tamper("smr-failed-po", _append_coefficient, 1, "appended-coefficient"),
    # a deterministic command's certificate must be the one the command
    # writes: a PO no is re-solved, the others rebuilt in full
    _tamper("po", _set(status="no"), 2, "relabelled-no"),
    _tamper("po", _relabel_no, 2, "relabelled-no-without-answer"),
    _tamper("oracle", _set(argmax_coefficients=[0, 0, 0]), 2, "argmax-coefficients"),
    _tamper("oracle", _bump("enumerated_elements"), 2, "enumerated-elements"),
    *(_tamper(cmd, _set(working_field={"kind": "prime", "p": 11}), 2, "working-field")
      for cmd in ("wong", "tri-test")),
    _tamper("oracle", _bump("max_rank"), 2, "max-rank-plus-one"),   # control
    # a checked claim holds over the instance's own field only
    *(_tamper(cmd, _set(working_field={"kind": "prime", "p": 11}), 1, "foreign-working-field")
      for cmd in ("sdit-tri-nonsingular", "sdit-tri-witness", "sdit-tri-mod-p", "po")),
    _tamper("sdit-tri-nonsingular", _set(working_field="junk"), 1, "string-working-field"),
    _tamper("po", _set(working_field={"kind": "rational"}), 1, "rational-working-field"),
]


def _options(tmp_path, tail):
    """tail with E1 and E2 replaced by paths of subspace files."""
    units = {E1: write_json(tmp_path / "e1.json", {"ambient_dim": 2, "basis": [[1, 0]]}),
             E2: write_json(tmp_path / "e2.json", {"ambient_dim": 2, "basis": [[0, 1]]})}
    return [units.get(a, a) for a in tail]


def _emit(tmp_path, command):
    """Run one certificate-producing command; (instance path, cert path)."""
    name, head, tail = TAMPER_COMMANDS[command]
    field, basis = TAMPER_INSTANCES[name]
    n = len(basis[0])
    inst = write_json(tmp_path / "inst.json", {
        "field": field, "n": n, "n_cols": n, "basis": basis})
    cert = str(tmp_path / "cert.json")
    argv = head + [inst] + _options(tmp_path, tail) + ["-o", cert]
    assert main(argv) == EMIT_CODES.get(command, 0)
    return inst, cert


@pytest.mark.parametrize("command", sorted(TAMPER_COMMANDS))
def test_emitted_certificates_pass(tmp_path, capsys, command):
    inst, cert = _emit(tmp_path, command)
    assert main(["verify", inst, "--cert", cert]) == 0
    assert "PASS" in capsys.readouterr().out


# subcommand -> its certificate builder, given the instance and the options after it
BUILDERS = {
    "smr": lambda sp, opts: cli.smr_certificate(sp),
    "sdit-tri": lambda sp, opts: cli.sdit_certificate(sp, "--mod-p" in opts),
    "tri-test": lambda sp, opts: cli.tri_test_certificate(sp, int(opts[1])),
    "wong": lambda sp, opts: cli.wong_certificate(sp, int(opts[1]), opts[3]),
    "po": lambda sp, opts: cli.po_certificate(
        sp, cli.load_subspace(opts[1], sp.field), cli.load_subspace(opts[3], sp.field)),
    "oracle": lambda sp, opts: cli.oracle_certificate(sp),
}


@pytest.mark.parametrize("command", sorted(TAMPER_COMMANDS))
def test_command_writes_its_builders_certificate(tmp_path, command):
    inst, cert = _emit(tmp_path, command)
    _, (sub,), tail = TAMPER_COMMANDS[command]
    built = BUILDERS[sub](cli.load_instance(inst), _options(tmp_path, tail))
    assert open(cert).read() == json.dumps(built, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("command, mutate, code", TAMPER_CASES)
def test_verify_rejects_tampered_field(tmp_path, capsys, command, mutate, code):
    inst, cert = _emit(tmp_path, command)
    data = json.loads(open(cert).read())
    replaced = mutate(data)
    write_json(tmp_path / "cert.json", data if replaced is None else replaced)
    assert main(["verify", inst, "--cert", cert]) == code
    assert "PASS" not in capsys.readouterr().out


def test_verify_refuses_found_at_ell_zero(tmp_path, capsys):
    # D = <E12>, U = <e1>, U' = <e2>: D(U) = 0, so every power with ell >= 1 stays in
    # U' and the answer is no. Only X^0(U) = U leaves U', and a found at ell 0 is refused
    inst, cert = _emit(tmp_path, "po-no-escape")
    assert main(["verify", inst, "--cert", cert]) == 0
    assert capsys.readouterr().out == "PASS\n"
    data = json.loads(open(cert).read())
    assert data["status"] == "no"
    data.update(status="found", ell=0, coefficients=[1])
    write_json(tmp_path / "cert.json", data)
    assert main(["verify", inst, "--cert", cert]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: exponent ell 0 is outside 1..2\n"


@pytest.mark.parametrize("key", ["enumerated_elements", "enumerated_subspaces"])
def test_verify_checks_oracle_counts_before_enumerating(tmp_path, capsys, monkeypatch, key):
    # the counts set the rebuild's budget, so a false one must fail before
    # anything is enumerated
    inst, cert = _emit(tmp_path, "oracle")
    data = json.loads(open(cert).read())
    data[key] = 10 ** 12
    write_json(tmp_path / "cert.json", data)

    def refuse(*args):
        raise AssertionError("verify enumerated before checking the counts")

    monkeypatch.setattr(oracles, "brute_max_rank", refuse)
    assert main(["verify", inst, "--cert", cert]) == 2
    assert capsys.readouterr().out.strip() == "FAIL"
    # over Q there is nothing to count: the rebuild refuses, exit 1
    monkeypatch.undo()
    field, basis = TAMPER_INSTANCES["half"]
    rational = write_json(tmp_path / "half.json", {
        "field": field, "n": 2, "n_cols": 2, "basis": basis})
    assert main(["verify", rational, "--cert", cert]) == 1


Q = {"kind": "rational"}
NON_SQUARE = {
    "2x3": {"field": Q, "n": 2, "n_cols": 3,
            "basis": [[[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 0]]]},
    "3x2": {"field": Q, "n": 3, "n_cols": 2,
            "basis": [[[1, 0], [0, 1], [0, 0]], [[0, 1], [0, 0], [0, 0]]]},
}


@pytest.mark.parametrize("shape, cert", [
    # B_0 has rank 2 = nrows, but no 2 x 3 matrix is nonsingular
    ("2x3", {"algorithm": "tri_algo", "status": "nonsingular", "working_field": Q,
             "coefficients": ["1/1", "0/1"]}),
    # F^3 maps into F^2, so it would witness singularity of any 2 x 3 space
    ("2x3", {"algorithm": "tri_algo", "status": "witness", "working_field": Q, "c": 1,
             "witness_basis": [["1/1", "0/1", "0/1"], ["0/1", "1/1", "0/1"],
                               ["0/1", "0/1", "1/1"]]}),
    # the leading 2 x 2 block of B_0 is I
    ("2x3", {"algorithm": "rational_sdit", "status": "nonsingular_combination",
             "working_field": Q, "prime_used": 5, "coefficients": [1, 0]}),
    ("3x2", {"algorithm": "rational_sdit", "status": "nonsingular_combination",
             "working_field": Q, "prime_used": 5, "coefficients": [1, 0]}),
], ids=["tri-nonsingular", "tri-witness", "modp-nonsingular", "modp-nonsingular-3x2"])
def test_verify_refuses_sdit_on_non_square(tmp_path, capsys, shape, cert):
    # sdit-tri refuses these instances, so verify must not accept a claim on them
    inst = write_json(tmp_path / "inst.json", NON_SQUARE[shape])
    assert main(["sdit-tri", inst, "-o", str(tmp_path / "out.json")]) == 1
    assert main(["verify", inst, "--cert", write_json(tmp_path / "cert.json", cert)]) == 1
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert err.count("error: SDIT is defined for square spaces") == 2


@pytest.mark.parametrize("argv, cert, message", [
    ([], {"algorithm": "tri_algo", "status": "fail"}, "empty generator list"),
    (["--mod-p"], {"algorithm": "rational_sdit", "status": "nonsingular_combination",
                   "prime_used": 2, "coefficients": []}, "empty generator list"),
], ids=["tri-algo-fail", "mod-p-nonsingular-combination"])
def test_verify_refuses_sdit_claims_without_generators(tmp_path, capsys, argv, cert, message):
    # an all-zero basis spans 0: sdit-tri refuses it, so verify refuses every
    # claim on it, also one of no answer
    inst = write_json(tmp_path / "zero.json", {
        "field": Q, "n": 1, "n_cols": 1, "basis": [[["0"]]]})
    cert = write_json(tmp_path / "cert.json", {**cert, "working_field": Q})
    assert main(["sdit-tri", inst, *argv]) == 1
    assert main(["verify", inst, "--cert", cert]) == 1
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert err.count(f"error: {message}") == 2


@pytest.mark.parametrize("instance", [
    {"field": Q, "n": 2, "n_cols": 2, "basis": TAMPER_INSTANCES["q_singular"][1]},
    NON_SQUARE["2x3"],
    {"field": Q, "n": 1, "n_cols": 1, "basis": [[["0"]]]},
], ids=["square", "non-square", "no-generators"])
def test_verify_refuses_rational_sdit_inconclusive(tmp_path, capsys, instance):
    # a spent prime loop hands over to tri_algo, so no certificate says inconclusive
    inst = write_json(tmp_path / "inst.json", instance)
    cert = write_json(tmp_path / "cert.json", {
        "algorithm": "rational_sdit", "status": "inconclusive", "working_field": Q})
    assert main(["verify", inst, "--cert", cert]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: rational_sdit certificate has unknown status 'inconclusive'\n"


def test_verify_refuses_unknown_algorithm(tmp_path, capsys):
    inst = write_json(tmp_path / "inst.json", {
        "field": Q, "n": 1, "n_cols": 1, "basis": [[["1"]]]})
    cert = write_json(tmp_path / "cert.json", {"algorithm": "nonsense"})
    assert main(["verify", inst, "--cert", cert]) == 1
    assert capsys.readouterr() == ("", "error: unknown certificate algorithm 'nonsense'\n")


@pytest.mark.parametrize("argv", [
    ["wong", "--anchor", "5", "--kind", "first"],
    ["wong", "--anchor", "-1", "--kind", "first"],
    ["tri-test", "--pivot", "7"],
    ["tri-test", "--pivot", "-1"],
], ids=["anchor-past-end", "negative-anchor", "pivot-past-end", "negative-pivot"])
def test_generator_index_out_of_range(tmp_path, capsys, argv):
    field, basis = TAMPER_INSTANCES["upper"]
    inst = write_json(tmp_path / "inst.json", {
        "field": field, "n": 2, "n_cols": 2, "basis": basis})
    assert main(argv[:1] + [inst] + argv[1:]) == 1
    assert "generator index" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["wong", "--anchor", "0", "--kind", "first"],
    ["tri-test", "--pivot", "0"],
], ids=["wong", "tri-test"])
def test_generator_of_an_empty_instance(tmp_path, capsys, argv):
    # an all-zero basis spans 0: there is no index to be out of range of
    inst = write_json(tmp_path / "zero.json", {
        "field": {"kind": "prime", "p": 5}, "n": 2, "n_cols": 2,
        "basis": [[[0, 0], [0, 0]]]})
    assert main(argv[:1] + [inst] + argv[1:]) == 1
    assert "error: the instance has no generators" in capsys.readouterr().err


def test_parser_keeps_no_state_between_calls(tmp_path, upper_instance):
    # one parser serves every call: a flag of one call must not reach the next
    cert = str(tmp_path / "sdit.json")
    assert main(["sdit-tri", upper_instance, "--mod-p", "-o", cert]) == 0
    assert json.loads(open(cert).read())["algorithm"] == "rational_sdit"
    assert main(["sdit-tri", upper_instance, "-o", cert]) == 0
    assert json.loads(open(cert).read())["algorithm"] == "tri_algo"
    assert build_parser() is build_parser()


def test_parser_usage_error_then_valid_call(tmp_path, capsys, upper_instance):
    fresh, again = tmp_path / "fresh.json", tmp_path / "again.json"
    build_parser.cache_clear()
    assert main(["tri-test", upper_instance, "--pivot", "0", "-o", str(fresh)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["tri-test", upper_instance])
    assert exc.value.code == 2
    assert "--pivot" in capsys.readouterr().err
    assert main(["tri-test", upper_instance, "--pivot", "0", "-o", str(again)]) == 0
    assert again.read_bytes() == fresh.read_bytes()


def test_smr_over_mersenne_prime(tmp_path, capsys):
    # GF(2^61 - 1): deciding the modulus prime must not take O(sqrt(p)) steps
    inst = write_json(tmp_path / "m61.json", {
        "field": {"kind": "prime", "p": 2 ** 61 - 1}, "n": 2, "n_cols": 2,
        "basis": [[[0, 0], [1, 0]], [[1, 0], [0, 0]], [[0, 0], [0, 1]]]})
    cert = str(tmp_path / "m61_cert.json")
    assert main(["smr", inst, "-o", cert]) == 0
    assert json.loads(open(cert).read())["rank"] == 2
    assert main(["verify", inst, "--cert", cert]) == 0
    assert capsys.readouterr().out.strip() == "PASS"


# Six rank-one generators over Q, each with one nonzero column (its index, then its
# entries top to bottom): crown units scaled by 1/2, -3/4 and 5/3, times a left
# factor whose last row is 1/2, -3/4 and 5/3 times its first three, so every member
# is singular. smr needs PO once and certifies rank 3 with a witness.
Q_COLUMNS = [(0, ["1/4", "1/2", "0", "-1/4"]), (0, ["-3/4", "0", "0", "-3/8"]),
             (1, ["5/6", "5/3", "0", "-5/6"]), (2, ["0", "0", "-5/4", "-25/12"]),
             (2, ["0", "-5/4", "5/3", "535/144"]), (3, ["0", "0", "5/6", "25/18"])]
Q_FRACTIONS = {"field": {"kind": "rational"}, "n": 4, "n_cols": 4,
               "basis": [[[col[i] if j == c else "0" for j in range(4)] for i in range(4)]
                         for c, col in Q_COLUMNS]}
# the upper triangular instance over Z of the sdit-tri CI step
TRI_Z = {"field": {"kind": "rational"}, "n": 3, "n_cols": 3,
         "basis": [[[1, 2, 0], [0, 0, 3], [0, 0, 1]], [[0, 1, 1], [0, 2, 0], [0, 0, 0]],
                   [[0, 0, 5], [0, 0, 1], [0, 0, 2]]]}
Q = {"kind": "rational"}
Q_CERTIFICATES = [
    (Q_FRACTIONS, ["smr"], {
        "algorithm": "smr", "c": 1, "coefficients": ["0/1", "1/1", "1/1", "1/1", "0/1", "0/1"],
        "rank": 3, "status": "max_rank_found",
        "trace_summary": {"iterations": 2, "ranks_visited": [2, 3]},
        "witness_basis": [[f"{int(i == j)}/1" for j in range(4)] for i in range(4)],
        "working_field": Q}),
    (TRI_Z, ["sdit-tri", "--mod-p"], {
        "algorithm": "rational_sdit", "coefficients": [1, 1, 0], "prime_used": 5,
        "status": "nonsingular_combination",
        "trace_summary": {"bound_used": "1296000", "primes_tried": [5]}, "working_field": Q}),
    (TRI_Z, ["sdit-tri"], {
        "algorithm": "tri_algo", "coefficients": ["1/1", "1/1", "0/1"], "status": "nonsingular",
        "trace_summary": {"generators": 3}, "working_field": Q}),
]


@pytest.mark.parametrize("instance, command, expected", Q_CERTIFICATES,
                         ids=["smr-fractions", "sdit-tri-mod-p", "sdit-tri"])
def test_rational_certificate_bytes(tmp_path, capsys, instance, command, expected):
    # Q scalars are ints while integral; certificates still write every one as "n/d"
    inst, cert = write_json(tmp_path / "q.json", instance), str(tmp_path / "cert.json")
    assert main([command[0], inst, *command[1:], "-o", cert]) == 0
    assert open(cert).read() == json.dumps(expected, sort_keys=True, indent=2) + "\n"
    # with no -o the same text goes to stdout
    assert main([command[0], inst, *command[1:]]) == 0
    assert capsys.readouterr().out == open(cert).read()
    assert main(["verify", inst, "--cert", cert]) == 0
    assert capsys.readouterr().out == "PASS\n"
