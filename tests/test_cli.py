"""End-to-end CLI checks: JSON round trips, exit codes, verification."""

import json

import pytest

from symrank.cli import main


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


def test_sdit_mod_p_inconclusive_exit_code(tmp_path):
    inst = write_json(tmp_path / "sing.json", {
        "field": {"kind": "rational"}, "n": 2, "n_cols": 2,
        "basis": [[["1", "0"], ["0", "0"]], [["2", "0"], ["1", "0"]]]})
    assert main(["sdit-tri", inst, "--mod-p",
                 "-o", str(tmp_path / "out.json")]) == 2


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
    capsys.readouterr()


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


def test_instance_round_trip_identical(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    main(["gallery", "sk3", "--field", "gf5", "-o", a])
    main(["gallery", "sk3", "--field", "gf5", "-o", b])
    assert open(a, "rb").read() == open(b, "rb").read()


def test_gallery_lift(tmp_path):
    base = str(tmp_path / "sk3.json")
    out = str(tmp_path / "emb.json")
    main(["gallery", "sk3", "--field", "gf2", "-o", base])
    assert main(["gallery", "strict_upper_embed", "--base", base,
                 "-o", out]) == 0
    data = json.loads(open(out).read())
    assert data["n"] == 6
