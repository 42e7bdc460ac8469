"""Command-line interface: round trips, determinism, exit codes, sweeps."""

import csv
import json

import numpy as np
import pytest

from crossnorm import SeeSawConfig, from_state_dict, max_entangled, pi_bounds, to_state_dict
from crossnorm.cli import main


def run(args):
    return main([str(a) for a in args])


def test_gallery_roundtrip_matches_in_memory(tmp_path):
    state_file = tmp_path / "bell.json"
    assert run(["gallery", "max-entangled", "--d", 2, "--out", state_file]) == 0
    loaded = from_state_dict(json.loads(state_file.read_text()))
    assert np.allclose(loaded.matrix, max_entangled(2).matrix, atol=1e-15)

    report_file = tmp_path / "rep.json"
    assert run(["bounds", state_file, "--seed", 11, "--no-timestamp",
                "--json-out", report_file]) == 0
    rep = json.loads(report_file.read_text())
    cfg = SeeSawConfig(seed=11)
    nb = pi_bounds(max_entangled(2), cfg)
    assert rep["schema"] == "crossnorm/1"
    assert abs(rep["results"]["pi_lower"] - nb.pi_lower) <= 1e-12
    assert abs(rep["results"]["pi_upper"] - nb.pi_upper) <= 1e-12
    assert abs(rep["results"]["h_upper"] - nb.h_upper) <= 1e-12


def test_reports_byte_identical_for_same_seed(tmp_path):
    state_file = tmp_path / "bell.json"
    run(["gallery", "max-entangled", "--d", 2, "--out", state_file])
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert run(["classify", state_file, "--seed", 5, "--no-timestamp",
                    "--json-out", out]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_the_parser_built_once_keeps_no_state_between_calls(tmp_path, capsys):
    """main parses every call with one parser: a failing invocation after a
    good one still exits 1, and identical invocations write identical bytes
    whatever ran between them."""
    from crossnorm.cli import _parser, build_parser

    assert _parser() is _parser() and build_parser() is not _parser()
    state_file = tmp_path / "bell.json"
    assert run(["gallery", "max-entangled", "--d", 2, "--out", state_file]) == 0
    out1, out2, out3 = (tmp_path / f"r{i}.json" for i in (1, 2, 3))
    assert run(["bounds", state_file, "--seed", 3, "--no-timestamp", "--json-out", out1]) == 0
    assert run(["bounds", state_file, "--seed", "three"]) == 1  # rejected by the parser
    assert run(["bounds", tmp_path / "missing.json", "--seed", 3]) == 1
    assert run(["bounds", state_file, "--no-robustness", "--seed", 4, "--restarts", 2,
                "--no-timestamp", "--json-out", out3]) == 0
    assert run(["bounds", state_file, "--seed", 3, "--no-timestamp", "--json-out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "error" in capsys.readouterr().err


def test_timestamped_report_carries_wall_time(tmp_path):
    state_file = tmp_path / "bell.json"
    run(["gallery", "max-entangled", "--d", 2, "--out", state_file])
    out = tmp_path / "r.json"
    assert run(["gnorm", state_file, "--seed", 2, "--json-out", out]) == 0
    rep = json.loads(out.read_text())
    assert "timestamp" in rep and "wall_time_s" in rep
    out2 = tmp_path / "r2.json"
    assert run(["gnorm", state_file, "--seed", 2, "--no-timestamp", "--json-out", out2]) == 0
    rep2 = json.loads(out2.read_text())
    assert "timestamp" not in rep2 and "wall_time_s" not in rep2


def test_malformed_json_exit_code_and_message(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"shape": {\n  "dh": oops\n}}')
    assert run(["bounds", bad, "--seed", 1]) == 1
    err = capsys.readouterr().err
    assert "bad.json:2" in err  # line-numbered


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_state_is_invalid_input(tmp_path, capsys, bad):
    state = to_state_dict(max_entangled(2))
    state["data"][5][1] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(state))
    assert run(["bounds", path, "--seed", 1]) == 1
    assert "NaN or infinite" in capsys.readouterr().err


def test_linalg_failure_is_internal_error(tmp_path, monkeypatch, capsys):
    import crossnorm.cli

    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    state_file = tmp_path / "bell.json"
    run(["gallery", "max-entangled", "--d", 2, "--out", state_file])
    monkeypatch.setattr(crossnorm.cli, "pi_bounds", diverge)
    assert run(["bounds", state_file, "--seed", 1]) == 2
    assert "internal error: LinAlgError" in capsys.readouterr().err


def test_shape_mismatch_exit_code(tmp_path):
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({
        "shape": {"dh": 2, "dj": 2},
        "kind": "operator",
        "data": [[1.0, 0.0]] * 15,
    }))
    assert run(["bounds", wrong, "--seed", 1]) == 1


def test_missing_seed_is_invalid(tmp_path):
    state_file = tmp_path / "bell.json"
    run(["gallery", "max-entangled", "--d", 2, "--out", state_file])
    assert run(["bounds", state_file]) == 1
    assert run(["gallery", "random-separable", "--dh", 2, "--dj", 2,
                "--out", tmp_path / "x.json"]) == 1


def test_classify_rejects_a_density_that_is_not_hermitian_at_eps_herm(tmp_path):
    from crossnorm import BipartiteOperator, BipartiteShape, random_density

    op = random_density(BipartiteShape(2, 3), 100)
    m = op.matrix.copy()
    m[0, 1] += 5e-10 * np.abs(m).max()  # op.is_density() still holds
    path = tmp_path / "near.json"
    path.write_text(json.dumps(to_state_dict(BipartiteOperator(op.shape, m))))
    assert run(["classify", path, "--seed", 1, "--no-timestamp"]) == 1


def test_gnorm_report_structure(tmp_path):
    state_file = tmp_path / "bell.json"
    run(["gallery", "max-entangled", "--d", 2, "--out", state_file])
    out = tmp_path / "g.json"
    assert run(["gnorm", state_file, "--seed", 3, "--no-timestamp", "--json-out", out]) == 0
    rep = json.loads(out.read_text())
    g = rep["results"]["g_norm"]
    assert set(g) == {"lower", "upper", "converged"}
    assert g["lower"] == pytest.approx(0.5, abs=1e-8)  # Bell density: a_1^2
    assert g["upper"] == pytest.approx(1.0, abs=1e-10)  # projector operator norm


def test_witness_command_writes_file(tmp_path):
    state_file = tmp_path / "pure.json"
    run(["gallery", "pure-schmidt", "--coeffs",
         f"{np.sqrt(0.8)},{np.sqrt(0.2)}", "--out", state_file])
    out = tmp_path / "w.json"
    wfile = tmp_path / "witness.json"
    assert run(["witness", state_file, 2, "--seed", 4, "--no-timestamp",
                "--json-out", out, "--witness-out", wfile]) == 0
    rep = json.loads(out.read_text())
    assert rep["results"]["expectation_on_input"] == pytest.approx(1.8, abs=1e-9)
    assert rep["results"]["g_norm_certified_upper"] == 1.0
    wit = from_state_dict(json.loads(wfile.read_text()))
    assert wit.is_hermitian()


def test_witness_command_on_operators(tmp_path, capsys):
    from crossnorm import pure_with_schmidt
    from crossnorm.separability import isotropic

    pure = tmp_path / "pure_op.json"
    pure.write_text(json.dumps(to_state_dict(pure_with_schmidt([0.8, 0.6]).projector())))
    wfile = tmp_path / "witness.json"
    assert run(["witness", pure, 2, "--seed", 4, "--no-timestamp", "--witness-out", wfile]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["input"]["kind"] == "vector"  # a pure operator is read as its vector
    assert rep["results"]["expectation_on_input"] == pytest.approx(1.96, abs=1e-9)
    assert from_state_dict(json.loads(wfile.read_text())).is_hermitian()

    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(to_state_dict(isotropic(0.5, 2))))
    assert run(["witness", mixed, 2, "--seed", 4]) == 1
    assert "needs a vector state or a pure operator" in capsys.readouterr().err


def test_sweep_isotropic_csv(tmp_path):
    out = tmp_path / "iso.csv"
    assert run(["sweep", "isotropic", "--d", 2, "--p", "0:1:0.25",
                "--seed", 6, "--csv-out", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["p"]) for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    for r in rows:
        p = float(r["p"])
        assert float(r["witness_lower"]) == pytest.approx(1.5 * p + 0.5, abs=1e-6)
        assert float(r["ppt_min_eigenvalue"]) == pytest.approx((1 - 3 * p) / 4, abs=1e-9)
        if p > 1 / 3 + 1e-6:
            assert r["verdict"] == "Entangled"
        else:
            assert r["verdict"] != "Entangled"
        if r["verdict"] == "Separable":  # its weight-one mixture certifies the upper bound
            assert float(r["pi_upper"]) <= 1.0 + 1e-12


def test_sweep_witness_lower_never_above_pi_lower(tmp_path):
    out = tmp_path / "iso.csv"
    assert run(["sweep", "isotropic", "--d", 2, "--p", "0:1:0.5", "--seed", 1,
                "--no-timestamp", "--csv-out", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for r in rows:  # both are certified lower bounds, rounded down alike
        assert float(r["witness_lower"]) <= float(r["pi_lower"])


def test_sweep_divergence_csv(tmp_path):
    out = tmp_path / "div.csv"
    assert run(["sweep", "divergence", "--levels", 3, "--seed", 6, "--csv-out", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["N"]) for r in rows] == [1, 2, 3]
    assert float(rows[1]["lemosd_bound"]) == pytest.approx(3.0, abs=1e-9)
    assert float(rows[2]["lemosd_bound"]) == pytest.approx(14 / 3, abs=1e-9)
    assert float(rows[2]["witness_bound"]) == pytest.approx(8.0, abs=1e-9)
    assert rows[2]["dense_pi_lower"] == ""
    seedless = tmp_path / "seedless.csv"  # the sweep runs no search and needs no seed
    assert run(["sweep", "divergence", "--levels", 3, "--csv-out", seedless]) == 0
    assert seedless.read_bytes() == out.read_bytes()


def test_sweep_missing_args_is_input_error(tmp_path):
    assert run(["sweep", "isotropic", "--seed", 1]) == 1  # missing --csv-out/--d
    assert run(["sweep", "isotropic", "--d", 2, "--p", "0:1:0.5",
                "--csv-out", tmp_path / "iso.csv"]) == 1  # missing --seed


def test_bounds_non_hermitian_input_reports_indirect(tmp_path):
    from crossnorm import BipartiteOperator, BipartiteShape, to_state_dict

    rng = np.random.default_rng(77)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = tmp_path / "nh.json"
    path.write_text(json.dumps(to_state_dict(BipartiteOperator(BipartiteShape(2, 2), m))))
    out = tmp_path / "r.json"
    assert run(["bounds", path, "--seed", 8, "--no-timestamp", "--json-out", out]) == 0
    rep = json.loads(out.read_text())  # strict JSON: no NaN tokens
    assert rep["results"]["indirect"] is True
    assert rep["results"]["h_lower"] is None
    assert rep["results"]["pi_lower"] <= rep["results"]["pi_upper"] + 1e-8


def test_classify_stdout(tmp_path, capsys):
    state_file = tmp_path / "bell.json"
    run(["gallery", "max-entangled", "--d", 2, "--out", state_file])
    assert run(["classify", state_file, "--seed", 9, "--no-timestamp"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["verdict"] == "Entangled"
    assert rep["results"]["detection_value"] == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("coeffs", [[0.8, 0.6], [0.8, 0.5, np.sqrt(0.11)],
                                    [0.6, 0.5, 0.5, np.sqrt(0.14)]])
def test_witness_g_bracket_is_not_inverted(tmp_path, coeffs):
    state_file = tmp_path / "pure.json"
    run(["gallery", "pure-schmidt", "--coeffs", ",".join(map(str, coeffs)), "--out", state_file])
    for n in range(1, len(coeffs) + 1):
        out = tmp_path / f"w{n}.json"
        assert run(["witness", state_file, n, "--seed", 1, "--no-timestamp",
                    "--json-out", out]) == 0
        res = json.loads(out.read_text())["results"]
        assert res["g_norm_seesaw_lower"] <= res["g_norm_certified_upper"]


@pytest.mark.parametrize("scale", [1e-310, 1.5e308])
def test_bounds_and_gnorm_run_at_the_edges_of_the_float_range(tmp_path, scale):
    state_file = tmp_path / "bell.json"
    bell = max_entangled(2)
    state_file.write_text(json.dumps(to_state_dict(type(bell)(bell.shape, bell.matrix * scale))))
    for cmd, key in (("bounds", "pi"), ("gnorm", "g_norm")):
        out = tmp_path / f"{cmd}.json"
        assert run([cmd, state_file, "--seed", 1, "--no-timestamp", "--json-out", out]) == 0
        res = json.loads(out.read_text())["results"]
        lower, upper = ((res["pi_lower"], res["pi_upper"]) if cmd == "bounds"
                        else (res[key]["lower"], res[key]["upper"]))
        assert 0.0 < lower <= upper
