"""Fast tests of the benchmark itself: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from crossnorm import bounds, core, separability  # noqa: E402
from crossnorm.core import BipartiteShape, BipartiteVector  # noqa: E402
from crossnorm.gnorm import SeeSawConfig  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_runs_tiny(workload):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", "0", "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0, metric["name"]


def test_traced_run_reports_every_layer_metric():
    done = _run(ROOT, "--workload", "lab", "--seed", "3", "--seconds", "0",
                "--trace", "1", "--tiny")
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {k: v["unit"] for k, v in metrics.items()}
    assert metrics["cli.main.calls"]["value"] > 0
    assert metrics["gnorm.g_norm_seesaw.calls"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "bounds", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout


# ---------------------------------------------------------------------------
# determinism


def _outputs(workload, seed, workdir):
    cases = workloads.build(workload, seed, True, workdir)
    return [c.name for c in cases], [c.fingerprint(c.call()) for c in cases]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_repeats_and_another_changes_only_inputs(workload, tmp_path):
    names, first = _outputs(workload, 5, tmp_path)
    again_names, again = _outputs(workload, 5, tmp_path)
    assert (names, first) == (again_names, again)
    other_names, other = _outputs(workload, 6, tmp_path)
    assert other_names == names
    assert other != first


def test_seed_rotates_seeded_inputs_and_keeps_gallery_states():
    a = {n: op for n, _, op in workloads._bounds_inputs(np.random.default_rng(1), False)}
    b = {n: op for n, _, op in workloads._bounds_inputs(np.random.default_rng(2), False)}
    assert np.array_equal(a["max-entangled-2"].matrix, b["max-entangled-2"].matrix)
    ga, gb = a["ginibre-3x3"], b["ginibre-3x3"]
    assert not np.allclose(ga.matrix, gb.matrix)
    # a local frame keeps the spectrum and every cross norm
    assert np.allclose(np.linalg.eigvalsh(ga.matrix), np.linalg.eigvalsh(gb.matrix))
    assert bounds.lower_bound_realignment(ga) == pytest.approx(bounds.lower_bound_realignment(gb))


# ---------------------------------------------------------------------------
# the re-checks can fail


def _scaled_first_term(dec, factor):
    terms = list(dec.terms)
    w, x, y = terms[0]
    terms[0] = (w * factor, x, y)
    return type(dec)(terms, dec.shape)


def test_recheck_rejects_tampered_upper_certificate():
    op = core.random_density(BipartiteShape(2, 2), 7)
    nb = bounds.pi_bounds(op, SeeSawConfig(seed=1), include_robustness=False)
    assert not checks.bounds_row(op, nb)["problems"]
    nb.certificates["pi_upper"] = _scaled_first_term(nb.certificates["pi_upper"], 1.01)
    problems = checks.bounds_row(op, nb)["problems"]
    assert any("pi_upper certificate rejected" in p["message"] and p["severe"] for p in problems)


def test_recheck_rejects_perturbed_witness():
    op = separability.max_entangled(2)
    nb = bounds.pi_bounds(op, SeeSawConfig(seed=1), include_robustness=False)
    assert nb.methods["pi_lower"] == "witness"
    c = nb.certificates["pi_lower"]
    moved = c.entries + 0.05 * np.arange(c.entries.size)
    nb.certificates["pi_lower"] = BipartiteVector(c.shape, moved)
    problems = checks.bounds_row(op, nb)["problems"]
    assert any("witness certificate" in p["message"] and p["severe"] for p in problems)


def test_recheck_rejects_tampered_separable_mixture():
    op, _ = separability.random_separable(BipartiteShape(2, 2), 6, 11)
    cls = separability.classify(op, SeeSawConfig(seed=1))
    assert cls.verdict == "Separable"
    assert not checks.classify_row(op, cls)["problems"]
    cls.certificate = _scaled_first_term(cls.certificate, 1.01)
    assert checks.classify_row(op, cls)["problems"]


def test_recheck_flags_inverted_bracket_and_ppt_contradiction():
    row = checks.make_row()
    checks.check_bracket(row, 2.0000000000000013, 1.9999999999999991, "pi")
    assert row["problems"] and not row["problems"][0]["severe"]
    checks.check_bracket(row, 2.1, 2.0, "pi")
    assert row["problems"][-1]["severe"]
    row = checks.make_row(verdict="Separable")
    checks.check_ppt(row, separability.max_entangled(2))
    assert row["problems"]


def test_recheck_checks_paper_divergence_values():
    good = b"N,lemosd_bound,witness_bound,dense_pi_lower\n1,2.0,2.0,2.0\n"
    bad = b"N,lemosd_bound,witness_bound,dense_pi_lower\n1,2.0,2.5,2.0\n"
    assert not checks.divergence_rows(good)[0]["problems"]
    assert checks.divergence_rows(bad)[0]["problems"]


# ---------------------------------------------------------------------------
# tracing


def test_traced_self_times_add_up_to_wall(tmp_path):
    import run

    cases = workloads.build("lab", 2, True, tmp_path)
    tracer = tracing.Tracer()
    wall = run.traced_pass(cases, tracer)
    top = sum(tracer.top_level_durations())
    self_total = sum(ss for _, _, ss in tracer.stats.values())
    assert self_total == pytest.approx(top, rel=1e-9)
    assert top <= wall and top == pytest.approx(wall, rel=0.05)
    assert tracer.counts["numpy.eigh.calls"] > 0
    assert set(tracer.root) == {i for i in range(len(tracer.parent)) if tracer.parent[i] < 0}


def test_instrument_restores_the_library():
    before = (bounds.pi_bounds, separability.pi_bounds, np.linalg.eigh,
              core.BipartiteOperator.is_psd)
    with tracing.instrument(tracing.Tracer()):
        assert separability.pi_bounds is not before[1]
    assert (bounds.pi_bounds, separability.pi_bounds, np.linalg.eigh,
            core.BipartiteOperator.is_psd) == before
