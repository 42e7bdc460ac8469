"""Block families, divergence bounds, blockwise-vs-dense agreement."""

import numpy as np
import pytest

from crossnorm import (
    BipartiteOperator,
    BipartiteShape,
    BipartiteVector,
    BlockFamily,
    PAPER_PRESET,
    SeeSawConfig,
    blockwise_witness_value,
    divergence_sweep,
    divergent_lower_bound,
    lower_bound_witness,
    mixing_lower_bound,
    max_entangled_vector,
    paper_preset,
    pi_bounds,
    pure_pi_norm,
    truncated_l2_not_l1,
    upper_bound_spectral,
    witness_value,
)

CFG = SeeSawConfig(seed=501, restarts=4, max_iters=60)


def test_paper_preset_block_layout():
    fam = paper_preset(3)
    assert fam.levels == ((0.5, 4), (0.25, 16), (0.125, 64))
    # 1-based start indices (2^(2l) - 1)/3: 1, 5, 21
    offs = fam.offsets(3)
    assert [o + 1 for o in offs] == [1, 5, 21]
    assert fam.shape(2) == BipartiteShape(16, 20)
    assert fam.shape(2).total == 320
    assert fam.shape(3) == BipartiteShape(64, 84)


def test_lemosd_bounds_match_closed_form():
    expected = {1: 2.0, 2: 3.0, 3: 14.0 / 3.0}
    for n, want in expected.items():
        b = divergent_lower_bound(PAPER_PRESET, n)
        assert abs(b.lemosd_bound - (2 ** (n + 1) - 2) / n) <= 1e-12
        assert abs(b.lemosd_bound - want) <= 1e-12


def test_witness_bounds_double():
    for n, want in {1: 2.0, 2: 4.0, 3: 8.0}.items():
        b = divergent_lower_bound(PAPER_PRESET, n)
        assert b.witness_bound == pytest.approx(want, abs=1e-12)
        assert b.certificate_value == pytest.approx(want, abs=1e-12)


def test_bounds_strictly_increasing():
    lem = [divergent_lower_bound(PAPER_PRESET, n).lemosd_bound for n in (1, 2, 3)]
    assert lem[0] < lem[1] < lem[2]
    val = [divergent_lower_bound(PAPER_PRESET, n).value for n in (1, 2, 3)]
    assert val[0] < val[1] < val[2]


def test_blockwise_equals_dense_within_cutoff():
    for n in (1, 2):
        b = divergent_lower_bound(PAPER_PRESET, n)
        op = PAPER_PRESET.dense_operator(n)
        dense_val = witness_value(op, b.certificate)
        assert abs(dense_val - b.certificate_value) <= 1e-9
        # per-block pure norms match the block dimensions
        for l in range(1, n + 1):
            v = PAPER_PRESET.block_vector(l, n)
            assert pure_pi_norm(v) == pytest.approx(PAPER_PRESET.levels[l - 1][1], abs=1e-9)


def test_dense_cross_validation_at_n2():
    op = PAPER_PRESET.dense_operator(2)
    b = divergent_lower_bound(PAPER_PRESET, 2)
    # the blockwise bounds stay below any validated upper bound
    up, dec = upper_bound_spectral(op)
    assert b.value <= up + 1e-9
    nb = pi_bounds(op, CFG, include_robustness=False)
    assert nb.pi_lower >= b.witness_bound - 1e-9


def test_single_level_is_a_bell_block():
    fam = BlockFamily(((1.0, 2),))
    b = divergent_lower_bound(fam, 1)
    assert b.lemosd_bound == pytest.approx(2.0, abs=1e-12)
    assert b.witness_bound == pytest.approx(2.0, abs=1e-12)


def test_dense_refused_above_cutoff():
    with pytest.raises(ValueError):
        PAPER_PRESET.dense_operator(3)  # 5376 > 512


def test_family_validation():
    with pytest.raises(ValueError):
        BlockFamily(())
    with pytest.raises(ValueError):
        BlockFamily(((0.0, 2),))
    with pytest.raises(ValueError):
        BlockFamily(((0.9, 2), (0.2, 4)))  # weights exceed 1
    with pytest.raises(ValueError):
        divergent_lower_bound(PAPER_PRESET, 4)


def test_blockwise_witness_shape_guard():
    b = divergent_lower_bound(PAPER_PRESET, 2)
    with pytest.raises(ValueError):
        blockwise_witness_value(PAPER_PRESET, 1, b.certificate)


def test_blockwise_witness_value_rejects_a_zero_certificate():
    shape = PAPER_PRESET.shape(2)
    with pytest.raises(ValueError, match="zero vector"):
        blockwise_witness_value(PAPER_PRESET, 2, BipartiteVector(shape, np.zeros(shape.total)))


# ---------------------------------------------------------------------------
# square-summable but not summable truncations


def test_l2_not_l1_closed_form():
    v, bound = truncated_l2_not_l1(4)
    a = np.array([1.0 / l for l in range(1, 5)])
    a /= np.linalg.norm(a)
    assert bound == pytest.approx(float(a.sum() ** 2), abs=1e-12)
    assert pure_pi_norm(v) == pytest.approx(bound, abs=1e-9)
    wv, _ = lower_bound_witness(v.projector(), CFG)
    assert wv == pytest.approx(bound, abs=1e-7)


def test_l2_not_l1_base_case_and_monotonicity():
    _, b1 = truncated_l2_not_l1(1)
    assert b1 == pytest.approx(1.0, abs=1e-12)
    bounds = [truncated_l2_not_l1(n)[1] for n in range(1, 10)]
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))
    assert bounds[-1] > 4.8  # keeps growing


def test_l2_not_l1_custom_rule():
    v, bound = truncated_l2_not_l1(3, rule=lambda l: 1.0)
    assert bound == pytest.approx(3.0, abs=1e-12)  # flat law: maximally entangled
    with pytest.raises(ValueError):
        truncated_l2_not_l1(0)


# ---------------------------------------------------------------------------
# mixing bounds


def test_mixing_reduces_to_pure_at_p1():
    v = max_entangled_vector(2)
    assert mixing_lower_bound(1.0, v, None, 2) == pytest.approx(2.0, abs=1e-9)


def test_mixing_bell_with_maximally_mixed():
    v = max_entangled_vector(2)
    eye4 = BipartiteOperator(BipartiteShape(2, 2), np.eye(4, dtype=complex) / 4)
    for p in (0.25, 0.5, 1.0):
        got = mixing_lower_bound(p, v, eye4, 2)
        assert got == pytest.approx(1.5 * p + 0.5 if p < 1 else 2.0, abs=1e-9)
    # string spec for the background gives the same number
    assert mixing_lower_bound(0.5, v, "maximally_mixed", 2) == pytest.approx(1.25, abs=1e-9)


def test_mixing_blockwise_matches_dense_small_n():
    v, _ = truncated_l2_not_l1(8)
    eye = BipartiteOperator(v.shape, np.eye(v.shape.total, dtype=complex) / v.shape.total)
    got = mixing_lower_bound(0.5, v, "maximally_mixed", 8)
    dense = mixing_lower_bound(0.5, v, eye, 8)
    assert got == pytest.approx(dense, abs=1e-9)
    # certified to dominate the pure term
    a = np.array([1.0 / l for l in range(1, 9)])
    a /= np.linalg.norm(a)
    assert got >= 0.5 * float(a.sum() ** 2) - 1e-12


def test_mixing_validates_p():
    v = max_entangled_vector(2)
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            mixing_lower_bound(bad, v, None, 2)
    with pytest.raises(ValueError):
        mixing_lower_bound(0.5, v, None, 3)  # N beyond the Schmidt rank


# ---------------------------------------------------------------------------
# sweep rows


def test_divergence_sweep_runs_no_upper_provider(monkeypatch):
    from crossnorm import bounds

    rows = divergence_sweep(paper_preset(1), (1,))

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep reads only pi_lower")

    monkeypatch.setattr(bounds, "_spectral_schmidt", refuse)
    monkeypatch.setattr(bounds, "upper_bound_realignment", refuse)
    monkeypatch.setattr(bounds, "_realignment_upper", refuse)
    assert divergence_sweep(paper_preset(1), (1,)) == rows


def test_divergence_sweep_rows():
    rows = divergence_sweep(PAPER_PRESET, (1, 2, 3))
    assert [r["N"] for r in rows] == [1, 2, 3]
    assert rows[0]["dense_pi_lower"] != ""
    assert rows[1]["dense_pi_lower"] != ""
    assert rows[2]["dense_pi_lower"] == ""  # above the dense cutoff
    assert rows[1]["lemosd_bound"] == pytest.approx(3.0, abs=1e-12)
    assert rows[1]["witness_bound"] == pytest.approx(4.0, abs=1e-12)
    assert rows[1]["dense_pi_lower"] >= 4.0 - 1e-9
    # D_1 = |Omega_4><Omega_4| / 2 has trace 1/2, so k = -1: the bound is scaled back to 2
    assert rows[0]["dense_pi_lower"] == pytest.approx(2.0, rel=1e-12)
    assert rows[0]["dense_pi_lower"] <= 2.0
