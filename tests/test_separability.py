"""ECNC classification, witnesses, PPT oracle, state gallery."""

import numpy as np
import pytest

from crossnorm import (
    BipartiteOperator,
    BipartiteShape,
    SeeSawConfig,
    SignedDecomposition,
    Witness,
    build_witness_EN,
    classify,
    isotropic,
    kron,
    max_entangled,
    max_entangled_vector,
    operator_norm,
    partial_transpose,
    ppt_oracle,
    product_state,
    pure_pi_norm,
    pure_with_schmidt,
    random_density,
    random_pure,
    random_separable,
    validate_decomposition,
    witness_check,
)

CFG = SeeSawConfig(seed=401, restarts=6, max_iters=60)


# ---------------------------------------------------------------------------
# classify


def test_classify_bell_entangled():
    cls = classify(max_entangled(2), CFG)
    assert cls.verdict == "Entangled"
    assert isinstance(cls.certificate, Witness)
    assert cls.detection_value == pytest.approx(2.0, abs=1e-9)
    rep = witness_check(cls.certificate, max_entangled(2))
    assert rep.w1 and rep.detects


def test_classify_product_mixture_separable():
    op, _ = random_separable(BipartiteShape(2, 2), 5, seed=83)
    cls = classify(op, CFG)
    assert cls.verdict == "Separable"
    assert isinstance(cls.certificate, SignedDecomposition)
    rep = validate_decomposition(op, cls.certificate)
    assert rep.valid and rep.positive
    assert cls.certificate.weight == pytest.approx(1.0, abs=1e-6)


def test_classify_names_the_two_qubit_closed_forms():
    """A 2x2 Separable verdict names Wootters' construction; a 2x2 Undecided
    one above realignment one states the exact rank-one maximum."""
    op, _ = random_separable(BipartiteShape(2, 2), 5, seed=83)
    cls = classify(op, CFG)
    assert cls.message == "weight-one product mixture by Wootters' construction, exact at 2x2"
    assert len(cls.certificate.terms) <= 4
    cls = classify(random_density(BipartiteShape(2, 2), 7), CFG)  # realignment 1.028
    assert cls.verdict == "Undecided"
    assert cls.message.startswith("realignment bound 1.0282096424")
    assert "best rank-one witness is 0.96703294" in cls.message
    assert cls.message.endswith("<= 1 + 1e-06, exact at 2x2")


def test_classify_isotropic_below_threshold_never_entangled():
    op = isotropic(0.3, 2)
    assert ppt_oracle(op).min_eigenvalue == pytest.approx((1 - 0.9) / 4, abs=1e-12)
    cls = classify(op, CFG)
    assert cls.verdict in ("Separable", "Undecided")


def test_classify_isotropic_qutrit_boundary_state_separable():
    """isotropic(1/4, 3) is separable, on the boundary of the separable set;
    the mixture search ran out of rounds on it before the polish."""
    op = isotropic(0.25, 3)
    cls = classify(op, SeeSawConfig(seed=1))
    assert cls.verdict == "Separable"
    rep = validate_decomposition(op, cls.certificate)
    assert rep.valid and rep.positive
    assert cls.certificate.weight == pytest.approx(1.0, abs=1e-6)


def test_classify_requires_density():
    with pytest.raises(ValueError):
        classify(BipartiteOperator(BipartiteShape(2, 2), np.eye(4, dtype=complex)), CFG)


@pytest.mark.parametrize("dh,dj", [(2, 2), (2, 3)])
def test_classify_skips_the_product_search_on_an_npt_state(monkeypatch, dh, dj):
    from crossnorm import bounds

    fits = []
    monkeypatch.setattr(bounds, "separable_fit", lambda *a, **k: fits.append(a))
    op = random_density(BipartiteShape(dh, dj), 0)  # no witness or realignment detects it
    cls = classify(op, CFG)
    assert cls.verdict == "Undecided"
    assert cls.message == "partial transpose is not PSD, so no product mixture exists"
    assert fits == []


def test_classify_runs_the_witness_search_only_without_a_mixture(monkeypatch):
    """The see-saw above 2x2 and the exact kernel at 2x2 each run once on an
    entangled state, and neither on a separable one."""
    from crossnorm import bounds

    calls, exact = [], []
    seesaw, qubit = bounds._witness_seesaw, bounds._qubit_witness
    monkeypatch.setattr(bounds, "_witness_seesaw",
                        lambda *a, **k: calls.append(a) or seesaw(*a, **k))
    monkeypatch.setattr(bounds, "_qubit_witness", lambda *a: exact.append(a) or qubit(*a))
    for d in (3, 2):
        op, _ = random_separable(BipartiteShape(d, d), 4, seed=11)
        assert classify(op, CFG).verdict == "Separable"
        assert calls == exact == []
    assert classify(max_entangled(3), CFG).verdict == "Entangled"
    assert (len(calls), len(exact)) == (1, 0)
    calls.clear()
    assert classify(max_entangled(2), CFG).verdict == "Entangled"
    assert (len(calls), len(exact)) == (0, 1)


def test_classify_2x2_consistency_smoke():
    # soundness on a small batch; the acceptance suite runs 500
    for i in range(40):
        op = random_density(BipartiteShape(2, 2), seed=900 + i)
        cls = classify(op, CFG)
        ppt = ppt_oracle(op)
        if cls.verdict == "Entangled":
            assert not ppt.is_ppt
        if cls.verdict == "Separable":
            assert ppt.is_ppt


# ---------------------------------------------------------------------------
# witnesses


def test_witness_check_flat_sum_on_bell():
    wit = build_witness_EN(max_entangled_vector(2), 2)
    rep = witness_check(wit, max_entangled(2))
    assert rep.g_norm_certified_upper == pytest.approx(1.0, abs=1e-12)
    assert rep.operator_norm == pytest.approx(2.0, abs=1e-10)
    assert rep.expectation == pytest.approx(2.0, abs=1e-10)
    assert rep.w1 and rep.w2


def test_witness_check_reads_the_exact_injective_norm_of_a_hermitian_rank_one_operator():
    """A raw operator 2|c><c|: ||.||_G = 2 a_1(c)^2, read off its one eigenvector."""
    c = random_pure(BipartiteShape(2, 3), seed=5)
    op = BipartiteOperator(c.shape, 2 * np.outer(c.entries, c.entries.conj()))
    rep = witness_check(op)
    a1 = np.linalg.svd(c.as_matrix(), compute_uv=False)[0]
    assert rep.g_norm_exact == pytest.approx(2 * a1**2, rel=1e-12)
    assert rep.g_norm_certified_upper == rep.g_norm_exact < rep.operator_norm


def test_witness_check_identity_is_not_a_witness():
    eye = BipartiteOperator(BipartiteShape(2, 2), np.eye(4, dtype=complex))
    rng = np.random.default_rng(5)
    from crossnorm import random_density as rd

    rep = witness_check(eye, rd(BipartiteShape(2, 2), rng))
    assert rep.expectation == pytest.approx(1.0, abs=1e-10)
    assert not rep.w1 and not rep.w2


def test_witness_check_reads_no_rank_one_form_off_a_non_hermitian_operator():
    # the Hermitian part of |c><c| + i I is the rank-one |c><c|, but the
    # operator's injective norm is |1 + i|
    c = np.kron([1.0, 0.0], [1.0, 0.0])
    op = BipartiteOperator(BipartiteShape(2, 2), np.outer(c, c) + 1j * np.eye(4))
    rep = witness_check(op, None, CFG)
    assert rep.g_norm_exact is None
    assert rep.g_norm_certified_upper == pytest.approx(np.sqrt(2), rel=1e-12)
    assert rep.g_norm_seesaw_lower <= rep.g_norm_certified_upper
    assert rep.g_norm_seesaw_lower == pytest.approx(np.sqrt(2), rel=1e-10)


def test_witness_en_bell_matrix_pattern():
    wit = build_witness_EN(max_entangled_vector(2), 2)
    mat = wit.operator.matrix
    expected = np.zeros((4, 4))
    for a in (0, 3):  # composite indices of e1 f1 and e2 f2
        for b in (0, 3):
            expected[a, b] = 1.0
    assert np.allclose(mat, expected, atol=1e-9)


def test_witness_en_n1_leading_product():
    v = pure_with_schmidt([np.sqrt(0.8), np.sqrt(0.2)])
    wit = build_witness_EN(v, 1)
    assert wit.expectation(v.projector()) == pytest.approx(0.8, abs=1e-10)
    wit2 = build_witness_EN(v, 2)
    assert wit2.expectation(v.projector()) == pytest.approx(1.8, abs=1e-10)


def test_witness_en_out_of_range():
    with pytest.raises(ValueError):
        build_witness_EN(max_entangled_vector(2), 3)
    with pytest.raises(ValueError):
        build_witness_EN(max_entangled_vector(2), 0)


def test_witness_scaling_full_rank():
    rng = np.random.default_rng(89)
    for _ in range(15):
        v = random_pure(BipartiteShape(3, 4), rng)
        from crossnorm import schmidt_decompose

        s = schmidt_decompose(v).rank
        wit = build_witness_EN(v, s)
        assert wit.expectation(v.projector()) == pytest.approx(pure_pi_norm(v), abs=1e-9)


def test_detecting_witness_has_large_operator_norm():
    rng = np.random.default_rng(97)
    for _ in range(10):
        v = random_pure(BipartiteShape(3, 3), rng)
        from crossnorm import schmidt_decompose

        s = schmidt_decompose(v).rank
        wit = build_witness_EN(v, s)
        if wit.expectation(v.projector()) > 1.0 + 1e-9:
            assert operator_norm(wit.operator.matrix) > 1.0 + 1e-9


# ---------------------------------------------------------------------------
# PPT oracle


def test_ppt_product_state():
    rng = np.random.default_rng(101)
    rho = random_density(BipartiteShape(2, 1), rng).matrix
    sig = random_density(BipartiteShape(2, 1), rng).matrix
    res = ppt_oracle(kron(rho, sig))
    assert res.min_eigenvalue >= -1e-10
    assert res.is_ppt and res.verdict == "separable"


def test_ppt_bell():
    res = ppt_oracle(max_entangled(2))
    assert res.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)
    assert not res.is_ppt and res.verdict == "entangled"


def test_ppt_isotropic_closed_form():
    for p in (0.0, 0.2, 1 / 3, 0.5, 1.0):
        res = ppt_oracle(isotropic(p, 2))
        assert res.min_eigenvalue == pytest.approx((1 - 3 * p) / 4, abs=1e-9)


def test_ppt_decisive_shapes():
    assert ppt_oracle(isotropic(0.1, 2)).decisive
    op = random_density(BipartiteShape(2, 3), seed=3)
    assert ppt_oracle(op).decisive
    op = random_density(BipartiteShape(3, 3), seed=3)
    res = ppt_oracle(op)
    assert not res.decisive
    assert res.verdict in ("entangled", "inconclusive")


def test_ppt_oracle_reads_the_analysis_spectrum(monkeypatch, tmp_path):
    """One owner of the partial-transpose spectrum: the oracle and the npt flag
    read one eigvalsh of one analysis, and the isotropic sweep takes one per
    grid point (it took a second for its ppt_min_eigenvalue column)."""
    from crossnorm import bounds
    from crossnorm.cli import main
    from crossnorm.separability import _ppt

    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: calls.append(1) or eigvalsh(*a))
    an = bounds._Analysis(random_density(BipartiteShape(2, 3), 3))
    res = _ppt(an)
    assert an.npt == (not res.is_ppt) and len(calls) == 1
    for d in (2, 3):
        calls.clear()
        assert main(["sweep", "isotropic", "--d", str(d), "--p", "0:1:0.5", "--seed", "1",
                     "--csv-out", str(tmp_path / "iso.csv")]) == 0
        assert len(calls) == 3


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-6, 1.0, 1e6, 1e12])
def test_ppt_verdict_does_not_move_with_scale(scale):
    for op in (random_density(BipartiteShape(2, 2), 5), random_density(BipartiteShape(2, 3), 3),
               isotropic(1 / 3, 2), isotropic(0.2, 2), max_entangled(2)):
        res = ppt_oracle(BipartiteOperator(op.shape, op.matrix * scale))
        ref = ppt_oracle(op)
        assert (res.is_ppt, res.verdict) == (ref.is_ppt, ref.verdict)
        assert res.min_eigenvalue / scale == pytest.approx(ref.min_eigenvalue, rel=1e-9, abs=1e-15)


def test_partial_transpose_conventions_share_spectrum():
    op = random_density(BipartiteShape(2, 3), seed=7)
    wj = np.linalg.eigvalsh(partial_transpose(op, "j"))
    wh = np.linalg.eigvalsh(partial_transpose(op, "h"))
    assert np.allclose(wj, wh, atol=1e-12)


# ---------------------------------------------------------------------------
# gallery


def test_gallery_max_entangled_is_bell():
    mat = max_entangled(2).matrix
    expected = np.zeros((4, 4))
    for a in (0, 3):
        for b in (0, 3):
            expected[a, b] = 0.5
    assert np.allclose(mat, expected, atol=1e-12)


def test_gallery_pure_with_schmidt_diagonal():
    v = pure_with_schmidt([np.sqrt(0.8), np.sqrt(0.2)])
    m = v.as_matrix()
    assert m[0, 0] == pytest.approx(np.sqrt(0.8))
    assert m[1, 1] == pytest.approx(np.sqrt(0.2))
    assert abs(m[0, 1]) == 0.0 and abs(m[1, 0]) == 0.0


def test_gallery_pure_with_schmidt_validation():
    with pytest.raises(ValueError):
        pure_with_schmidt([0.5, 0.5])  # not l2-normalized
    with pytest.raises(ValueError):
        pure_with_schmidt([1.0, -0.0001])


def test_gallery_random_separable_self_certifies():
    op, cert = random_separable(BipartiteShape(2, 2), 5, seed=11)
    rep = validate_decomposition(op, cert)
    assert rep.valid and rep.positive and rep.optimal
    assert op.is_density()


def test_gallery_random_separable_deterministic():
    a, _ = random_separable(BipartiteShape(2, 2), 3, seed=21)
    b, _ = random_separable(BipartiteShape(2, 2), 3, seed=21)
    assert np.array_equal(a.matrix, b.matrix)


def test_gallery_isotropic_validation():
    with pytest.raises(ValueError):
        isotropic(1.2, 2)
    op = isotropic(0.5, 3)
    assert op.is_density()


def test_gallery_product_state_validation():
    with pytest.raises(ValueError):
        product_state(np.eye(2), np.eye(2))  # traces are 2, not densities
    rng = np.random.default_rng(31)
    rho = random_density(BipartiteShape(2, 1), rng).matrix
    sig = random_density(BipartiteShape(3, 1), rng).matrix
    assert product_state(rho, sig).is_density()


@pytest.mark.parametrize("scale", [1e-315, 1e-300, 1.0, 1e300])
def test_witness_check_reads_the_exact_norm_of_the_scaled_e2_witness(scale):
    """The rank-one test reads the unit operator, so no absolute floor hides it."""
    wit = build_witness_EN(max_entangled_vector(2), 2)
    rep = witness_check(BipartiteOperator(wit.operator.shape, wit.operator.matrix * scale))
    assert rep.g_norm_exact is not None
    assert abs(rep.g_norm_certified_upper / scale - 1.0) <= 1e-12


def test_product_state_rejects_a_non_hermitian_factor():
    with pytest.raises(ValueError):
        product_state(np.array([[0.5, 0.5], [0.0, 0.5]]), np.eye(2) / 2)
