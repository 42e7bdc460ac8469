"""Projective / Hermitian norm bounds, decompositions, validators."""

import numpy as np
import pytest

from crossnorm import (
    BipartiteOperator,
    BipartiteShape,
    BipartiteVector,
    NormBounds,
    RobustnessResult,
    SeeSawConfig,
    SignedDecomposition,
    StandardDecomposition,
    classify,
    ent,
    hermitian_upper,
    kron,
    lower_bound_realignment,
    lower_bound_witness,
    max_entangled,
    max_entangled_vector,
    pi_bounds,
    pure_pi_norm,
    pure_with_schmidt,
    random_density,
    random_pure,
    random_separable,
    robustness_upper,
    schmidt_decompose,
    separable_fit,
    trace_norm,
    upper_bound_realignment,
    upper_bound_spectral,
    validate_decomposition,
    witness_value,
)
from crossnorm.bounds import VALIDATE_TOL
from crossnorm.core import EPS_PSD, eigh_blocks, nuclear_norm, unit_scale
from crossnorm.separability import isotropic

CFG = SeeSawConfig(seed=201, restarts=6, max_iters=80)


def flat_schmidt_sum(v, n=None):
    """Independent witness oracle: c = sum of the first n Schmidt pairs."""
    sf = schmidt_decompose(v)
    n = sf.rank if n is None else n
    c = np.zeros(v.shape.total, dtype=complex)
    for l in range(n):
        c += np.kron(sf.left_vectors[l], sf.right_vectors[l])
    return BipartiteVector(v.shape, c), sf.coefficients[:n]


# ---------------------------------------------------------------------------
# pure states


def test_pure_pi_product():
    v = BipartiteVector(BipartiteShape(2, 3), np.kron([1.0, 0.0], [0.0, 1.0, 0.0]))
    assert pure_pi_norm(v) == pytest.approx(1.0, abs=1e-12)


def test_pure_pi_bell_with_witness_oracle():
    v = max_entangled_vector(2)
    assert pure_pi_norm(v) == pytest.approx(2.0, abs=1e-12)
    c, a = flat_schmidt_sum(v)
    overlap = abs(c.entries.conj() @ v.entries) ** 2  # tr(|v><v| |c><c|), a_1(c) = 1
    assert overlap == pytest.approx(a.sum() ** 2, abs=1e-12)
    assert overlap == pytest.approx(2.0, abs=1e-12)


def test_pure_pi_prescribed():
    v = pure_with_schmidt([np.sqrt(0.8), np.sqrt(0.2)])
    assert pure_pi_norm(v) == pytest.approx(1.8, abs=1e-12)
    c, a = flat_schmidt_sum(v)
    assert abs(c.entries.conj() @ v.entries) ** 2 == pytest.approx(1.8, abs=1e-12)


def test_pure_pi_requires_unit_vector():
    v = BipartiteVector(BipartiteShape(2, 2), 2.0 * max_entangled_vector(2).entries)
    with pytest.raises(ValueError):
        pure_pi_norm(v)


# ---------------------------------------------------------------------------
# spectral upper bound


def test_spectral_pure_state():
    v = random_pure(BipartiteShape(3, 4), seed=7)
    val, dec = upper_bound_spectral(v.projector())
    assert val == pytest.approx(pure_pi_norm(v), abs=1e-9)
    sf = schmidt_decompose(v)
    assert len(dec.terms) == sf.rank**2
    rep = validate_decomposition(v.projector(), dec)
    assert rep.valid and rep.certifies_pi_upper
    assert rep.weight == pytest.approx(val, abs=1e-9)


def test_spectral_maximally_mixed_product_eigenbasis():
    op = BipartiteOperator(BipartiteShape(2, 2), np.eye(4, dtype=complex) / 4)
    val, dec = upper_bound_spectral(op)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_spectral_degenerate_bell_pair_block():
    # two Bell-type projectors share an eigenvalue; the block rotation must
    # find the product basis spanning them
    b1 = max_entangled_vector(2).entries
    m = np.diag([1.0, -1.0]).astype(complex) / np.sqrt(2)
    b2 = m.reshape(-1)
    op = BipartiteOperator(BipartiteShape(2, 2), 0.5 * np.outer(b1, b1.conj()) + 0.5 * np.outer(b2, b2.conj()))
    val, _ = upper_bound_spectral(op)
    # the block spans |00><00| + |11><11|: product basis gives exactly 1
    assert val == pytest.approx(1.0, abs=1e-9)


def test_spectral_max_entangled_d3():
    val, dec = upper_bound_spectral(max_entangled(3))
    assert val == pytest.approx(3.0, abs=1e-9)
    wv, _ = lower_bound_witness(max_entangled(3), CFG)
    assert wv == pytest.approx(3.0, abs=1e-9)


def test_spectral_density_capped_by_m():
    rng = np.random.default_rng(11)
    for _ in range(50):
        dh, dj = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        op = random_density(BipartiteShape(dh, dj), rng)
        val, _ = upper_bound_spectral(op)
        assert val <= min(dh, dj) + 1e-8


@pytest.mark.parametrize("scale", [1.0, 1e100, 1e-100, 1e300, 1e-300])
def test_spectral_bound_of_isotropic_state_at_every_scale(scale):
    # the 8-fold degenerate block starts from its product projections: the
    # bound is 3 (5/9) + (1/18) (6 + 2 + 8/3) = 61/27 whatever basis eigh returns
    op = isotropic(0.5, 3)
    value, _ = upper_bound_spectral(BipartiteOperator(op.shape, op.matrix * scale))
    assert value / scale <= 61 / 27 + 1e-12
    # the run of eight operator-Schmidt coefficients 1/15 is rotated to the
    # matrix units: 1 + (6 + 8/3 + 2) / 15 = 77/45 whatever basis the SVD returns
    op = isotropic(0.2, 3)
    value, _ = upper_bound_realignment(BipartiteOperator(op.shape, op.matrix * scale))
    assert value / scale == pytest.approx(77 / 45, rel=1e-12)


def _productize_block_per_candidate(block, shape, max_sweeps=50):
    """Block productization with one SVD per candidate rotation and vector:
    the reference the stacked scan of ``bounds._productize_block`` must match
    bit for bit."""
    from crossnorm import bounds

    b = block.shape[1]
    if b < 2:
        return block
    block = block @ bounds._pivoted_rotation(block)
    dh, dj = shape.dh, shape.dj
    cols = [block[:, j].copy() for j in range(b)]
    sums = [nuclear_norm(c.reshape(dh, dj)) for c in cols]
    for _ in range(max_sweeps):
        improved = False
        for p in range(b):
            for q in range(p + 1, b):
                best = (None, sums[p] ** 2 + sums[q] ** 2)
                for th in bounds._JACOBI_THETAS:
                    ct, st = np.cos(th), np.sin(th)
                    for ph in bounds._JACOBI_PHASES:
                        e = np.exp(1j * ph)
                        vp = ct * cols[p] + e * st * cols[q]
                        vq = -np.conj(e) * st * cols[p] + ct * cols[q]
                        sp = nuclear_norm(vp.reshape(dh, dj))
                        sq = nuclear_norm(vq.reshape(dh, dj))
                        val = sp**2 + sq**2
                        if val < best[1] - 1e-12:
                            best = ((vp, vq, sp, sq), val)
                if best[0] is not None:
                    cols[p], cols[q], sums[p], sums[q] = best[0]
                    improved = True
        if not improved:
            break
    return np.column_stack(cols)


@pytest.mark.parametrize("make", [
    lambda: _maximally_mixed(3), lambda: _maximally_mixed(4), lambda: isotropic(0.3, 4),
    lambda: max_entangled(3), lambda: kron(np.eye(2) / 2, np.diag([0.5, 0.5, 0.0])),
], ids=["max-mixed-3", "max-mixed-4", "isotropic-0.3-4", "bell-3", "mixed-product-2x3"])
def test_product_pair_skip_matches_the_full_sweep(monkeypatch, make):
    """Skipping pairs of product columns changes no bit of the expansion,
    and on maximally mixed states it saves most of the SVDs."""
    from crossnorm import bounds

    op = make()
    svd, svds = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: svds.append(1) or svd(*a, **kw))
    eig = eigh_blocks(op.matrix)
    ours = bounds._spectral_schmidt(eig, op.shape)
    skipped = len(svds)
    monkeypatch.setattr(bounds, "_PRODUCT_SUM", -np.inf)  # every pair swept
    ref = bounds._spectral_schmidt(eig, op.shape)
    assert len(ours) == len(ref)
    for (lam, sf), (lam_ref, sf_ref) in zip(ours, ref):
        assert lam == lam_ref
        assert np.array_equal(sf.coefficients, sf_ref.coefficients)
        assert np.array_equal(sf.left_vectors, sf_ref.left_vectors)
        assert np.array_equal(sf.right_vectors, sf_ref.right_vectors)
    if np.allclose(op.matrix, np.eye(op.shape.total) / op.shape.total):
        assert skipped < len(svds) - skipped


def _maximally_mixed(d):
    return BipartiteOperator(BipartiteShape(d, d), np.eye(d * d, dtype=complex) / (d * d))


def test_productization_finds_the_product_basis_of_a_separable_bell_diagonal_state():
    """(I (x) I + X (x) X / 2) / 4 is separable, and its two eigenblocks are
    spanned by Bell states; the pivoted rotation alone keeps them, and
    upper_bound_spectral read 2 until the Jacobi sweeps rotated them to
    product vectors."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    op = BipartiteOperator(BipartiteShape(2, 2), (np.eye(4) + 0.5 * np.kron(x, x)) / 4)
    assert upper_bound_spectral(op)[0] == pytest.approx(1.0, abs=1e-12)


def test_productization_lowers_a_random_degenerate_block():
    """A random 2-dimensional eigenblock: 1.8400 without the sweeps, 1.1783 with them."""
    rng = np.random.default_rng(0)
    q = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))[0]
    op = BipartiteOperator(BipartiteShape(2, 2), q @ q.conj().T / 2)
    assert upper_bound_spectral(op)[0] <= 1.18


@pytest.mark.parametrize("make", [
    lambda: _maximally_mixed(3), lambda: _maximally_mixed(4), lambda: _maximally_mixed(5),
    lambda: isotropic(0.2, 3), lambda: isotropic(0.5, 3), lambda: isotropic(0.3, 4),
    lambda: max_entangled(3),
], ids=["max-mixed-3", "max-mixed-4", "max-mixed-5", "isotropic-0.2-3", "isotropic-0.5-3",
        "isotropic-0.3-4", "bell-3"])
def test_stacked_productization_matches_the_per_candidate_loop(monkeypatch, make):
    from crossnorm import bounds

    op = make()
    eig = eigh_blocks(op.matrix)
    ours = bounds._spectral_schmidt(eig, op.shape)
    monkeypatch.setattr(bounds, "_productize_block", _productize_block_per_candidate)
    ref = bounds._spectral_schmidt(eig, op.shape)
    assert len(ours) == len(ref)
    for (lam, sf), (lam_ref, sf_ref) in zip(ours, ref):
        assert lam == lam_ref
        assert np.array_equal(sf.coefficients, sf_ref.coefficients)
        assert np.array_equal(sf.left_vectors, sf_ref.left_vectors)
        assert np.array_equal(sf.right_vectors, sf_ref.right_vectors)


def test_spectral_rejects_non_hermitian():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        upper_bound_spectral(BipartiteOperator(BipartiteShape(2, 2), m))


# ---------------------------------------------------------------------------
# realignment bounds


def test_realignment_upper_product():
    rng = np.random.default_rng(13)
    rho = random_density(BipartiteShape(2, 1), rng).matrix
    sig = random_density(BipartiteShape(3, 1), rng).matrix
    val, dec = upper_bound_realignment(kron(rho, sig))
    assert val == pytest.approx(1.0, abs=1e-9)
    assert len(dec.terms) == 1


def test_realignment_upper_bell():
    val, dec = upper_bound_realignment(max_entangled(2))
    assert val == pytest.approx(2.0, abs=1e-9)
    assert len(dec.terms) == 4
    rep = validate_decomposition(max_entangled(2), dec)
    assert rep.valid


def test_realignment_upper_maximally_mixed():
    op = BipartiteOperator(BipartiteShape(2, 2), np.eye(4, dtype=complex) / 4)
    val, _ = upper_bound_realignment(op)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_realignment_lower_values():
    assert lower_bound_realignment(max_entangled(2)) == pytest.approx(2.0, abs=1e-10)
    op = BipartiteOperator(BipartiteShape(2, 2), np.eye(4, dtype=complex) / 4)
    assert lower_bound_realignment(op) == pytest.approx(0.5, abs=1e-12)


def test_realignment_lower_separable_capped():
    rng = np.random.default_rng(17)
    for i in range(100):
        dh, dj = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        op, _ = random_separable(BipartiteShape(dh, dj), int(rng.integers(1, 7)), seed=5000 + i)
        assert lower_bound_realignment(op) <= 1.0 + 1e-10


def test_realignment_lower_vs_validated_decompositions():
    rng = np.random.default_rng(19)
    for _ in range(20):
        op = random_density(BipartiteShape(2, 3), rng)
        low = lower_bound_realignment(op)
        for val, dec in (upper_bound_spectral(op), upper_bound_realignment(op)):
            rep = validate_decomposition(op, dec)
            assert rep.valid
            assert low <= rep.weight + 1e-8


# ---------------------------------------------------------------------------
# witness lower bound


def test_witness_pure_states():
    rng = np.random.default_rng(23)
    for i in range(25):
        dh, dj = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        v = random_pure(BipartiteShape(dh, dj), rng)
        val, c = lower_bound_witness(v.projector(), SeeSawConfig(seed=300 + i, restarts=4, max_iters=40))
        assert val == pytest.approx(pure_pi_norm(v), abs=1e-7)
        assert witness_value(v.projector(), c) == pytest.approx(val, abs=1e-10)


def test_witness_isotropic_closed_form():
    op = isotropic(0.5, 2)
    # fixed certificate: unnormalized Bell sum has a_1 = 1 and gives 1.5p + .5
    c, _ = flat_schmidt_sum(max_entangled_vector(2))
    assert witness_value(op, c) == pytest.approx(1.25, abs=1e-12)
    val, _ = lower_bound_witness(op, CFG)
    assert val == pytest.approx(1.25, abs=1e-9)


def test_witness_product_pure():
    v = BipartiteVector(BipartiteShape(2, 2), np.kron([1.0, 0.0], [1.0, 0.0]))
    val, _ = lower_bound_witness(v.projector(), CFG)
    assert val == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_witness_lower_bound_is_at_most_the_exact_norm(d):
    """The float max_entangled(d) is x sum_ij |ii><jj| with one entry x near
    1/d, so its projective norm is d^2 x exactly; the witness bound rounds
    down by 4 n eps like every other lower bound (d = 2 read
    2.000000000000001 against 1.9999999999999996 unrounded)."""
    from fractions import Fraction

    op = max_entangled(d)
    x = op.matrix[0, 0].real
    low, _ = lower_bound_witness(op, SeeSawConfig(seed=1))
    assert Fraction(low) <= d * d * Fraction(x)


def test_witness_value_rejects_a_zero_certificate():
    op = max_entangled(2)
    with pytest.raises(ValueError, match="zero vector"):
        witness_value(op, BipartiteVector(op.shape, np.zeros(4)))


def test_witness_rejects_non_psd():
    m = np.diag([1.0, -0.5, 0.25, 0.25]).astype(complex)
    with pytest.raises(ValueError):
        lower_bound_witness(BipartiteOperator(BipartiteShape(2, 2), m), CFG)


def test_density_gates_read_the_hermitian_flag_of_the_bounds():
    """is_density() tests Hermiticity at 1e-9, the bounds at EPS_HERM = 1e-10.
    classify took this state for a density and answered Undecided with the
    Hermitian-split bounds of non-Hermitian input (no h bracket); each gate
    now reads its analysis' flags."""
    op = random_density(BipartiteShape(2, 3), 100)
    m = op.matrix.copy()
    m[0, 1] += 5e-10 * np.abs(m).max()
    op = BipartiteOperator(op.shape, m)
    assert op.is_density() and not op.is_hermitian()
    for gate in (classify, ent, lower_bound_witness, robustness_upper):
        with pytest.raises(ValueError):
            gate(op, CFG)


def _top(mat):
    """The see-saw's warm start as its analysis passes it: the first column
    of core.eigh_blocks, the top eigenvector of the Hermitian part."""
    return eigh_blocks(mat)[1][:, 0]


def test_witness_seesaw_closed_forms():
    from crossnorm.bounds import _witness_seesaw

    for d in (2, 3, 4):
        op = max_entangled(d)
        q, _ = _witness_seesaw(op.matrix, op.shape, SeeSawConfig(seed=d), np.inf,
                               _top(op.matrix))
        assert abs(q - d) <= 1e-12 * d
    coeffs = [0.8, 0.5, np.sqrt(0.11)]
    op = pure_with_schmidt(coeffs).projector()
    q, c = _witness_seesaw(op.matrix, op.shape, SeeSawConfig(seed=1), np.inf, _top(op.matrix))
    assert abs(q - sum(coeffs) ** 2) <= 1e-12 * sum(coeffs) ** 2
    assert witness_value(op, BipartiteVector(op.shape, c)) == pytest.approx(q, rel=1e-12)


def _reference_seesaw(mat, shape, config):
    """An independent oracle: power steps plus the best rebalancing of the
    Schmidt coefficients at fixed Schmidt bases, one restart and one
    candidate at a time, with np.kron, on mat / 2^k with 2^k the power of
    two nearest to the sum of |eigenvalues|."""
    rng = np.random.default_rng(config.seed)
    n = shape.total
    w, u = np.linalg.eigh(mat)
    scale = 2.0 ** round(np.log2(np.abs(w).sum()))
    mat = mat / scale
    starts = [u[:, np.argsort(-w)[0]]]
    for _ in range(config.restarts - 1):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        starts.append(z / np.linalg.norm(z))
    best_q = -np.inf
    for c in starts:
        prev, stall = -np.inf, 0
        for _ in range(config.max_iters):
            sf = schmidt_decompose(BipartiteVector(shape, c))
            pairs = zip(sf.left_vectors, sf.right_vectors)
            basis = np.column_stack([np.kron(x, y) for x, y in pairs])
            m = basis.conj().T @ mat @ basis
            m = (m + m.conj().T) / 2
            uv = np.linalg.eigh(m)[1]
            sources = [np.ones(sf.rank), uv[:, -1]]
            cands = [sf.coefficients.astype(complex)]
            for vec in sources:
                ph = np.where(np.abs(vec) > 1e-12, vec / np.maximum(np.abs(vec), 1e-300), 1)
                cands += [np.where(np.arange(sf.rank) < k, ph, 0) for k in range(1, sf.rank + 1)]
            vals = [(y.conj() @ m @ y).real / np.abs(y).max() ** 2 for y in cands]
            q = max(vals)
            best_q = max(best_q, q)
            stall = stall + 1 if q <= prev + config.tol * max(abs(q), 1.0) else 0
            if stall >= 2:
                break
            prev = q
            nxt = mat @ (basis @ cands[int(np.argmax(vals))])
            if np.linalg.norm(nxt) < 1e-300:
                break
            c = nxt / np.linalg.norm(nxt)
    return best_q * scale


def _reference_polar(mat, shape, config):
    """The polar ascent one restart at a time, with the kernel's starts and
    stop rule: c becomes the polar factor U V^dag of the reshape of D c."""
    from crossnorm.bounds import _STALL_STEPS

    rng = np.random.default_rng(config.seed)
    n = shape.total
    w, u = np.linalg.eigh(mat)
    scale = 2.0 ** round(np.log2(np.abs(w).sum()))
    mat = mat / scale
    starts = [u[:, np.argsort(-w)[0]]]
    for _ in range(config.restarts - 1):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        starts.append(z / np.linalg.norm(z))
    best_q = -np.inf
    for c in starts:
        prev, stall = -np.inf, 0
        for _ in range(config.max_iters):
            uu, _, vh = np.linalg.svd((mat @ c).reshape(shape.dh, shape.dj), full_matrices=False)
            c = (uu @ vh).reshape(-1)
            q = np.vdot(c, mat @ c).real
            best_q = max(best_q, q)
            stall = stall + 1 if q <= prev + config.tol * max(abs(q), 1.0) else 0
            prev = q
            if stall >= _STALL_STEPS:
                break
    return best_q * scale


def _seesaw_test_operators():
    rng = np.random.default_rng(31)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    ops = [max_entangled(3), pure_with_schmidt([0.8, 0.5, np.sqrt(0.11)]).projector(),
           isotropic(0.3, 3), BipartiteOperator(BipartiteShape(2, 3), m + m.conj().T)]
    return ops + [random_density(BipartiteShape(dh, dj), 40 + dh)
                  for dh, dj in ((2, 2), (3, 2), (3, 3))]


def test_witness_seesaw_matches_the_loop_reference():
    from crossnorm.bounds import _witness_seesaw

    cfg = SeeSawConfig(seed=5, restarts=5, max_iters=60)
    for op in _seesaw_test_operators():
        # the kernel runs on the analysis' unit operator; the reference scales for itself
        unit, k, _ = unit_scale(op.matrix)
        q, _ = _witness_seesaw(unit, op.shape, cfg, np.inf, _top(unit))
        # the same steps, summed in another order: agreement to rounding
        assert np.ldexp(q, k) == pytest.approx(_reference_polar(op.matrix, op.shape, cfg),
                                               rel=1e-12)


def test_witness_seesaw_reaches_the_schmidt_rebalancing_search():
    from crossnorm.bounds import _witness_seesaw

    cfg = SeeSawConfig(seed=5)
    for op in _seesaw_test_operators():
        q, _ = _witness_seesaw(op.matrix, op.shape, cfg, np.inf, _top(op.matrix))
        ref = _reference_seesaw(op.matrix, op.shape, cfg)
        # the ascent is monotone only where the objective is convex
        rel = 1e-12 if op.is_psd() else 1e-9
        assert q >= ref - rel * abs(ref)


def test_witness_seesaw_returns_a_co_isometry():
    from crossnorm.bounds import _witness_seesaw

    cfg = SeeSawConfig(seed=4, restarts=4, max_iters=40)
    for op in _seesaw_test_operators():
        _, c = _witness_seesaw(op.matrix, op.shape, cfg, _ceiling(op), _top(op.matrix))
        s = np.linalg.svd(c.reshape(op.shape.dh, op.shape.dj), compute_uv=False)
        assert np.allclose(s, 1.0, rtol=0, atol=1e-12)


def test_witness_seesaw_is_deterministic():
    from crossnorm.bounds import _witness_seesaw

    op = random_density(BipartiteShape(3, 3), 12)
    cfg = SeeSawConfig(seed=9)
    q1, c1 = _witness_seesaw(op.matrix, op.shape, cfg, _ceiling(op), _top(op.matrix))
    q2, c2 = _witness_seesaw(op.matrix, op.shape, cfg, _ceiling(op), _top(op.matrix))
    assert q1 == q2 and np.array_equal(c1, c2)


def test_witness_seesaw_with_mixed_schmidt_ranks_in_one_step():
    from crossnorm import bounds

    # a rank-two density: the warm start has Schmidt rank 2, random starts rank 3
    shape = BipartiteShape(3, 3)
    e = np.eye(3)
    v = 0.8 * np.kron(e[0], e[0]) + 0.6 * np.kron(e[1], e[1])
    w = np.kron(e[2], e[2])
    op = BipartiteOperator(shape, 0.7 * np.outer(v, v) + 0.3 * np.outer(w, w))
    q, c = bounds._witness_seesaw(op.matrix, shape, SeeSawConfig(seed=2), np.inf,
                                  _top(op.matrix))
    assert witness_value(op, BipartiteVector(shape, c)) == pytest.approx(q, rel=1e-12)
    # c = I: 0.7 (0.8 + 0.6)^2 + 0.3
    assert q == pytest.approx(1.672, rel=1e-12)


def test_witness_seesaw_more_restarts_never_lower():
    from crossnorm.bounds import _witness_seesaw

    v = pure_with_schmidt([0.8, 0.5, np.sqrt(0.11)])  # the warm start is v itself
    pure = v.projector().matrix
    q, _ = _witness_seesaw(pure, v.shape, SeeSawConfig(seed=3, restarts=1), np.inf, _top(pure))
    assert q == pytest.approx(pure_pi_norm(v), rel=1e-12)
    op = random_density(BipartiteShape(2, 3), 21)
    qs = [_witness_seesaw(op.matrix, op.shape, SeeSawConfig(seed=3, restarts=k), np.inf,
                          _top(op.matrix))[0]
          for k in (1, 2, 5, 16, 32)]
    assert qs == sorted(qs)


def _ceiling(op):
    """||R(D)||_1, the bound no witness exceeds."""
    from crossnorm.core import nuclear_norm, realign

    return nuclear_norm(realign(op))


def _ceiling_states():
    """States whose warm start, the top eigenvector, meets realignment at once:
    Bell-type, the isotropic states of the CI sweeps' grids and a pure state."""
    from crossnorm.cli import _parse_grid

    ops = [max_entangled(d) for d in (2, 3, 4)]
    ops += [isotropic(p, 2) for p in _parse_grid("0:1:0.05")]
    ops += [isotropic(p, 3) for p in _parse_grid("0:1:0.1")]
    return ops + [pure_with_schmidt([0.8, 0.5, np.sqrt(0.11)]).projector()]


def test_witness_seesaw_stops_at_the_realignment_ceiling(monkeypatch):
    from crossnorm import bounds

    steps = []  # one _polar_rows call per step
    polar = bounds._polar_rows
    monkeypatch.setattr(bounds, "_polar_rows", lambda *a: steps.append(a) or polar(*a))
    tol = SeeSawConfig(seed=1).tol
    for op in _ceiling_states():
        an = bounds._Analysis(op, SeeSawConfig(seed=1))
        steps.clear()
        q, c = an.witness
        assert len(steps) == 1, op.shape
        ceiling = an.realignment_lower
        assert abs(q - ceiling) <= tol * max(ceiling, 1.0)
        assert witness_value(an.unit, c) == pytest.approx(q, rel=1e-12)


def _lab_ginibre_densities(seed, tmp_path, monkeypatch):
    """The Ginibre densities the benchmark's ``lab`` workload classifies."""
    from pathlib import Path

    from crossnorm import separability

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    ops = []
    with monkeypatch.context() as m:
        m.setattr(separability, "classify", lambda op, cfg: ops.append(op))
        for case in workloads.build("lab", seed, False, tmp_path):
            if case.name.startswith("ginibre"):
                case.call()
    return ops


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_witness_seesaw_ceiling_costs_at_most_tol(seed, tmp_path, monkeypatch):
    """The stop ends no lower than the full search, less the search's tol."""
    from crossnorm import bounds

    ops = _seesaw_test_operators() + _lab_ginibre_densities(seed, tmp_path, monkeypatch)
    assert len(ops) == 7 + 11
    cfg = SeeSawConfig(seed=seed)
    for op in ops:
        an = bounds._Analysis(op, cfg)
        full, _ = bounds._witness_seesaw(an.unit.matrix, op.shape, cfg, np.inf, an.eig[1][:, 0])
        q, _ = an.witness
        assert q >= full - cfg.tol * max(abs(full), 1.0)


def test_witness_seesaw_draws_its_starts_in_one_call(monkeypatch):
    """One (restarts - 1, 2, n) draw is the per-restart draws of real and
    imaginary parts, bit for bit; the kernel starts from them, normalized."""
    from crossnorm import bounds
    from crossnorm.core import rng_from_seed

    cfg, n = SeeSawConfig(seed=8, restarts=7, max_iters=1), 6
    rng = rng_from_seed(cfg.seed)
    loop = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(cfg.restarts - 1)]
    raw = rng_from_seed(cfg.seed).standard_normal((cfg.restarts - 1, 2, n))
    assert np.array_equal(raw[:, 0] + 1j * raw[:, 1], np.array(loop))

    firsts = []
    polar = bounds._polar_rows
    monkeypatch.setattr(bounds, "_polar_rows",
                        lambda g, shape: firsts.append(g.copy()) or polar(g, shape))
    eye = np.eye(n, dtype=complex)
    bounds._witness_seesaw(eye, BipartiteShape(2, 3), cfg, np.inf, _top(eye))
    starts = firsts[0][1:]  # D = I: the first step's input is the starts themselves
    np.testing.assert_allclose(starts, [z / np.linalg.norm(z) for z in loop], rtol=0, atol=4e-16)


# ---------------------------------------------------------------------------
# product-state ascent


def _reference_product_ascent(mat, shape, rng, n_starts=5, iters=40):
    """The product ascent one matrix and one start at a time: one (value,
    phi, psi) per start."""
    dh, dj = shape.dh, shape.dj
    t = mat.reshape(dh, dj, dh, dj)
    _, u = np.linalg.eigh((mat + mat.conj().T) / 2)
    lead = schmidt_decompose(BipartiteVector(shape, u[:, -1]))
    starts = [(lead.left_vectors[0], lead.right_vectors[0])]
    for _ in range(n_starts - 1):
        zp = rng.standard_normal(dh) + 1j * rng.standard_normal(dh)
        zq = rng.standard_normal(dj) + 1j * rng.standard_normal(dj)
        starts.append((zp / np.linalg.norm(zp), zq / np.linalg.norm(zq)))
    out = []
    for phi, psi in starts:
        val = -np.inf
        for _ in range(iters):
            a = np.einsum("ikjl,k,l->ij", t, psi.conj(), psi)
            phi = np.linalg.eigh((a + a.conj().T) / 2)[1][:, -1]
            b = np.einsum("ikjl,i,j->kl", t, phi.conj(), phi)
            wb, ub = np.linalg.eigh((b + b.conj().T) / 2)
            psi = ub[:, -1]
            new = float(wb[-1].real)
            stop = new <= val + 1e-14 * max(abs(new), 1.0)
            val = new
            if stop:
                break
        out.append((val, phi, psi))
    return out


def _hermitian(shape, seed):
    rng = np.random.default_rng(seed)
    n = shape.total
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def _assert_same_starts(got, m, ref):
    """The starts of matrix m in ``got``, the output of ``_product_ascent``,
    equal the reference's, start for start."""
    owner, val, phi, psi = got
    mine = np.flatnonzero(owner == m)
    assert mine.size == len(ref)
    for i, (v, p, q) in zip(mine, ref):
        assert val[i] == v
        assert np.array_equal(phi[i], p) and np.array_equal(psi[i], q)


@pytest.mark.parametrize("dh,dj", [(2, 2), (2, 3), (3, 3)])
def test_product_ascent_matches_the_loop_reference(dh, dj):
    from crossnorm.bounds import _product_ascent

    shape = BipartiteShape(dh, dj)
    for seed in (1, 2, 3):
        mat = _hermitian(shape, seed)
        ref = _reference_product_ascent(mat, shape, np.random.default_rng(seed))
        got = _product_ascent([mat], shape, np.random.default_rng(seed))
        _assert_same_starts(got, 0, ref)


def test_product_ascent_batch_equals_sequential_calls():
    from crossnorm.bounds import _product_ascent

    shape = BipartiteShape(2, 3)
    mats = [_hermitian(shape, s) for s in (4, 5, 6)]
    seq_rng, batch_rng = np.random.default_rng(8), np.random.default_rng(8)
    seq = [_product_ascent([m], shape, seq_rng, n_starts=3) for m in mats]
    batch = _product_ascent(mats, shape, batch_rng, n_starts=3)
    for m, (_, val, phi, psi) in enumerate(seq):
        _assert_same_starts(batch, m, list(zip(val, phi, psi)))
    assert batch_rng.bit_generator.state == seq_rng.bit_generator.state


def test_product_ascent_single_start_and_single_step():
    from crossnorm.bounds import _product_ascent

    shape = BipartiteShape(3, 2)
    mats = [_hermitian(shape, 10), _hermitian(shape, 11)]
    for kwargs in ({"n_starts": 1}, {"iters": 1}, {"n_starts": 1, "iters": 1}):
        got = _product_ascent(mats, shape, np.random.default_rng(2), **kwargs)
        rng = np.random.default_rng(2)
        for m, mat in enumerate(mats):
            _assert_same_starts(got, m, _reference_product_ascent(mat, shape, rng, **kwargs))
        for owner, val, phi, psi in zip(*got):
            prod = np.kron(phi, psi)
            assert val == pytest.approx((prod.conj() @ mats[owner] @ prod).real, abs=1e-12)


# ---------------------------------------------------------------------------
# Hermitian upper bounds


def test_hermitian_upper_product_pure():
    v = BipartiteVector(BipartiteShape(2, 2), np.kron([1.0, 0.0], [1.0, 0.0]))
    val, dec = hermitian_upper(v.projector())
    assert val == pytest.approx(1.0, abs=1e-12)
    assert validate_decomposition(v.projector(), dec).valid


def test_hermitian_upper_bell():
    val, dec = hermitian_upper(max_entangled(2))
    assert val == pytest.approx(3.0, abs=1e-9)
    rep = validate_decomposition(max_entangled(2), dec)
    assert rep.valid and rep.certifies_h_upper
    assert dec.alpha == pytest.approx(2.0, abs=1e-9)


def test_hermitian_upper_pure_closed_form():
    rng = np.random.default_rng(29)
    for _ in range(10):
        v = random_pure(BipartiteShape(3, 3), rng)
        val, _ = hermitian_upper(v.projector())
        assert val == pytest.approx(2.0 * pure_pi_norm(v) - 1.0, abs=1e-8)


def _eigh_split_signed(spectral, shape):
    """The signed decomposition built by eigendecomposition: each Hermitian
    pair X_R (x) Y_R, X_I (x) Y_I split into positive and negative parts,
    every part with trace above 1e-15 of its factor's trace norm kept, and
    terms at most 1e-15 max|lambda| dropped."""
    def split(a):
        w, u = np.linalg.eigh((a + a.conj().T) / 2)
        absa = (u * np.abs(w)) @ u.conj().T
        return (absa + a) / 2, (absa - a) / 2

    scale = max((abs(lam) for lam, _ in spectral), default=0.0)
    terms = []
    for lam, sf in spectral:
        a, lv, rv = sf.coefficients, sf.left_vectors, sf.right_vectors
        for k in range(sf.rank):
            terms.append((lam * a[k] ** 2, np.outer(lv[k], lv[k].conj()),
                          np.outer(rv[k], rv[k].conj())))
        for k in range(sf.rank):
            for l in range(k + 1, sf.rank):
                x, y = np.outer(lv[k], lv[l].conj()), np.outer(rv[k], rv[l].conj())
                for xm, ym, sgn in (((x + x.conj().T) / 2, (y + y.conj().T) / 2, 1.0),
                                    ((x - x.conj().T) / 2j, (y - y.conj().T) / 2j, -1.0)):
                    xs, ys = split(xm), split(ym)
                    xcut = 1e-15 * float(np.trace(xs[0] + xs[1]).real)
                    ycut = 1e-15 * float(np.trace(ys[0] + ys[1]).real)
                    for xp, xsgn in zip(xs, (1.0, -1.0)):
                        tx = float(np.trace(xp).real)
                        for yp, ysgn in zip(ys, (1.0, -1.0)):
                            ty = float(np.trace(yp).real)
                            if tx > xcut and ty > ycut:
                                terms.append((2.0 * sgn * lam * a[k] * a[l] * xsgn * ysgn * tx * ty,
                                              xp / tx, yp / ty))
    return [(t, r, s) for t, r, s in terms if abs(t) > 1e-15 * scale]


def _signed_test_operators(dh, dj):
    """A random indefinite Hermitian operator, a rank-deficient one and the
    isotropic state (a degenerate block) when dh = dj."""
    rng = np.random.default_rng(10 * dh + dj)
    n = dh * dj
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    ops = [z + z.conj().T, v @ np.diag([1.0, -0.5]) @ v.conj().T]
    if dh == dj:
        ops.append(isotropic(0.4, dh).matrix)
    return [BipartiteOperator(BipartiteShape(dh, dj), m) for m in ops]


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
@pytest.mark.parametrize("dh,dj", [(2, 2), (2, 3), (3, 3)])
def test_hermitian_upper_matches_the_eigh_split_construction(dh, dj, scale):
    """The provider runs on the unit operator and scales its weights back by
    2^k, so the reference is built there too."""
    from crossnorm.bounds import _spectral_schmidt

    for base in _signed_test_operators(dh, dj):
        op = BipartiteOperator(base.shape, base.matrix * scale)
        value, dec = hermitian_upper(op)
        unit, k, _ = unit_scale(op.matrix)
        ref = [(float(np.ldexp(t, k)), rho, sig) for t, rho, sig in
               _eigh_split_signed(_spectral_schmidt(eigh_blocks(unit), op.shape), op.shape)]
        assert len(dec.terms) == len(ref)
        for (t, rho, sig), (tr, rhor, sigr) in zip(dec.terms, ref):
            assert t == pytest.approx(tr, rel=1e-12)
            assert np.allclose(rho, rhor, rtol=0, atol=1e-12)
            assert np.allclose(sig, sigr, rtol=0, atol=1e-12)
        assert value == pytest.approx(sum(abs(t) for t, _, _ in ref), rel=1e-12)
        assert validate_decomposition(op, dec).certifies_h_upper


def test_separable_mixture_certifies_unit_h_norm():
    op, mixture = random_separable(BipartiteShape(2, 2), 4, seed=31)
    rep = validate_decomposition(op, mixture)
    assert rep.valid and rep.certifies_h_upper and rep.positive and rep.optimal
    assert rep.weight == pytest.approx(1.0, abs=1e-10)
    nb = pi_bounds(op, CFG)  # robustness phase 1 finds a mixture of weight one
    assert nb.h_upper <= 1.0 + 1e-8


def _random_hermitian(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


@pytest.mark.parametrize("n", [1, 4, 9])
def test_hermitian_embedding_is_an_isometry_with_its_inverse(n):
    from crossnorm.bounds import _embed_hermitian, _hermitian_from

    rng = np.random.default_rng(n)
    for _ in range(5):
        x, y = _random_hermitian(n, rng), _random_hermitian(n, rng)
        assert _embed_hermitian(x).size == n * n
        assert _embed_hermitian(x) @ _embed_hermitian(y) == pytest.approx(
            np.trace(x @ y).real, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(_hermitian_from(_embed_hermitian(x), n), x,
                                   rtol=0, atol=1e-15 * np.abs(x).max())


def test_separable_fit_runs_nnls_on_hermitian_rows(monkeypatch):
    from crossnorm import bounds

    rows, nnls = [], bounds.nnls

    def recorded(a_mat, d, **kwargs):
        rows.append((a_mat.shape[0], d.size))
        return nnls(a_mat, d, **kwargs)

    monkeypatch.setattr(bounds, "nnls", recorded)
    op, _ = random_separable(BipartiteShape(2, 3), 5, seed=11)
    dec, rounds = bounds.separable_fit(op, SeeSawConfig(seed=1))
    assert dec is not None and validate_decomposition(op, dec).valid
    # one refit per round, and one more of the polished atoms in a round that polishes
    assert rounds <= len(rows) <= 2 * rounds and set(rows) == {(36, 36)}


def test_separable_fit_refuses_an_anti_hermitian_part():
    """The n^2 Hermitian columns cannot see 1e-3 (U - U^T), U the strictly
    upper ones; the reconstruction check before the exit does."""
    from crossnorm.bounds import separable_fit

    op, _ = random_separable(BipartiteShape(2, 2), 5, seed=11)
    upper = np.triu(np.ones((4, 4)), 1)
    skewed = BipartiteOperator(op.shape, op.matrix + 1e-3 * (upper - upper.T))
    dec, _ = separable_fit(skewed, SeeSawConfig(seed=1))
    assert dec is None


def test_distinct_atoms_keeps_distinct_maxima_above_the_floor():
    from crossnorm.bounds import _distinct_atoms

    rng = np.random.default_rng(3)
    phis = np.array([random_pure(BipartiteShape(1, 3), rng).entries for _ in range(5)])
    psis = np.array([random_pure(BipartiteShape(1, 2), rng).entries for _ in range(5)])
    phis[3], psis[3] = 1j * phis[1], -psis[1]  # the atom of start 1, up to phases
    vals = np.array([0.5, 3.0, 2.0, 2.5, 0.1])
    kept_phis, kept_psis = _distinct_atoms(vals, phis, psis, 0.5)
    assert len(kept_phis) == len(kept_psis) == 2
    for p, q, i in zip(kept_phis, kept_psis, (1, 2)):
        assert np.array_equal(p, phis[i]) and np.array_equal(q, psis[i])
    none_phis, none_psis = _distinct_atoms(vals, phis, psis, 3.0)
    assert none_phis.shape == (0, 3) and none_psis.shape == (0, 2)


def _record_separable_fit_rounds(monkeypatch):
    """Record the number of columns of each NNLS call, and each admission of
    priced atoms as (values, phis, floor, admitted atoms)."""
    from crossnorm import bounds

    columns, admissions = [], []
    nnls, distinct = bounds.nnls, bounds._distinct_atoms

    def recorded_nnls(a_mat, d, **kwargs):
        columns.append(a_mat.shape[1])
        return nnls(a_mat, d, **kwargs)

    def recorded_distinct(vals, phis, psis, floor):
        atoms = distinct(vals, phis, psis, floor)
        admissions.append((vals, phis, floor, list(zip(*atoms))))  # as (phi, psi) pairs
        return atoms

    monkeypatch.setattr(bounds, "nnls", recorded_nnls)
    monkeypatch.setattr(bounds, "_distinct_atoms", recorded_distinct)
    return columns, admissions


@pytest.mark.parametrize("dh,dj,k", [(3, 3, 4), (4, 4, 4)])
def test_separable_fit_admits_every_distinct_improving_start(monkeypatch, dh, dj, k):
    """A round admits at most one atom per start, each above the floor and no
    near duplicate; the drop step keeps the dictionary within n^2 + 5: at
    most n^2 atoms with NNLS weight and five priced ones.  With one atom per
    round the 4x4 state ran out of 200 rounds."""
    from crossnorm.bounds import separable_fit

    columns, admissions = _record_separable_fit_rounds(monkeypatch)
    op, _ = random_separable(BipartiteShape(dh, dj), k, seed=11)
    dec, rounds = separable_fit(op, SeeSawConfig(seed=1))
    assert dec is not None and validate_decomposition(op, dec).valid
    n = dh * dj
    assert rounds <= len(columns) <= 2 * rounds and max(columns) <= n * n + 5
    assert len(admissions) == rounds - 1 and all(a[3] for a in admissions)
    if n == 16:  # the 3x3 state is certified after one pricing, which admits one atom
        assert max(len(a[3]) for a in admissions) > 1
    for vals, phis, floor, atoms in admissions:
        assert len(atoms) <= vals.size == 5
        for p, _ in atoms:
            [i] = [i for i in range(vals.size) if np.array_equal(phis[i], p)]
            assert vals[i] > floor
        for j, (p, q) in enumerate(atoms):
            for p2, q2 in atoms[:j]:
                assert abs(np.vdot(p2, p)) ** 2 * abs(np.vdot(q2, q)) ** 2 <= 1.0 - 1e-8


@pytest.mark.parametrize("seed", range(1, 21))
def test_separable_fit_certifies_the_isotropic_qubit_boundary_state(seed):
    """Without the polish, admitting every improving atom from the first round
    lost seed 2."""
    from crossnorm.bounds import separable_fit

    op = isotropic(1 / 3, 2)
    dec, _ = separable_fit(op, SeeSawConfig(seed=seed))
    assert dec is not None and validate_decomposition(op, dec).valid


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_separable_fit_does_not_raise_on_a_degenerate_target(seed):
    """NNLS at scipy's default iteration limit raised RuntimeError in rounds
    34, 56 and 60 on this state at seeds 1-3."""
    from crossnorm.bounds import MAX_ROUNDS, separable_fit

    dec, rounds = separable_fit(isotropic(0.25, 3), SeeSawConfig(seed=seed))
    assert rounds == MAX_ROUNDS or dec is not None


def test_separable_fit_certifies_the_separable_gallery():
    """Every state of the gallery, the isotropic boundary states at d = 2-5
    among them, gets a mixture that validates; without the polish the d = 3-5
    boundary states and random_separable(4x4, 2, 11) ran out of rounds."""
    from crossnorm.bounds import separable_fit

    for op in _separable_gallery():
        dec, _ = separable_fit(op, SeeSawConfig(seed=1))
        assert dec is not None
        rep = validate_decomposition(op, dec)
        assert rep.valid and rep.positive


def test_separable_fit_certifies_a_3x3_mixture_in_a_few_rounds():
    """Frank-Wolfe alone took 64 rounds on this state (50-58 on the rotated
    copy the benchmark runs)."""
    from crossnorm.bounds import separable_fit

    op, _ = random_separable(BipartiteShape(3, 3), 4, seed=11)
    dec, rounds = separable_fit(op, SeeSawConfig(seed=1))
    assert dec is not None and validate_decomposition(op, dec).valid
    assert rounds <= 10


def _polish_problem(dh, dj, k, seed):
    """Factor rows z_k = (u_k, v_k) near a random mixture's, and its target d."""
    from crossnorm.bounds import _embed_hermitian

    op, _ = random_separable(BipartiteShape(dh, dj), k, seed)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((k, dh + dj)) + 1j * rng.standard_normal((k, dh + dj))
    return z / np.sqrt(dh + dj), _embed_hermitian(op.matrix)


@pytest.mark.parametrize("dh,dj,k", [(1, 2, 2), (2, 3, 4), (3, 3, 5)])
def test_polish_jacobian_matches_central_differences(dh, dj, k):
    from crossnorm.bounds import _mixture_jacobian, _mixture_residual

    z, d = _polish_problem(dh, dj, k, 7)
    jt = _mixture_jacobian(z, dh)
    assert jt.shape == (k, 2, dh + dj, d.size)
    h, fd = 1e-6, np.empty_like(jt)
    for i in range(k):
        for part, step in enumerate((h, 1j * h)):
            for j in range(dh + dj):
                e = np.zeros_like(z)
                e[i, j] = step
                fd[i, part, j] = (_mixture_residual(z + e, dh, d)
                                  - _mixture_residual(z - e, dh, d)) / (2 * h)
    assert np.abs(jt - fd).max() <= 1e-7 * np.abs(jt).max()


@pytest.mark.parametrize("steps", [1, 30])
def test_polish_never_raises_the_residual(monkeypatch, steps):
    """From random factor rows, on a mixture and on targets outside the cone
    (Bell states), after one step and after the full budget; a copy that
    takes every step fails it."""
    from crossnorm import bounds

    monkeypatch.setattr(bounds, "_POLISH_STEPS", steps)
    targets = [(max_entangled(2), 2), (max_entangled(3), 3),
               (random_separable(BipartiteShape(2, 3), 5, 11)[0], 2)]
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for op, dh in targets:
            k, m = int(rng.integers(2, 12)), dh + op.shape.dj
            z = (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))) / np.sqrt(m)
            d = bounds._embed_hermitian(op.matrix)
            out = bounds._polish_mixture(z, dh, d)
            before, after = (np.linalg.norm(bounds._mixture_residual(x, dh, d)) for x in (z, out))
            assert after <= before


@pytest.mark.parametrize("dh,dj,k", [(3, 3, 4), (2, 2, 3)])
def test_polish_repeats_itself(dh, dj, k):
    """The one residual-space solve, with fewer parameters than residuals
    (3x3: p = 48 <= n^2 = 81) and with more (2x2: p = 24 > 16)."""
    from crossnorm.bounds import _mixture_residual, _polish_mixture

    z, d = _polish_problem(dh, dj, k, 3)
    out = _polish_mixture(z, dh, d)
    before, after = (np.linalg.norm(_mixture_residual(x, dh, d)) for x in (z, out))
    assert after < before
    assert np.array_equal(_polish_mixture(z, dh, d), out)


def _counted_solves(monkeypatch):
    """A list that grows by one at each ``np.linalg.solve`` call."""
    calls, solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(1) or solve(*a))
    return calls


@pytest.mark.parametrize("dh,dj", [(2, 2), (3, 3)])
def test_polish_stops_at_a_stationary_start(monkeypatch, dh, dj):
    """Atoms on |aa> with a residual on the other |bb>, which no atom's
    tangent space reaches: J^T r = 0, so the first step is zero and the polish
    ends after one solve; at the exact factors it ends before any solve."""
    from crossnorm.bounds import _embed_hermitian, _mixture_residual, _polish_mixture

    d = _embed_hermitian(np.diag(np.eye(dh, dj).ravel()).astype(complex))
    z = np.hstack([np.eye(dh - 1, dh), np.eye(dh - 1, dj)]).astype(complex)
    assert np.linalg.norm(_mixture_residual(z, dh, d)) == 1.0
    calls = _counted_solves(monkeypatch)
    assert np.array_equal(_polish_mixture(z, dh, d), z) and len(calls) == 1
    exact = np.hstack([np.eye(dh), np.eye(dh, dj)]).astype(complex)
    assert np.array_equal(_polish_mixture(exact, dh, d), exact) and len(calls) == 1


@pytest.mark.parametrize("dh,dj,k", [(2, 2, 2), (2, 3, 3), (3, 3, 4), (4, 4, 5)])
def test_polish_stops_at_the_rounding_floor(monkeypatch, dh, dj, k):
    """A mixture the factor rows can fit exactly, started 0.1 away: the
    polish reaches ||r|| ~ eps ||d|| and stops there, within 12 of its 30
    solves."""
    from crossnorm.bounds import _mixture_residual, _polish_mixture

    eps, m = np.finfo(float).eps, dh + dj
    for seed in range(6):
        rng = np.random.default_rng(seed)
        exact = (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))) / np.sqrt(m)
        d = _mixture_residual(exact, dh, np.zeros((dh * dj) ** 2))
        z = exact + 0.1 * (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m)))
        calls = _counted_solves(monkeypatch)
        out = _polish_mixture(z, dh, d)
        assert len(calls) <= 12
        assert np.linalg.norm(_mixture_residual(out, dh, d)) <= 4 * eps * np.linalg.norm(d)


def test_product_ascent_stop_is_scale_free(monkeypatch):
    """The same search, step for step, on R x 1e-6, R and R x 1e6, counted in
    calls of the loop's eigh helper, two per step; with an absolute floor of
    1 on the stop it took 50, 82 and 86 calls."""
    from crossnorm import bounds
    from crossnorm.core import rng_from_seed

    op = random_density(BipartiteShape(3, 3), 1)
    base = op.matrix - np.eye(9) / 9
    eigh, counts, values = bounds._eigh, [], []

    def counted(a):
        counts[-1] += 1
        return eigh(a)

    monkeypatch.setattr(bounds, "_eigh", counted)
    for scale in (1e-6, 1.0, 1e6):
        counts.append(0)
        mat = base * scale
        tn = trace_norm(mat)
        _, vals, _, _ = bounds._product_ascent([mat], op.shape, rng_from_seed(1), iters=200,
                                               scale=tn)
        values.append(vals / tn)
    assert counts[0] == counts[1] == counts[2] > 2  # steps were counted
    np.testing.assert_allclose(values[0], values[1], rtol=1e-12)
    np.testing.assert_allclose(values[2], values[1], rtol=1e-12)


# ---------------------------------------------------------------------------
# robustness search


def test_robustness_product_mixture():
    op, _ = random_separable(BipartiteShape(2, 2), 5, seed=37)
    res = robustness_upper(op, CFG)
    assert res.success
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.alpha == pytest.approx(1.0, abs=1e-9)
    assert res.decomposition.is_positive  # no D2 part
    rep = validate_decomposition(op, res.decomposition)
    assert rep.valid and rep.positive


def test_robustness_bell():
    res = robustness_upper(max_entangled(2), CFG)
    assert res.success
    assert 2.0 - 1e-9 <= res.value <= 3.0 + 1e-9
    rep = validate_decomposition(max_entangled(2), res.decomposition)
    assert rep.valid
    # both sides of the affine combination are explicit product mixtures
    ts = [t for t, _, _ in res.decomposition.terms]
    assert min(ts) < 0 < max(ts) and rep.kind == "signed"
    # hermitian weight bookkeeping: sum |t| = 2 alpha - 1 at unit trace
    dec = res.decomposition
    assert dec.weight == pytest.approx(2.0 * dec.alpha - 1.0, abs=1e-8)
    assert dec.weight == pytest.approx(res.value, abs=1e-12)


def _record_ascent_calls(monkeypatch):
    """Route the product ascent ``bounds._product_ascent`` through a recorder
    of every call: its matrices, rng, n_starts, iters, extra_starts and the
    values it returns."""
    from types import SimpleNamespace

    from crossnorm import bounds

    calls = []
    ascent = bounds._product_ascent

    def recorded(mats, shape, rng, **kwargs):
        out = ascent(mats, shape, rng, **kwargs)
        calls.append(SimpleNamespace(mats=mats, rng=rng, n_starts=kwargs.get("n_starts", 5),
                                     iters=kwargs.get("iters", 40),
                                     extra=kwargs.get("extra_starts"), vals=out[1]))
        return out

    monkeypatch.setattr(bounds, "_product_ascent", recorded)
    return calls


def test_one_product_ascent_per_separable_fit_round(monkeypatch):
    """Every round but the last prices once, one matrix with five starts, and
    nothing else in the fit runs the ascent."""
    from crossnorm.bounds import separable_fit

    calls = _record_ascent_calls(monkeypatch)
    op, _ = random_separable(BipartiteShape(2, 3), 5, seed=11)
    dec, rounds = separable_fit(op, SeeSawConfig(seed=1))
    assert dec is not None and validate_decomposition(op, dec).valid
    assert [(len(c.mats), c.n_starts, c.iters, c.extra) for c in calls] == \
        [(1, 5, 40, None)] * (rounds - 1)


def _found(call) -> bool:
    """Whether a pricing call found a product state above 1 + PRICING_TOL."""
    from crossnorm.bounds import PRICING_TOL

    return float(np.abs(call.vals).max()) > 1.0 + PRICING_TOL


def test_phase_two_prices_once_per_round_and_builds_each_column_once(monkeypatch):
    """Each round prices [Y, -Y] once in 5 steps from the lead start and at
    most 8 of the LP's support atoms, those of positive weight on Y and
    those of negative weight on -Y, with no random start; the 40-step
    pricing runs only after a short one found nothing."""
    from crossnorm import bounds

    calls = _record_ascent_calls(monkeypatch)
    fit, lp, columns_of = bounds.separable_fit, bounds._min_weight_lp, bounds._columns
    fits, lps, columns = [], [], []

    def counted_fit(*args, **kwargs):
        fits.append(args)
        return fit(*args, **kwargs)

    def recorded_lp(a_mat, d, highs):
        lps.append((len(calls), a_mat, lp(a_mat, d, highs)))  # the ascent calls before it
        return lps[-1][2]

    def counted_columns(phis, psis):
        columns.extend(zip(phis, psis))
        return columns_of(phis, psis)

    monkeypatch.setattr(bounds, "separable_fit", counted_fit)
    monkeypatch.setattr(bounds, "_min_weight_lp", recorded_lp)
    monkeypatch.setattr(bounds, "_columns", counted_columns)
    op = random_density(BipartiteShape(2, 2), 7)
    res = bounds.robustness_upper(op, CFG)
    assert bounds._Analysis(op, CFG).npt
    assert fits == []  # phase 1 is skipped: no product mixture of an NPT state exists
    assert "converged" in res.message and res.rounds_used == len(lps) >= 3
    # no atom's column is rebuilt: no atom is built twice, bit for bit
    assert len({p.tobytes() + q.tobytes() for p, q in columns}) == len(columns)
    full = 0
    for (first, a_mat, (_, t, _, _)), (end, *_) in zip(lps, lps[1:] + [(len(calls),)]):
        short, *rest = calls[first:end]
        assert len(short.mats) == 2 and np.array_equal(short.mats[1], -short.mats[0])
        assert short.iters == 5 and short.n_starts == 1 and short.rng is None
        assert sum(len(starts) for starts in short.extra) <= 8
        for starts, sign in zip(short.extra, (1.0, -1.0)):  # each start is a signed support atom
            for col in columns_of(*map(np.array, zip(*starts))) if starts else ():
                k = np.flatnonzero(np.abs(a_mat.T - col).max(axis=1) <= 1e-12)
                assert k.size and np.all(sign * t[k] > 0.0)
        if rest:  # the full pricing: the same dual and starts, after a short one found nothing
            (again,) = rest
            full += 1
            assert not _found(short) and again.iters == 40 and again.extra is short.extra
            assert all(np.array_equal(a, b) for a, b in zip(again.mats, short.mats))
    assert full >= 1


@pytest.mark.parametrize("dh,dj,seed", [(2, 2, 7), (2, 3, 1)])
def test_phase_two_converges_only_after_a_full_pricing_finds_nothing(monkeypatch, dh, dj, seed):
    from crossnorm import bounds

    calls = _record_ascent_calls(monkeypatch)
    duals, lp = [], bounds._min_weight_lp

    def recorded_lp(a_mat, d, highs):
        out = lp(a_mat, d, highs)
        duals.append(out[2])
        return out

    monkeypatch.setattr(bounds, "_min_weight_lp", recorded_lp)
    res = bounds.robustness_upper(random_density(BipartiteShape(dh, dj), seed), CFG)
    assert res.success and "converged" in res.message
    short, full = calls[-2:]
    assert (short.iters, full.iters) == (5, 40) and not _found(short) and not _found(full)
    ymat = bounds._hermitian_from(duals[-1], dh * dj)  # the last LP's dual, priced both times
    assert all(np.array_equal(c.mats[0], ymat) and np.array_equal(c.mats[1], -ymat)
               for c in (short, full))


# ---------------------------------------------------------------------------
# negative partial transpose screen


@pytest.mark.parametrize("dh,dj,seed", [(2, 2, 7), (2, 3, 100), (3, 3, 202)])
def test_npt_flag_is_set_where_no_product_mixture_fits(dh, dj, seed):
    from crossnorm import bounds

    op = random_density(BipartiteShape(dh, dj), seed)
    assert bounds._Analysis(op, CFG).npt
    dec, _ = bounds.separable_fit(op, SeeSawConfig(seed=1))
    assert dec is None  # so skipping the search changes no outcome


def _separable_gallery():
    rng = np.random.default_rng(5)
    states = [isotropic(1 / (d + 1), d) for d in (2, 3, 4, 5)]
    states += [isotropic(0.1, 3), _maximally_mixed(3), max_entangled(1)]
    states.append(kron(random_density(BipartiteShape(2, 1), rng).matrix,
                       random_density(BipartiteShape(3, 1), rng).matrix))
    for (dh, dj), k in (((2, 2), 6), ((2, 3), 5), ((3, 3), 4), ((3, 4), 9), ((4, 4), 2)):
        for seed in (11, 12):
            states.append(random_separable(BipartiteShape(dh, dj), k, seed)[0])
    return states


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e6])
def test_npt_flag_is_never_set_on_a_separable_state(scale):
    from crossnorm import bounds

    for op in _separable_gallery():
        assert not bounds._Analysis(BipartiteOperator(op.shape, op.matrix * scale), CFG).npt


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e6])
def test_npt_flag_does_not_move_with_scale(scale):
    from crossnorm import bounds

    for op, npt in ((random_density(BipartiteShape(2, 2), 7), True), (max_entangled(3), True),
                    (isotropic(0.26, 3), True), (isotropic(0.25, 3), False),
                    (random_density(BipartiteShape(3, 3), 3), True),
                    (random_separable(BipartiteShape(2, 3), 5, 11)[0], False)):
        assert bounds._Analysis(BipartiteOperator(op.shape, op.matrix * scale), CFG).npt is npt


def test_robustness_gets_the_analysis_of_pi_bounds(monkeypatch):
    from crossnorm import bounds

    builds = []
    spectral = bounds._spectral_schmidt
    monkeypatch.setattr(bounds, "_spectral_schmidt", lambda *a: builds.append(a) or spectral(*a))
    op = random_density(BipartiteShape(2, 2), 7)
    nb = pi_bounds(op, CFG)
    assert len(builds) == 1  # one spectral-Schmidt expansion per call
    assert nb.h_upper == pytest.approx(robustness_upper(op, CFG).value, rel=1e-12)


def test_unsuccessful_robustness_result_has_no_value():
    res = RobustnessResult(None, 7, "no certificate")
    assert not res.success
    assert np.isnan(res.value) and np.isnan(res.alpha)


def _record_lp_and_columns(monkeypatch):
    """Record phase 2's LP calls, as ("lp", (rows, columns)) of the LP over
    [A, -A], and its column builds, as ("col", None), in call order."""
    from crossnorm import bounds

    events = []
    lp, columns = bounds._min_weight_lp, bounds._columns

    def recorded_lp(a_mat, d, highs):
        events.append(("lp", (a_mat.shape[0], 2 * a_mat.shape[1])))
        return lp(a_mat, d, highs)

    def recorded_columns(phis, psis):
        events.extend([("col", None)] * len(phis))
        return columns(phis, psis)

    monkeypatch.setattr(bounds, "_min_weight_lp", recorded_lp)
    monkeypatch.setattr(bounds, "_columns", recorded_columns)
    return events


def test_phase_two_lp_has_hermitian_rows_and_stays_in_budget(monkeypatch):
    events = _record_lp_and_columns(monkeypatch)
    op = random_density(BipartiteShape(2, 2), 7)
    res = robustness_upper(op, CFG)
    assert res.success and validate_decomposition(op, res.decomposition).valid
    shapes = [shape for kind, shape in events if kind == "lp"]
    assert len(shapes) >= 3
    assert all(rows == 16 and cols <= 2 * 64 for rows, cols in shapes)
    assert max(cols for _, cols in shapes) == 2 * 64  # the budget was reached


def test_phase_two_starts_from_the_signed_atoms_then_the_seed_atoms(monkeypatch):
    from crossnorm import bounds

    first = []
    lp = bounds._min_weight_lp

    def recorded_lp(a_mat, d, highs):
        first.append(first[0] if first else a_mat)
        return lp(a_mat, d, highs)

    monkeypatch.setattr(bounds, "_min_weight_lp", recorded_lp)
    monkeypatch.setattr(bounds, "MAX_ROUNDS", 1)
    op = random_density(BipartiteShape(2, 2), 7)
    robustness_upper(op, CFG)
    phis, psis, _ = bounds._Analysis(op, CFG).signed_atoms
    seed_phis, seed_psis = bounds._seed_atoms(op)
    a_mat = bounds._columns(np.concatenate([phis, seed_phis]), np.concatenate([psis, seed_psis])).T
    assert np.array_equal(first[0], a_mat)


def test_phase_two_enters_several_columns_in_a_round(monkeypatch):
    events = _record_lp_and_columns(monkeypatch)
    robustness_upper(random_density(BipartiteShape(2, 2), 7), CFG)
    lps = [i for i, (kind, _) in enumerate(events) if kind == "lp"]
    entered = [b - a - 1 for a, b in zip(lps, lps[1:])]  # columns built between two LPs
    assert entered and max(entered) > 1


@pytest.mark.parametrize("dh,dj,seed", [(2, 2, 7), (2, 3, 1)])
def test_min_weight_lp_equals_linprog_bit_for_bit(monkeypatch, dh, dj, seed):
    """The direct HiGHS solve gives linprog's weights and duals on every phase-2 LP,
    as solved in the search's one workspace."""
    from scipy.optimize import linprog

    from crossnorm import bounds

    lps, lp = [], bounds._min_weight_lp

    def recorded_lp(a_mat, d, highs):
        lps.append((a_mat, d, lp(a_mat, d, highs)))
        return lps[-1][2]

    monkeypatch.setattr(bounds, "_min_weight_lp", recorded_lp)
    res = robustness_upper(random_density(BipartiteShape(dh, dj), seed), SeeSawConfig(seed=7))
    assert len(lps) == res.rounds_used >= 25  # one LP per round, over a search of some length
    for a_mat, d, (ok, t, y, _) in lps:
        k = a_mat.shape[1]
        ref = linprog(c=np.ones(2 * k), A_eq=np.hstack([a_mat, -a_mat]), b_eq=d, bounds=(0, None),
                      method="highs", options={"presolve": False})
        assert ref.success and ok
        assert np.array_equal(t, ref.x[:k] - ref.x[k:])
        assert np.array_equal(y, ref.eqlin.marginals)


def test_min_weight_lp_reports_an_infeasible_program(monkeypatch):
    from crossnorm import bounds

    ok, t, y, message = bounds._min_weight_lp(np.zeros((4, 3)), np.ones(4), bounds._lp_workspace())
    assert not ok and t is None and y is None and "Infeasible" in message
    # columns that cannot reach the target: phase 2 stops on the LP and keeps the signed bound
    op = random_density(BipartiteShape(2, 2), 7)
    monkeypatch.setattr(bounds, "_columns",
                        lambda phis, psis: np.zeros((len(phis), op.shape.total ** 2)))
    res = robustness_upper(op, CFG)
    assert res.rounds_used == 1 and res.message.endswith("; LP failed: " + message)
    assert res.value == hermitian_upper(op)[1].weight


def _reference_column(atom):
    """An atom's column one at a time: the product density built by kron and outer."""
    from crossnorm.bounds import _embed_hermitian

    v = np.kron(*atom)
    return _embed_hermitian(np.outer(v, v.conj()))


@pytest.mark.parametrize("dh,dj", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3), (4, 4)])
def test_columns_equal_the_per_atom_formula(dh, dj):
    from crossnorm.bounds import _columns

    rng = np.random.default_rng(dh * 10 + dj)
    atoms = [(random_pure(BipartiteShape(1, dh), rng).entries,
              random_pure(BipartiteShape(1, dj), rng).entries) for _ in range(7)]
    atoms.append((np.eye(dh)[0], np.eye(dj)[-1]))  # a real product, as the seed atoms are
    cols = _columns(np.array([p for p, _ in atoms]), np.array([q for _, q in atoms]))
    assert cols.shape == (len(atoms), (dh * dj) ** 2)
    for col, atom in zip(cols, atoms, strict=True):
        assert np.array_equal(col, _reference_column(atom))


def _hermitian_stack(d, count, rng):
    z = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    return (z + z.conj().transpose(0, 2, 1)) / 2


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_eigh_helper_equals_numpy_eigh_bit_for_bit(d):
    from crossnorm import bounds

    rng = np.random.default_rng(d)
    stack = _hermitian_stack(d, 6, rng)
    u = np.linalg.eigh(_hermitian_stack(d, 1, rng))[1][0]
    stack[1] = u @ np.diag(np.repeat([1.0, -2.0], [d - d // 2, d // 2])) @ u.conj().T
    stack[2] = np.eye(d)  # fully degenerate
    stack[3] = 0.0
    for a in (stack, stack[:1], stack[1:3]):
        with bounds._lapack_errstate():
            w, v = bounds._eigh(a)
        ref_w, ref_v = np.linalg.eigh(a)
        assert np.array_equal(w, ref_w) and np.array_equal(v, ref_v)


def test_eigh_helper_raises_on_nan_input():
    from crossnorm import bounds

    a = _hermitian_stack(3, 2, np.random.default_rng(0))
    a[1, 2, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigh(a)
    with pytest.raises(np.linalg.LinAlgError), bounds._lapack_errstate():
        bounds._eigh(a)


def test_product_ascent_raises_on_nan_input():
    from crossnorm.bounds import _product_ascent

    shape = BipartiteShape(2, 2)
    mat = _hermitian(shape, 3)
    mat[3, 1] = mat[1, 3] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        _product_ascent([mat], shape, np.random.default_rng(1))


def test_one_lp_workspace_solves_as_fresh_ones():
    """A sequence of LPs of different sizes, one infeasible, in one cleared
    workspace: each gives the result of its own fresh workspace, bit for bit."""
    from crossnorm import bounds

    rng = np.random.default_rng(4)
    programs = []
    for m, k in ((16, 40), (9, 20), (16, 64), (36, 113)):
        a_mat = rng.standard_normal((m, k))
        a_mat[rng.random((m, k)) < 0.2] = 0.0  # some structural zeros
        programs.append((a_mat, a_mat @ rng.random(k)))
    programs.insert(2, (np.zeros((4, 3)), np.ones(4)))  # infeasible
    programs.append(programs[0])  # the first LP again, after all the others
    highs = bounds._lp_workspace()
    for a_mat, d in programs:
        got = bounds._min_weight_lp(a_mat, d, highs)
        ref = bounds._min_weight_lp(a_mat, d, bounds._lp_workspace())
        assert got[0] == ref[0] and got[3] == ref[3]
        if ref[0]:
            assert np.array_equal(got[1], ref[1]) and np.array_equal(got[2], ref[2])
    assert [bounds._min_weight_lp(a, d, highs)[0] for a, d in programs] == [
        True, True, False, True, True, True]


def _reference_prune(weights, budget):
    """Active entries (weight above 0) first, then the most recent, by a sort key."""
    order = sorted(range(len(weights)), key=lambda i: (weights[i] <= 0.0, -i))
    return sorted(order[:budget])


def test_prune_equals_the_sorted_key_reference():
    from crossnorm.bounds import _prune

    rng = np.random.default_rng(6)
    cases = [np.zeros(5), np.ones(5), np.array([0.0, 1.0, 0.0, 2.0, 0.0, 0.0, 3.0])]
    for _ in range(30):  # ties at the cut: exact zeros among the weights
        w = np.abs(rng.standard_normal(rng.integers(1, 40)))
        w[rng.random(w.size) < 0.5] = 0.0
        cases.append(w)
    for w in cases:
        for budget in range(w.size + 2):
            keep = _prune(w, budget)
            assert keep.tolist() == _reference_prune(w, budget)


@pytest.mark.parametrize("dh,dj", [(2, 2), (2, 3), (3, 3)])
def test_lead_starts_equal_schmidt_decompose(dh, dj):
    """The product ascent's lead starts, one stacked svd and the phase rule of
    core, are schmidt_decompose's leading pairs bit for bit."""
    from crossnorm.core import _fix_phases

    shape = BipartiteShape(dh, dj)
    rng = np.random.default_rng(dh * 10 + dj)
    n = shape.total
    mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(40)]
    vecs = [np.linalg.eigh(m + m.conj().T)[1][:, -1] for m in mats]
    vecs += list(np.eye(n, dtype=complex))  # top eigenvectors of a zero matrix: product basis
    vecs += [np.kron(rng.standard_normal(dh) + 1j * rng.standard_normal(dh),
                     rng.standard_normal(dj) + 1j * rng.standard_normal(dj)) for _ in range(5)]
    eh, ej = np.eye(dh), np.eye(dj)
    vecs.append(np.kron(eh[0], ej[0]) + np.kron(eh[1], ej[1]))  # Schmidt rank 2, below 3 at 3x3
    vecs = np.array([v / np.linalg.norm(v) for v in vecs], dtype=complex)
    u, _, vh = np.linalg.svd(vecs.reshape(-1, dh, dj), full_matrices=False)
    phi, psi = _fix_phases(u[:, :, 0], vh[:, 0, :])
    for v, p, q in zip(vecs, phi, psi):
        sf = schmidt_decompose(BipartiteVector(shape, v))
        assert np.array_equal(p, sf.left_vectors[0]) and np.array_equal(q, sf.right_vectors[0])
    # a row pair whose pivot is zero stays; the others still turn
    left = np.array([np.zeros(dh), u[0, :, 0] * 1j])
    right = np.array([vh[0, 0, :], vh[0, 0, :]])
    fl, fr = _fix_phases(left, right)
    assert np.array_equal(fl[0], left[0]) and np.array_equal(fr[0], right[0])
    assert np.allclose(fl[1], phi[0], rtol=0, atol=1e-15)
    assert np.allclose(fr[1], 1j * psi[0], rtol=0, atol=1e-15)


def test_upper_triangle_indices_are_cached_read_only():
    from crossnorm.bounds import _upper_indices

    iu = _upper_indices(6)
    assert iu is _upper_indices(6)
    assert all(np.array_equal(a, b) for a, b in zip(iu, np.triu_indices(6, 1)))
    assert not any(a.flags.writeable for a in iu)
    with pytest.raises(ValueError):
        iu[0][0] = 1


def test_decomposition_factors_equal_outer_products():
    from crossnorm import bounds

    op = random_density(BipartiteShape(2, 3), 4)
    phis, psis, weights = bounds._Analysis(op, CFG).signed_atoms
    dec = bounds._decomposition_from(phis, psis, weights, op.shape, cutoff=0.0)
    assert len(dec.terms) == len(phis) == len(psis) == len(weights)
    for (w, rho, sigma), p, q, t in zip(dec.terms, phis, psis, weights):
        assert w == float(t)
        assert np.array_equal(rho, np.outer(p, p.conj()))
        assert np.array_equal(sigma, np.outer(q, q.conj()))
    assert bounds._decomposition_from(phis, psis, weights, op.shape, cutoff=np.inf).terms == []


def _refuse_witness_seesaw(*args, **kwargs):
    raise AssertionError("the witness see-saw was started")


def test_pinched_bracket_skips_the_witness_search(monkeypatch):
    """pi_bounds starts no witness see-saw, on pinched or open brackets,
    Hermitian or not: realignment dominates every rank-one witness."""
    from crossnorm import bounds

    monkeypatch.setattr(bounds, "_witness_seesaw", _refuse_witness_seesaw)
    mixed = BipartiteOperator(BipartiteShape(3, 3), np.eye(9, dtype=complex) / 9)
    nb = pi_bounds(mixed, CFG, include_robustness=False)
    assert nb.methods["pi_lower"] == "trace_norm" and nb.pi_value() is not None
    nb = pi_bounds(random_density(BipartiteShape(2, 2), 1), CFG, include_robustness=False)
    assert nb.methods["pi_lower"] == "realignment" and nb.pi_value() is None
    nb = pi_bounds(max_entangled(2), CFG)
    assert nb.methods["pi_lower"] == "realignment" and nb.pi_value() == pytest.approx(2.0)
    m = np.random.default_rng(3).standard_normal((9, 9))
    nb = pi_bounds(BipartiteOperator(BipartiteShape(3, 3), m / np.linalg.norm(m)), CFG)
    assert nb.indirect and nb.methods["pi_lower"] in ("trace_norm", "realignment")


def test_pinched_bracket_keeps_a_finished_witness():
    from crossnorm import bounds

    mixed = BipartiteOperator(BipartiteShape(2, 2), np.eye(4, dtype=complex) / 4)
    an = bounds._Analysis(mixed, CFG)
    an.witness = (1.0 + 1e-9, BipartiteVector(mixed.shape, np.eye(4)[0]))  # a search already run
    assert an.bounds(include_robustness=False).methods["pi_lower"] == "witness"


def test_phase_two_says_why_it_stopped(monkeypatch):
    from crossnorm import bounds

    op = random_density(BipartiteShape(2, 2), 1)
    res = robustness_upper(op, SeeSawConfig(seed=7))
    assert res.success and res.message.startswith("signed decomposition found; converged")
    gain = float(res.message.split("pricing gain ")[1].split()[0])
    assert gain <= 1.0 + 1e-7
    monkeypatch.setattr(bounds, "MAX_ROUNDS", 3)
    res = robustness_upper(op, SeeSawConfig(seed=7))
    assert res.rounds_used == 3
    assert "max_rounds (3) exhausted" in res.message and "converged" not in res.message


@pytest.mark.parametrize("dh,dj,seed,parent", [(2, 2, 1, 1.0754587), (2, 2, 2, 1.1153842),
                                               (2, 3, 1, 1.1210)])
def test_robustness_h_upper_no_looser_than_the_one_column_search(dh, dj, seed, parent):
    """The one-column-per-round search reached 1.0754587, 1.1153842 and
    1.12163 here; the 2x3 bound is tightened below 1.1210."""
    op = random_density(BipartiteShape(dh, dj), seed)
    nb = pi_bounds(op, SeeSawConfig(seed=7))
    assert nb.methods["h_upper"] == "robustness" and nb.h_upper <= parent
    assert validate_decomposition(op, nb.certificates["h_upper"]).valid


@pytest.mark.parametrize("dh,dj,seed,parent", [
    (2, 2, 1, 1.0754586299746305), (2, 2, 8, 1.066320052231754),
    (2, 3, 1, 1.1202267192316104), (2, 3, 2, 1.2921910587081082),
    (2, 3, 100, 1.5328272773678628)])
def test_robustness_value_no_looser_than_the_forty_step_pricing(dh, dj, seed, parent):
    """``parent``: the value when every round priced from random starts to the
    40-step cap; 2x3 seed 1 then ran out its 200 rounds."""
    op = random_density(BipartiteShape(dh, dj), seed)
    res = robustness_upper(op, SeeSawConfig(seed=7))
    assert res.success and res.value <= parent * (1.0 + 1e-7)
    assert "converged" in res.message
    assert validate_decomposition(op, res.decomposition).valid


@pytest.mark.parametrize("scale", [1e10, 1.0, 1e-10, 1e-13, 1e-16])
def test_separable_certificate_holds_at_every_scale(scale):
    op, _ = random_separable(BipartiteShape(2, 3), 5, seed=11)
    op = BipartiteOperator(op.shape, op.matrix * scale)
    nb = pi_bounds(op, SeeSawConfig(seed=1))
    assert nb.pi_lower <= nb.pi_upper
    assert nb.pi_upper == pytest.approx(scale, rel=1e-6)
    assert validate_decomposition(op, nb.certificates["pi_upper"]).valid


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e12])
def test_robustness_bound_holds_away_from_unit_scale(scale):
    """At scale 1 phase 2 reaches 1.0754587 here; an LP on the unscaled
    target lost it (1.9763 at 1e-12, 1.3340 at 1e-6, 1.0895 at 1e12)."""
    op = random_density(BipartiteShape(2, 2), 1)
    op = BipartiteOperator(op.shape, op.matrix * scale)
    res = robustness_upper(op, SeeSawConfig(seed=1))
    assert res.success and res.value / scale <= 1.0755
    assert validate_decomposition(op, res.decomposition).valid


def _extreme_operators():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((9, 9))
    return [max_entangled(2), random_density(BipartiteShape(2, 2), 1), isotropic(0.2, 3),
            BipartiteOperator(BipartiteShape(3, 3), m / np.linalg.norm(m))]


def _public_provider_operators():
    sep, _ = random_separable(BipartiteShape(2, 3), 5, seed=11)
    return [max_entangled(2), random_density(BipartiteShape(2, 2), 1), isotropic(0.5, 3), sep]


def _public_provider_values(op) -> dict:
    """name -> (value, certificate, is an upper bound) of the public providers;
    separable_fit only when it finds a mixture."""
    out = {"lower_bound_realignment": (lower_bound_realignment(op), None, False)}
    for provider in (upper_bound_spectral, upper_bound_realignment, hermitian_upper):
        out[provider.__name__] = (*provider(op), True)
    mixture, _ = separable_fit(op, SeeSawConfig(seed=1))
    if mixture is not None:
        out["separable_fit"] = (mixture.weight, mixture, True)
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-310, 1e-300, 1.0, 1e300, 1.5e308])
@pytest.mark.parametrize("which", range(4))
def test_brackets_hold_at_the_edges_of_the_float_range(scale, which):
    """Each kernel used to pick its own power of two: Bell x 1e-310 gave an
    inverted bracket, and x 1.5e308 raised OverflowError.  The public
    providers ran on the raw matrix: Bell x 1e-310 read upper_bound_spectral
    and hermitian_upper 1e-310, below lower_bound_realignment's 2e-310;
    x 1.5e308 lower_bound_realignment overflowed and separable_fit of a
    separable state raised LinAlgError."""
    base = _public_provider_operators()[which]
    op = BipartiteOperator(base.shape, base.matrix * scale)
    ref, got = _public_provider_values(base), _public_provider_values(op)
    assert which != 3 or "separable_fit" in got  # a separable state's mixture is found
    low = got["lower_bound_realignment"][0]
    for name, (value, dec, up) in got.items():
        if name in ref and np.isfinite(ref[name][0] * scale):
            assert value / scale == pytest.approx(ref[name][0], rel=1e-9)
        elif name in ref:  # the product overflows
            assert value == (np.inf if up else np.finfo(float).max)
        if up:
            assert value >= low
        if dec is not None and np.isfinite(value):
            report = validate_decomposition(op, dec)
            assert report.certifies_h_upper if name == "hermitian_upper" else report.valid

    base = _extreme_operators()[which]
    op = BipartiteOperator(base.shape, base.matrix * scale)
    ref = pi_bounds(base, SeeSawConfig(seed=1), include_robustness=False)
    for robust in (False, True):
        nb = pi_bounds(op, SeeSawConfig(seed=1), include_robustness=robust)
        assert nb.pi_lower <= nb.pi_upper
        assert nb.indirect or nb.h_lower <= nb.h_upper
        for name in ("pi_upper", "h_upper"):
            if np.isfinite(getattr(nb, name)):
                assert validate_decomposition(op, nb.certificates[name]).valid
        if nb.pi_lower < np.finfo(float).max:
            assert nb.pi_lower / scale == pytest.approx(ref.pi_lower, rel=1e-9)
    if which == 0 and scale == 1.5e308:  # ||Bell x 1.5e308||_pi = 3e308 is not a float
        assert (nb.pi_lower, nb.pi_upper) == (np.finfo(float).max, np.inf)


@pytest.mark.parametrize("scale", [1e-310, 1e-300, 1.0, 1e300])
def test_bell_h_upper_is_at_least_the_exact_norm(scale):
    """||Bell||_H = 3 tr D exactly.  At 1e-310 the robustness weight used to
    come back through the operator's scale and lose bits: h_upper read
    2.9999999999997e-310 < 3 tr D = 2.99999999999984e-310, and h_value
    2.5e-310 was quoted for the open bracket [2e-310, 3e-310]."""
    from fractions import Fraction

    op = BipartiteOperator(BipartiteShape(2, 2), max_entangled(2).matrix * scale)
    nb = pi_bounds(op, SeeSawConfig(seed=1))
    exact_h = 3 * sum(Fraction(float(x.real)) for x in np.diag(op.matrix))
    assert Fraction(nb.h_upper) >= exact_h
    assert Fraction(nb.pi_lower) <= 2 * exact_h / 3 <= Fraction(nb.pi_upper)
    assert nb.h_value() is None and nb.pi_value() == pytest.approx(2 * scale, rel=1e-12)


def _rounding_operators() -> dict:
    """Operators whose brackets pinch, so a bound that misses the outward
    margin shows as one below a lower bound or below the exact norm."""
    return {"bell": max_entangled(2),
            "mixed-3x3": BipartiteOperator(BipartiteShape(3, 3), np.eye(9) / 9),
            "random-2x2": random_density(BipartiteShape(2, 2), 1),
            "isotropic-3": isotropic(0.5, 3)}


@pytest.mark.parametrize("scale", [1e-310, 1.0, 1.5e308])
@pytest.mark.parametrize("name", ["bell", "mixed-3x3", "random-2x2", "isotropic-3"])
def test_single_providers_round_outward_like_pi_bounds(name, scale):
    """The single providers used to scale back with no outward margin:
    upper_bound_spectral(Bell) read 1.9999999999999991, below both the float
    matrix's exact norm 1.9999999999999996 and lower_bound_realignment's
    1.9999999999999996, and upper_bound_realignment(I/9) read
    0.9999999999999999, below its trace.  Now each returns, bit for bit, what
    pi_bounds reports when its method wins there."""
    from fractions import Fraction

    base = _rounding_operators()[name]
    op = BipartiteOperator(base.shape, base.matrix * scale)
    ups = {"spectral": upper_bound_spectral(op)[0], "realignment": upper_bound_realignment(op)[0],
           "signed": hermitian_upper(op)[0]}
    lows = {"realignment": lower_bound_realignment(op),
            "witness": lower_bound_witness(op, SeeSawConfig(seed=1))[0]}
    assert max(lows.values()) <= min(ups.values())
    tr = sum(Fraction(float(x.real)) for x in np.diag(op.matrix))
    exact = {"bell": 2 * tr, "mixed-3x3": tr}.get(name)  # ||D||_pi of the float matrix
    if exact is not None:
        assert all(np.isinf(v) or Fraction(v) >= exact for v in ups.values())
    nb = pi_bounds(op, SeeSawConfig(seed=1), include_robustness=False)
    won = [(getattr(nb, key), ups[nb.methods[key]]) for key in ("pi_upper", "h_upper")
           if nb.methods[key] in ups]
    if nb.methods["pi_lower"] == "realignment":
        won.append((nb.pi_lower, lows["realignment"]))
    assert won and all(reported == single for reported, single in won)


def test_pinch_tolerance_scales_with_the_operator():
    nb = pi_bounds(max_entangled(2), SeeSawConfig(seed=1), include_robustness=False)
    assert nb.scale_exponent == 0 and nb.h_value() is None
    tiny = NormBounds(2e-7, 2e-7 + 5e-7, 1.0, 1.0)  # k = 0: absolute PINCH_TOL
    assert tiny.pi_value() is not None
    tiny.scale_exponent = -20  # the same bracket of an operator near 2^-20 is open
    assert tiny.pi_value() is None


def test_validator_rejects_an_empty_decomposition_of_a_tiny_state():
    """Against an absolute 1e-300 floor, the empty decomposition of Bell x
    1e-310 had reconstruction error 1e-10 and passed."""
    op = BipartiteOperator(BipartiteShape(2, 2), max_entangled(2).matrix * 1e-310)
    report = validate_decomposition(op, StandardDecomposition([], op.shape))
    assert not report.valid
    assert report.reconstruction_error == pytest.approx(1.0)
    assert validate_decomposition(op, pi_bounds(op, CFG).certificates["pi_upper"]).valid


def test_witness_bracket_of_bell_at_1e200():
    """The see-saw's vector norm overflowed here, and pi_bounds raised.
    pi_bounds no longer runs the see-saw; lower_bound_witness and an
    analysis whose see-saw already ran, as classify's does, still do."""
    from crossnorm import bounds

    op = BipartiteOperator(BipartiteShape(2, 2), max_entangled(2).matrix * 1e200)
    q, c = lower_bound_witness(op, CFG)
    assert q == pytest.approx(2e200, rel=1e-9)
    assert witness_value(op, c) == pytest.approx(q, rel=1e-9)
    an = bounds._Analysis(op, CFG)
    assert np.ldexp(an.witness[0], an.k) == pytest.approx(2e200, rel=1e-9)  # run at unit scale
    for nb in (pi_bounds(op, CFG), an.bounds()):
        assert nb.pi_lower == pytest.approx(2e200, rel=1e-9)
        assert nb.pi_upper == pytest.approx(2e200, rel=1e-9)
        assert validate_decomposition(op, nb.certificates["pi_upper"]).valid
    assert pi_bounds(op, CFG).methods["pi_lower"] == "realignment"
    cls = classify(max_entangled(2), CFG)
    assert cls.verdict == "Entangled" and cls.detection_value == pytest.approx(2.0, rel=1e-9)


def test_robustness_maximally_mixed():
    op = BipartiteOperator(BipartiteShape(2, 2), np.eye(4, dtype=complex) / 4)
    res = robustness_upper(op, CFG)
    assert res.success
    assert res.value == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# combined bounds


def test_pi_bounds_bell():
    nb = pi_bounds(max_entangled(2), CFG)
    assert nb.pi_lower == pytest.approx(2.0, abs=1e-6)
    assert nb.pi_upper == pytest.approx(2.0, abs=1e-6)
    assert 2.0 - 1e-8 <= nb.h_upper <= 3.0 + 1e-8
    assert nb.pi_value() == pytest.approx(2.0, abs=1e-6)


def test_pi_bounds_separable_pinch():
    op, _ = random_separable(BipartiteShape(2, 2), 4, seed=41)
    nb = pi_bounds(op, CFG)
    assert nb.pi_upper - nb.pi_lower < 1e-6
    assert nb.pi_value() == pytest.approx(1.0, abs=1e-6)
    assert nb.h_value() == pytest.approx(1.0, abs=1e-6)


def test_pi_bounds_max_entangled_d3():
    nb = pi_bounds(max_entangled(3), CFG, include_robustness=False)
    assert nb.pi_value() == pytest.approx(3.0, abs=1e-6)


def test_pi_bounds_chain():
    rng = np.random.default_rng(43)
    for i in range(30):
        dh, dj = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        op = random_density(BipartiteShape(dh, dj), rng)
        nb = pi_bounds(op, SeeSawConfig(seed=400 + i, restarts=4, max_iters=40),
                       include_robustness=False)
        assert trace_norm(op.matrix) <= nb.pi_lower + 1e-9
        assert nb.pi_lower <= nb.pi_upper + 1e-8
        assert nb.pi_upper <= nb.h_upper + 1e-8
        assert nb.h_upper <= 2.0 * nb.pi_upper + 1e-8
        assert nb.pi_upper <= min(dh, dj) + 1e-8


def test_pi_bounds_indirect_non_hermitian():
    rng = np.random.default_rng(47)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    op = BipartiteOperator(BipartiteShape(2, 2), m)
    nb = pi_bounds(op, CFG)
    assert nb.indirect
    assert nb.pi_lower <= nb.pi_upper + 1e-8
    assert trace_norm(m) <= nb.pi_lower + 1e-9


def test_indirect_upper_bound_has_a_valid_certificate():
    rng = np.random.default_rng(47)
    for shape in (BipartiteShape(2, 2), BipartiteShape(2, 3), BipartiteShape(3, 3)):
        n = shape.total
        op = BipartiteOperator(shape, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        nb = pi_bounds(op, CFG)
        assert nb.methods["pi_upper"] == "hermitian_split"
        rep = validate_decomposition(op, nb.certificates["pi_upper"])
        assert rep.valid and rep.certifies_pi_upper and rep.kind == "standard"
        assert rep.weight == pytest.approx(nb.pi_upper, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-6, 1e-9, 1e-12])
def test_small_negative_operator_is_not_taken_for_psd(monkeypatch, scale):
    from crossnorm import bounds

    op = isotropic(0.5, 3)
    neg = BipartiteOperator(op.shape, -op.matrix * scale)
    assert not neg.is_psd()
    calls = []
    monkeypatch.setattr(bounds, "_robustness", lambda *a, **k: calls.append(a))
    pi_bounds(neg, SeeSawConfig(seed=1))
    assert calls == []


def test_tiny_operator_keeps_a_valid_upper_certificate():
    # the signed-decomposition cutoff scales with the operator, so no term of
    # a tiny operator is dropped as negligible
    op = BipartiteOperator(BipartiteShape(2, 2), 1e-16 * max_entangled(2).matrix)
    nb = pi_bounds(op, CFG, include_robustness=False)
    assert validate_decomposition(op, nb.certificates["pi_upper"]).valid
    assert validate_decomposition(op, nb.certificates["h_upper"]).certifies_h_upper
    assert nb.pi_upper == pytest.approx(2e-16, rel=1e-9)
    assert nb.h_upper == pytest.approx(3e-16, rel=1e-9)


def _bracket_inputs():
    yield from (max_entangled(d) for d in (2, 3, 4))
    bell = max_entangled(2)
    yield from (BipartiteOperator(bell.shape, k * bell.matrix) for k in (1e8, 1e-12))
    yield from (BipartiteOperator(BipartiteShape(d, d), np.eye(d * d) / d**2) for d in (2, 3))
    yield pure_with_schmidt([0.8, 0.5, np.sqrt(0.11)]).projector()
    yield isotropic(0.0, 2)
    yield isotropic(1.0, 2)
    yield BipartiteOperator(BipartiteShape(1, 1), np.eye(1))
    yield random_density(BipartiteShape(1, 3), 13)


def test_brackets_are_never_inverted():
    for op in _bracket_inputs():
        nb = pi_bounds(op, SeeSawConfig(seed=1), include_robustness=False)
        assert nb.pi_lower <= nb.pi_upper, op.shape
        assert nb.h_lower <= nb.h_upper, op.shape


def test_one_witness_seesaw_per_call(monkeypatch, tmp_path):
    """At most one see-saw per analysis, and only where its vector is asked
    for: the sweep's witness column, or classify above realignment one."""
    from crossnorm import bounds
    from crossnorm.cli import main

    calls = []
    seesaw = bounds._witness_seesaw

    def counted(*args, **kwargs):
        calls.append(args)
        return seesaw(*args, **kwargs)

    monkeypatch.setattr(bounds, "_witness_seesaw", counted)
    small = ["--seed", "3", "--restarts", "4", "--max-iters", "40"]
    assert main(["sweep", "isotropic", "--d", "2", "--p", "0:1:0.5",
                 "--csv-out", str(tmp_path / "iso.csv")] + small) == 0
    assert len(calls) == 3  # one per grid point, shared by classify where it runs

    cfg = SeeSawConfig(seed=3, restarts=4, max_iters=40)
    calls.clear()
    assert classify(isotropic(0.9, 2), cfg).verdict == "Entangled"
    assert len(calls) == 1  # realignment 1.85 > 1
    calls.clear()
    rho = random_density(BipartiteShape(2, 3), 1)  # NPT, but realignment <= 1
    assert lower_bound_realignment(rho) <= 1.0
    assert classify(rho, cfg).verdict == "Undecided" and calls == []

    op, _ = random_separable(BipartiteShape(3, 3), 4, seed=11)
    with monkeypatch.context() as patched:
        patched.setattr(bounds, "MAX_ROUNDS", 1)
        cls = classify(op, cfg)
    assert cls.verdict == "Undecided"
    nb = pi_bounds(op, cfg, include_robustness=False)
    pi_bounds(op, cfg)
    assert calls == []

    got = cls.bounds
    assert (got.pi_lower, got.pi_upper, got.h_lower, got.h_upper, got.methods, got.indirect) == \
        (nb.pi_lower, nb.pi_upper, nb.h_lower, nb.h_upper, nb.methods, nb.indirect)
    assert got.certificates.keys() == nb.certificates.keys()
    for name, cert in nb.certificates.items():
        mine = got.certificates[name]
        if cert is None:
            assert mine is None
        elif isinstance(cert, BipartiteVector):
            assert np.array_equal(mine.entries, cert.entries)
        else:
            assert mine.to_dict() == cert.to_dict()


def test_one_mixture_search_per_analysis(monkeypatch):
    """classify, the bounds and the robustness search share one separable_fit,
    and the bounds count classify's mixture without validating it again."""
    from crossnorm import bounds
    from crossnorm.separability import _classify

    fits, validations = [], []
    fit, validate = bounds.separable_fit, bounds.validate_decomposition
    monkeypatch.setattr(bounds, "separable_fit", lambda *a: fits.append(a) or fit(*a))
    monkeypatch.setattr(bounds, "validate_decomposition",
                        lambda *a: validations.append(a) or validate(*a))
    an = bounds._Analysis(isotropic(0.25, 2), CFG)
    cls = _classify(an)
    assert cls.verdict == "Separable"
    nb = an.bounds(include_robustness=False)
    assert nb.pi_upper <= 1.0 + 1e-12 and nb.methods["pi_upper"] == "separable_fit"
    assert bounds._robustness(an).decomposition is cls.certificate is an.mixture[0]
    assert len(fits) == 1 and validations == []


# ---------------------------------------------------------------------------
# entanglement-function interface


def test_ent_requires_density():
    with pytest.raises(ValueError):
        ent(BipartiteOperator(BipartiteShape(2, 2), np.eye(4, dtype=complex)), CFG)


def test_ent_separable_and_bell():
    op, _ = random_separable(BipartiteShape(2, 2), 4, seed=59)
    assert ent(op, CFG).pi_value() == pytest.approx(1.0, abs=1e-6)
    assert ent(max_entangled(2), CFG).pi_value() == pytest.approx(2.0, abs=1e-6)


def test_ent_mixture_lower_bound():
    bell = max_entangled(2)
    rng = np.random.default_rng(61)
    d0 = random_density(BipartiteShape(2, 2), rng)
    for p in (0.25, 0.6):
        mix = BipartiteOperator(BipartiteShape(2, 2), p * bell.matrix + (1 - p) * d0.matrix)
        nb = ent(mix, CFG, include_robustness=False)
        assert nb.pi_lower >= 2.0 * p - 1e-9


def test_ent_convexity_through_bounds():
    rng = np.random.default_rng(63)
    for i in range(15):
        d1 = random_density(BipartiteShape(2, 2), rng)
        d2 = random_density(BipartiteShape(2, 2), rng)
        t = float(rng.uniform(0.1, 0.9))
        mix = BipartiteOperator(d1.shape, t * d1.matrix + (1 - t) * d2.matrix)
        cfg = SeeSawConfig(seed=600 + i, restarts=4, max_iters=40)
        lo = ent(mix, cfg, include_robustness=False).pi_lower
        hi = (
            t * ent(d1, cfg, include_robustness=False).pi_upper
            + (1 - t) * ent(d2, cfg, include_robustness=False).pi_upper
        )
        assert lo <= hi + 1e-7


# ---------------------------------------------------------------------------
# validators


def test_validate_pure_expansion():
    v = random_pure(BipartiteShape(3, 3), seed=67)
    val, dec = upper_bound_spectral(v.projector())
    rep = validate_decomposition(v.projector(), dec)
    assert rep.valid
    assert rep.weight == pytest.approx(pure_pi_norm(v), abs=1e-8)


def test_validate_detects_normalization_violation():
    v = random_pure(BipartiteShape(2, 2), seed=71)
    _, dec = upper_bound_spectral(v.projector())
    r0, x0, y0 = dec.terms[0]
    bad = StandardDecomposition([(r0, 1.1 * x0, y0)] + dec.terms[1:], dec.shape)
    rep = validate_decomposition(v.projector(), bad)
    assert not rep.valid
    assert any("normalization" in m or "reconstruction" in m for m in rep.messages)


def test_validate_rejects_each_mutation_of_a_certificate():
    """Every rejection of the validator, each from one mutation of a valid
    certificate and each with its own message (a changed reconstruction
    may add its own)."""
    op = random_density(BipartiteShape(2, 2), 1)
    signed, standard = hermitian_upper(op)[1], upper_bound_spectral(op)[1]
    assert validate_decomposition(op, signed).valid and validate_decomposition(op, standard).valid
    (t0, rho0, sig0), (t1, rho1, sig1), rest = *signed.terms[:2], signed.terms[2:]
    first_two = {
        "factor not PSD": [(t0, np.diag([2.0, -1.0]), sig0), (t1, rho1, sig1)],
        "factor trace off by": [(t0, 1.1 * rho0, sig0), (t1, rho1, sig1)],
        "zero weight term": [(0.0, rho0, sig0), (t1 + t0, rho1, sig1)],  # the same sum
        "weights sum to trace off by": [(t0 + 1e-6, rho0, sig0), (t1, rho1, sig1)],
    }
    cases = {key: SignedDecomposition(terms + rest, op.shape) for key, terms in first_two.items()}
    r0, x0, y0 = standard.terms[0]
    cases["negative weight"] = StandardDecomposition([(-r0, x0, y0)] + standard.terms[1:],
                                                     op.shape)
    for expected, dec in cases.items():
        rep = validate_decomposition(op, dec)
        found = {key for key in cases if any(m.startswith(key) for m in rep.messages)}
        assert rep.valid is False and found == {expected}, (expected, rep.messages)


def _validate_per_term(target, dec):
    """The validator's checks one term at a time, with one kron per term:
    (valid, messages, reconstruction error, normalization error)."""
    unit, k, tn = unit_scale(target.matrix)
    tn = tn or 1.0
    dec = dec.scaled(-k)
    messages, norm_err = [], 0.0
    if isinstance(dec, SignedDecomposition):
        for t, rho, sig in dec.terms:
            for fac in (rho, sig):
                w = np.linalg.eigvalsh((fac + fac.conj().T) / 2)
                if w.min(initial=0.0) < -EPS_PSD:
                    messages.append("factor not PSD")
                norm_err = max(norm_err, abs(float(np.trace(fac).real) - 1.0))
            if abs(t) == 0.0:
                messages.append("zero weight term")
        if norm_err > 1e-8:
            messages.append(f"factor trace off by {norm_err:.3e}")
        tr_err = abs(sum(t for t, _, _ in dec.terms) - np.trace(unit).real)
        if not tr_err <= VALIDATE_TOL * tn:
            messages.append(f"weights sum to trace off by {tr_err:.3e}")
    else:
        for r, x, y in dec.terms:
            norm_err = max(norm_err, abs(trace_norm(x) * trace_norm(y) - 1.0))
            if r < -1e-12:
                messages.append(f"negative weight {r}")
        if norm_err > 1e-9:
            messages.append(f"factor normalization off by {norm_err:.3e}")
    acc = np.zeros_like(unit)
    for w, x, y in dec.terms:
        acc += w * np.kron(x, y)
    recon_err = trace_norm(unit - acc) / tn
    if not recon_err <= VALIDATE_TOL:
        messages.append(f"reconstruction error {recon_err:.3e} above tolerance")
    return not messages, messages, recon_err, norm_err


def test_validate_matches_the_per_term_reference():
    """The stacked checks give the per-term loop's verdicts and messages, in
    term order, on valid certificates and on mutations of them, several at once."""
    cases = []
    for op in (random_density(BipartiteShape(2, 2), 1), random_density(BipartiteShape(2, 3), 5),
               BipartiteOperator(BipartiteShape(2, 2), 3e-200 * random_density(BipartiteShape(2, 2), 1).matrix)):
        signed, standard = hermitian_upper(op)[1], upper_bound_spectral(op)[1]
        t, rho, sig = zip(*signed.terms)
        bad = [(0.0 if i == 2 else t[i], rho[i] - np.eye(op.shape.dh) if i in (1, 3) else rho[i],
                -sig[i] if i in (3, 4) else sig[i]) for i in range(len(t))]
        r, x, y = zip(*standard.terms)
        neg = [(-r[i] if i in (0, 2) else r[i], 1.5 * x[i] if i == 1 else x[i], y[i])
               for i in range(len(r))]
        cases += [(op, signed), (op, standard), (op, SignedDecomposition(bad, op.shape)),
                  (op, StandardDecomposition(neg, op.shape)),
                  (op, SignedDecomposition([], op.shape)), (op, StandardDecomposition([], op.shape))]
    big = random_density(BipartiteShape(5, 5), 7)
    nb = pi_bounds(big, SeeSawConfig(seed=1), include_robustness=False)
    cases += [(big, nb.certificates[name]) for name in ("pi_upper", "h_upper")]
    for op, dec in cases:
        rep = validate_decomposition(op, dec)
        valid, messages, recon_err, norm_err = _validate_per_term(op, dec)
        assert (rep.valid, rep.messages) == (valid, messages)
        assert rep.normalization_error == norm_err
        assert abs(rep.reconstruction_error - recon_err) <= 1e-13 * max(1.0, recon_err)
        acc = sum((w * np.kron(x, y) for w, x, y in dec.terms), np.zeros_like(op.matrix))
        np.testing.assert_allclose(dec.reconstruct(), acc, rtol=0, atol=1e-13 * max(1.0, np.abs(acc).max()))


def test_validate_positive_decomposition_tags_optimal():
    op, mixture = random_separable(BipartiteShape(2, 3), 4, seed=73)
    rep = validate_decomposition(op, mixture)
    assert rep.valid and rep.positive and rep.optimal
    assert rep.weight == pytest.approx(1.0, abs=1e-9)


def test_validate_never_raises_on_junk():
    rep = validate_decomposition(max_entangled(2), object())
    assert not rep.valid


def test_signed_decomposition_with_negative_terms_certifies_h_upper():
    _, dec = hermitian_upper(max_entangled(2))
    assert isinstance(dec, StandardDecomposition) and not dec.is_positive
    rep = validate_decomposition(max_entangled(2), dec)
    assert rep.valid and rep.kind == "signed" and rep.certifies_h_upper
    assert rep.weight == pytest.approx(3.0, abs=1e-9)


def test_decomposition_wire_format():
    x = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    y = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    shape = BipartiteShape(2, 2)
    std = StandardDecomposition([(0.5, x, y), (0.25, y, x)], shape).to_dict()
    assert std["kind"] == "standard" and std["shape"] == {"dh": 2, "dj": 2}
    assert [set(t) for t in std["terms"]] == [{"r", "x", "y"}] * 2
    assert std["terms"][0]["r"] == 0.5 and std["weight"] == 0.75 and "alpha" not in std
    signed = SignedDecomposition([(1.5, x, y), (-0.5, y, x)], shape).to_dict()
    assert signed["kind"] == "signed"
    assert [set(t) for t in signed["terms"]] == [{"t", "rho", "sigma"}] * 2
    assert [t["t"] for t in signed["terms"]] == [1.5, -0.5]
    assert signed["weight"] == 2.0 and signed["alpha"] == 1.5
    assert set(signed) == {"kind", "shape", "terms", "weight", "alpha"}


def test_one_eigendecomposition_per_analysis(monkeypatch):
    """The PSD flag, the witness start and the spectral-Schmidt expansion
    share one eigh_blocks call, and no is_psd runs."""
    from crossnorm import bounds, core

    eighs, psds, seesaws = [], [], []
    eigh, is_psd, seesaw = bounds.eigh_blocks, core.BipartiteOperator.is_psd, bounds._witness_seesaw
    monkeypatch.setattr(bounds, "eigh_blocks", lambda *a, **k: eighs.append(1) or eigh(*a, **k))
    monkeypatch.setattr(core.BipartiteOperator, "is_psd",
                        lambda *a, **k: psds.append(1) or is_psd(*a, **k))
    monkeypatch.setattr(bounds, "_witness_seesaw", lambda *a: seesaws.append(1) or seesaw(*a))
    rng = np.random.default_rng(3)
    u = [np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
         for _ in range(2)]
    local = np.kron(*u)
    op = random_density(BipartiteShape(2, 2), 3)  # realignment 1.39: the witness search runs
    op = BipartiteOperator(op.shape, local @ op.matrix @ local.conj().T)
    classify(op, SeeSawConfig(seed=1, restarts=4, max_iters=40))
    assert (len(eighs), len(psds), len(seesaws)) == (1, 0, 1)
    eighs.clear()
    pi_bounds(isotropic(0.6, 2), CFG, include_robustness=True)
    assert (len(eighs), len(psds)) == (1, 0)
