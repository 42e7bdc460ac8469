"""Projective / Hermitian norm bounds, decompositions, validators."""

import numpy as np
import pytest

from crossnorm import (
    BipartiteOperator,
    BipartiteShape,
    BipartiteVector,
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
    trace_norm,
    upper_bound_realignment,
    upper_bound_spectral,
    validate_decomposition,
    witness_value,
)
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


def test_witness_rejects_non_psd():
    m = np.diag([1.0, -0.5, 0.25, 0.25]).astype(complex)
    with pytest.raises(ValueError):
        lower_bound_witness(BipartiteOperator(BipartiteShape(2, 2), m), CFG)


def test_witness_seesaw_closed_forms():
    from crossnorm.bounds import _witness_seesaw

    for d in (2, 3, 4):
        op = max_entangled(d)
        q, _ = _witness_seesaw(op.matrix, op.shape, SeeSawConfig(seed=d), use_abs=False)
        assert abs(q - d) <= 1e-12 * d
    coeffs = [0.8, 0.5, np.sqrt(0.11)]
    op = pure_with_schmidt(coeffs).projector()
    q, c = _witness_seesaw(op.matrix, op.shape, SeeSawConfig(seed=1), use_abs=False)
    assert abs(q - sum(coeffs) ** 2) <= 1e-12 * sum(coeffs) ** 2
    assert witness_value(op, BipartiteVector(op.shape, c)) == pytest.approx(q, rel=1e-12)


def _reference_seesaw(mat, shape, config, use_abs):
    """An independent oracle: power steps plus the best rebalancing of the
    Schmidt coefficients at fixed Schmidt bases, one restart and one
    candidate at a time, with np.kron, on mat / 2^k with 2^k the power of
    two nearest to the sum of |eigenvalues|."""
    rng = np.random.default_rng(config.seed)
    n = shape.total
    w, u = np.linalg.eigh(mat)
    scale = 2.0 ** round(np.log2(np.abs(w).sum()))
    mat = mat / scale
    starts = [u[:, np.argsort(-np.abs(w) if use_abs else -w)[0]]]
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
            sources = [np.ones(sf.rank), uv[:, -1]] + ([uv[:, 0]] if use_abs else [])
            cands = [sf.coefficients.astype(complex)]
            for vec in sources:
                ph = np.where(np.abs(vec) > 1e-12, vec / np.maximum(np.abs(vec), 1e-300), 1)
                cands += [np.where(np.arange(sf.rank) < k, ph, 0) for k in range(1, sf.rank + 1)]
            vals = [(abs(y.conj() @ m @ y) if use_abs else (y.conj() @ m @ y).real)
                    / np.abs(y).max() ** 2 for y in cands]
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


def _reference_polar(mat, shape, config, use_abs):
    """The polar ascent one restart at a time, with the kernel's starts and
    stop rule: c becomes the polar factor U V^dag of the reshape of D c (of
    the shifted, phase-aligned Hermitian part of D with ``use_abs``)."""
    from crossnorm.bounds import _STALL_STEPS

    rng = np.random.default_rng(config.seed)
    n = shape.total
    w, u = np.linalg.eigh(mat)
    scale = 2.0 ** round(np.log2(np.abs(w).sum()))
    mat = mat / scale
    shift = np.linalg.svd(mat, compute_uv=False)[0]
    starts = [u[:, np.argsort(-np.abs(w) if use_abs else -w)[0]]]
    for _ in range(config.restarts - 1):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        starts.append(z / np.linalg.norm(z))
    best_q = -np.inf
    for c in starts:
        prev, stall = -np.inf, 0
        for _ in range(config.max_iters):
            g = mat @ c
            if use_abs:
                ph = np.exp(-1j * np.angle(np.vdot(c, g)))
                g = (ph * g + np.conj(ph) * (mat.conj().T @ c)) / 2 + shift * c
            uu, _, vh = np.linalg.svd(g.reshape(shape.dh, shape.dj), full_matrices=False)
            c = (uu @ vh).reshape(-1)
            val = np.vdot(c, mat @ c)
            q = abs(val) if use_abs else val.real
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
        for use_abs in (False, True):
            q, _ = _witness_seesaw(op.matrix, op.shape, cfg, use_abs)
            # the same steps, summed in another order: agreement to rounding
            ref = _reference_polar(op.matrix, op.shape, cfg, use_abs)
            assert q == pytest.approx(ref, rel=1e-12)


def test_witness_seesaw_reaches_the_schmidt_rebalancing_search():
    from crossnorm.bounds import _witness_seesaw

    cfg = SeeSawConfig(seed=5)
    for op in _seesaw_test_operators():
        for use_abs in (False, True):
            q, _ = _witness_seesaw(op.matrix, op.shape, cfg, use_abs)
            ref = _reference_seesaw(op.matrix, op.shape, cfg, use_abs)
            # the ascent is monotone only where the objective is convex
            rel = 1e-12 if op.is_psd() and not use_abs else 1e-9
            assert q >= ref - rel * abs(ref)


def test_witness_seesaw_modulus_on_non_hermitian_input():
    from crossnorm.bounds import _witness_seesaw

    shape = BipartiteShape(3, 3)
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        op = BipartiteOperator(shape, rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
        cfg = SeeSawConfig(seed=seed)
        q, c = _witness_seesaw(op.matrix, shape, cfg, use_abs=True)
        assert q >= _reference_seesaw(op.matrix, shape, cfg, use_abs=True)
        a1 = np.linalg.svd(c.reshape(3, 3), compute_uv=False)[0]
        assert q == pytest.approx(abs(np.vdot(c, op.matrix @ c)) / a1**2, rel=1e-12)


def test_witness_seesaw_returns_a_co_isometry():
    from crossnorm.bounds import _witness_seesaw

    cfg = SeeSawConfig(seed=4, restarts=4, max_iters=40)
    for op in _seesaw_test_operators():
        for use_abs in (False, True):
            _, c = _witness_seesaw(op.matrix, op.shape, cfg, use_abs)
            s = np.linalg.svd(c.reshape(op.shape.dh, op.shape.dj), compute_uv=False)
            assert np.allclose(s, 1.0, rtol=0, atol=1e-12)


def test_witness_seesaw_is_deterministic():
    from crossnorm.bounds import _witness_seesaw

    op = random_density(BipartiteShape(3, 3), 12)
    cfg = SeeSawConfig(seed=9)
    for use_abs in (False, True):
        q1, c1 = _witness_seesaw(op.matrix, op.shape, cfg, use_abs)
        q2, c2 = _witness_seesaw(op.matrix, op.shape, cfg, use_abs)
        assert q1 == q2 and np.array_equal(c1, c2)


def test_witness_seesaw_with_mixed_schmidt_ranks_in_one_step():
    from crossnorm import bounds

    # a rank-two density: the warm start has Schmidt rank 2, random starts rank 3
    shape = BipartiteShape(3, 3)
    e = np.eye(3)
    v = 0.8 * np.kron(e[0], e[0]) + 0.6 * np.kron(e[1], e[1])
    w = np.kron(e[2], e[2])
    op = BipartiteOperator(shape, 0.7 * np.outer(v, v) + 0.3 * np.outer(w, w))
    q, c = bounds._witness_seesaw(op.matrix, shape, SeeSawConfig(seed=2), use_abs=False)
    assert witness_value(op, BipartiteVector(shape, c)) == pytest.approx(q, rel=1e-12)
    # c = I: 0.7 (0.8 + 0.6)^2 + 0.3
    assert q == pytest.approx(1.672, rel=1e-12)


def test_witness_seesaw_more_restarts_never_lower():
    from crossnorm.bounds import _witness_seesaw

    v = pure_with_schmidt([0.8, 0.5, np.sqrt(0.11)])  # the warm start is v itself
    q, _ = _witness_seesaw(v.projector().matrix, v.shape, SeeSawConfig(seed=3, restarts=1), False)
    assert q == pytest.approx(pure_pi_norm(v), rel=1e-12)
    op = random_density(BipartiteShape(2, 3), 21)
    qs = [_witness_seesaw(op.matrix, op.shape, SeeSawConfig(seed=3, restarts=k), False)[0]
          for k in (1, 2, 5, 16, 32)]
    assert qs == sorted(qs)


# ---------------------------------------------------------------------------
# product-state ascent


def _reference_product_ascent(mat, shape, rng, n_starts=5, iters=40, extra_starts=()):
    """The product ascent one matrix and one start at a time."""
    dh, dj = shape.dh, shape.dj
    t = mat.reshape(dh, dj, dh, dj)
    _, u = np.linalg.eigh((mat + mat.conj().T) / 2)
    lead = schmidt_decompose(BipartiteVector(shape, u[:, -1]))
    starts = [(lead.left_vectors[0], lead.right_vectors[0])]
    starts.extend(extra_starts)
    for _ in range(n_starts - 1):
        zp = rng.standard_normal(dh) + 1j * rng.standard_normal(dh)
        zq = rng.standard_normal(dj) + 1j * rng.standard_normal(dj)
        starts.append((zp / np.linalg.norm(zp), zq / np.linalg.norm(zq)))
    best = (-np.inf, None, None)
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
        if val > best[0]:
            best = (val, phi, psi)
    return best


def _hermitian(shape, seed):
    rng = np.random.default_rng(seed)
    n = shape.total
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def _assert_same_result(got, ref):
    assert got[0] == ref[0]
    assert np.array_equal(got[1], ref[1]) and np.array_equal(got[2], ref[2])


@pytest.mark.parametrize("dh,dj", [(2, 2), (2, 3), (3, 3)])
def test_product_ascent_matches_the_loop_reference(dh, dj):
    from crossnorm.bounds import _max_product_expectation

    shape = BipartiteShape(dh, dj)
    for seed in (1, 2, 3):
        mat = _hermitian(shape, seed)
        extra = (random_pure(BipartiteShape(1, dh), seed).entries,
                 random_pure(BipartiteShape(1, dj), seed + 9).entries)
        for extra_starts in ((), (extra,)):
            ref = _reference_product_ascent(mat, shape, np.random.default_rng(seed),
                                            extra_starts=extra_starts)
            [got] = _max_product_expectation([mat], shape, np.random.default_rng(seed),
                                             extra_starts=[extra_starts])
            _assert_same_result(got, ref)


def test_product_ascent_batch_equals_sequential_calls():
    from crossnorm.bounds import _max_product_expectation

    shape = BipartiteShape(2, 3)
    mats = [_hermitian(shape, s) for s in (4, 5, 6)]
    seq_rng, batch_rng = np.random.default_rng(8), np.random.default_rng(8)
    seq = [_max_product_expectation([m], shape, seq_rng, n_starts=3)[0] for m in mats]
    batch = _max_product_expectation(mats, shape, batch_rng, n_starts=3)
    for got, ref in zip(batch, seq, strict=True):
        _assert_same_result(got, ref)
    assert batch_rng.bit_generator.state == seq_rng.bit_generator.state


def test_product_ascent_single_start_and_single_step():
    from crossnorm.bounds import _max_product_expectation

    shape = BipartiteShape(3, 2)
    mats = [_hermitian(shape, 10), _hermitian(shape, 11)]
    for kwargs in ({"n_starts": 1}, {"iters": 1}, {"n_starts": 1, "iters": 1}):
        got = _max_product_expectation(mats, shape, np.random.default_rng(2), **kwargs)
        rng = np.random.default_rng(2)
        for g, m in zip(got, mats, strict=True):
            _assert_same_result(g, _reference_product_ascent(m, shape, rng, **kwargs))
            val, phi, psi = g
            prod = np.kron(phi, psi)
            assert val == pytest.approx((prod.conj() @ m @ prod).real, abs=1e-12)


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


def test_separable_mixture_certifies_unit_h_norm():
    op, mixture = random_separable(BipartiteShape(2, 2), 4, seed=31)
    rep = validate_decomposition(op, mixture)
    assert rep.valid and rep.certifies_h_upper and rep.positive and rep.optimal
    assert rep.weight == pytest.approx(1.0, abs=1e-10)
    nb = pi_bounds(op, CFG, include_robustness=False, extra_decompositions=(mixture,))
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

    def recorded(a_mat, d):
        rows.append((a_mat.shape[0], d.size))
        return nnls(a_mat, d)

    monkeypatch.setattr(bounds, "nnls", recorded)
    op, _ = random_separable(BipartiteShape(2, 3), 5, seed=11)
    dec, rounds = bounds.separable_fit(op, SeeSawConfig(seed=1))
    assert dec is not None and validate_decomposition(op, dec).valid
    assert len(rows) == rounds and set(rows) == {(36, 36)}


def test_separable_fit_refuses_an_anti_hermitian_part():
    """The n^2 Hermitian columns cannot see 1e-3 (U - U^T), U the strictly
    upper ones; the reconstruction check before the exit does."""
    from crossnorm.bounds import separable_fit

    op, _ = random_separable(BipartiteShape(2, 2), 5, seed=11)
    upper = np.triu(np.ones((4, 4)), 1)
    skewed = BipartiteOperator(op.shape, op.matrix + 1e-3 * (upper - upper.T))
    dec, _ = separable_fit(skewed, SeeSawConfig(seed=1))
    assert dec is None


# ---------------------------------------------------------------------------
# robustness search


def test_robustness_product_mixture():
    op, _ = random_separable(BipartiteShape(2, 2), 5, seed=37)
    res = robustness_upper(op, CFG)
    assert res.success
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.alpha == pytest.approx(1.0, abs=1e-9)
    assert res.d2 is None
    rep = validate_decomposition(op, res.decomposition)
    assert rep.valid and rep.positive


def test_robustness_bell():
    res = robustness_upper(max_entangled(2), CFG)
    assert res.success
    assert 2.0 - 1e-9 <= res.value <= 3.0 + 1e-9
    rep = validate_decomposition(max_entangled(2), res.decomposition)
    assert rep.valid
    # both sides of the affine combination are explicit product mixtures
    assert res.d1 is not None and res.d1.is_positive
    assert res.d2 is not None and res.d2.is_positive
    # hermitian weight bookkeeping: sum |t| = 2 alpha - 1 at unit trace
    dec = res.decomposition
    assert dec.weight == pytest.approx(2.0 * dec.alpha - 1.0, abs=1e-8)
    assert dec.weight == pytest.approx(res.value, abs=1e-12)


def _record_ascent_calls(monkeypatch, kernel="_max_product_expectation"):
    """Route the product ascent ``bounds.<kernel>`` through a recorder of
    (number of matrices, n_starts) per call."""
    from crossnorm import bounds

    calls = []
    ascent = getattr(bounds, kernel)

    def recorded(mats, *args, **kwargs):
        calls.append((len(mats), kwargs.get("n_starts", 5)))
        return ascent(mats, *args, **kwargs)

    monkeypatch.setattr(bounds, kernel, recorded)
    return calls


def test_one_product_ascent_per_refinement_pass(monkeypatch):
    from crossnorm.bounds import separable_fit

    calls = _record_ascent_calls(monkeypatch)
    op, _ = random_separable(BipartiteShape(2, 3), 5, seed=11)
    dec, rounds = separable_fit(op, SeeSawConfig(seed=1))
    assert dec is not None
    pricing = [i for i, (_, n_starts) in enumerate(calls) if n_starts == 5]
    passes = [i for i, (_, n_starts) in enumerate(calls) if n_starts == 2]
    assert len(pricing) == rounds - 1 and all(calls[i][0] == 1 for i in pricing)
    assert passes and all(calls[i][0] > 1 for i in passes)
    # a refinement pass follows the pricing of every third round, once
    assert all(i >= 1 and calls[i - 1][1] == 5 and pricing.index(i - 1) % 3 == 2 for i in passes)


def test_phase_two_prices_once_per_round_and_builds_each_column_once(monkeypatch):
    from crossnorm import bounds

    calls = _record_ascent_calls(monkeypatch, "_product_ascent")
    fit, column = bounds.separable_fit, bounds._column
    phase_two, columns = [], []

    def fit_then_mark(*args, **kwargs):
        out = fit(*args, **kwargs)
        phase_two.append(len(calls))  # the ascent calls phase 1 made
        return out

    def counted_column(atom):
        columns.append(atom)
        return column(atom)

    monkeypatch.setattr(bounds, "separable_fit", fit_then_mark)
    monkeypatch.setattr(bounds, "_column", counted_column)
    res = bounds.robustness_upper(random_density(BipartiteShape(2, 2), 7), CFG, max_rounds=8)
    assert res.rounds_used >= 3
    rounds = calls[phase_two[0]:]
    assert rounds == [(2, 4)] * len(rounds)  # [ymat, -ymat] together, four starts each
    assert res.rounds_used - 1 <= len(rounds) <= res.rounds_used
    assert len({id(a) for a in columns}) == len(columns)  # no atom's column is rebuilt


def test_unsuccessful_robustness_result_has_no_value():
    res = RobustnessResult(None, 7, "no certificate")
    assert not res.success
    assert np.isnan(res.value) and np.isnan(res.alpha)
    assert res.d1 is None and res.d2 is None


def _record_lp_and_columns(monkeypatch):
    """Record phase 2's LP calls, as ("lp", A_eq shape), and its column
    builds, as ("col", None), in call order."""
    from crossnorm import bounds

    events = []
    linprog, column = bounds.linprog, bounds._column

    def recorded_linprog(*args, **kwargs):
        events.append(("lp", kwargs["A_eq"].shape))
        return linprog(*args, **kwargs)

    def recorded_column(atom):
        events.append(("col", None))
        return column(atom)

    monkeypatch.setattr(bounds, "linprog", recorded_linprog)
    monkeypatch.setattr(bounds, "_column", recorded_column)
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


def test_phase_two_enters_several_columns_in_a_round(monkeypatch):
    events = _record_lp_and_columns(monkeypatch)
    robustness_upper(random_density(BipartiteShape(2, 2), 7), CFG)
    lps = [i for i, (kind, _) in enumerate(events) if kind == "lp"]
    entered = [b - a - 1 for a, b in zip(lps, lps[1:])]  # columns built between two LPs
    assert entered and max(entered) > 1


def test_phase_two_says_why_it_stopped():
    op = random_density(BipartiteShape(2, 2), 1)
    res = robustness_upper(op, SeeSawConfig(seed=7))
    assert res.success and res.message.startswith("signed decomposition found; converged")
    gain = float(res.message.split("pricing gain ")[1].split()[0])
    assert gain <= 1.0 + 1e-7
    res = robustness_upper(op, SeeSawConfig(seed=7), max_rounds=3)
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


def test_witness_bracket_of_bell_at_1e200():
    """The see-saw's vector norm overflowed here, and pi_bounds raised."""
    op = BipartiteOperator(BipartiteShape(2, 2), max_entangled(2).matrix * 1e200)
    nb = pi_bounds(op, CFG)
    assert nb.pi_lower == pytest.approx(2e200, rel=1e-9)
    assert nb.pi_upper == pytest.approx(2e200, rel=1e-9)
    assert nb.methods["pi_lower"] == "witness"
    assert validate_decomposition(op, nb.certificates["pi_upper"]).valid


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


@pytest.mark.parametrize("scale", [1e-6, 1e-9, 1e-12])
def test_small_negative_operator_is_not_taken_for_psd(monkeypatch, scale):
    from crossnorm import bounds

    op = isotropic(0.5, 3)
    neg = BipartiteOperator(op.shape, -op.matrix * scale)
    assert not neg.is_psd()
    calls = []
    monkeypatch.setattr(bounds, "robustness_upper", lambda *a, **k: calls.append(a))
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
    assert len(calls) == 3  # one per grid point

    cfg = SeeSawConfig(seed=3, restarts=4, max_iters=40)
    op, _ = random_separable(BipartiteShape(3, 3), 4, seed=11)
    calls.clear()
    cls = classify(op, cfg, max_rounds=1)
    assert cls.verdict == "Undecided"
    assert len(calls) == 1

    calls.clear()
    nb = pi_bounds(op, cfg, include_robustness=False)
    pi_bounds(op, cfg, include_robustness=False)
    assert len(calls) == 2  # nothing is cached across calls

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


def test_pi_bounds_user_decomposition_tightens():
    op, mixture = random_separable(BipartiteShape(2, 2), 3, seed=53)
    loose = pi_bounds(op, CFG, include_robustness=False)
    tight = pi_bounds(op, CFG, include_robustness=False, extra_decompositions=(mixture,))
    assert tight.pi_upper <= loose.pi_upper + 1e-12
    assert tight.pi_upper == pytest.approx(1.0, abs=1e-9)


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
