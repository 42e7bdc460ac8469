"""Property tests of the projective-norm bracket on seeded small densities."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from crossnorm import (  # noqa: E402
    BipartiteOperator,
    BipartiteShape,
    SeeSawConfig,
    pi_bounds,
    random_density,
    validate_decomposition,
)

CFG = SeeSawConfig(seed=17)
SHAPES = st.sampled_from([(2, 2), (2, 3), (3, 3)])
SCALES = st.integers(-200, 200)  # the operator is scaled by 10^k
SEEDS = st.integers(0, 2**31 - 1)
PROPERTY = settings(max_examples=6, deadline=None, derandomize=True, database=None)


def _density(shape, seed):
    return random_density(BipartiteShape(*shape), seed)


def _unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _bounds(op):
    return pi_bounds(op, CFG, include_robustness=False)


@PROPERTY
@given(SHAPES, SEEDS, SEEDS)
def test_pi_lower_is_local_unitary_invariant(shape, seed, frame):
    op = _density(shape, seed)
    rng = np.random.default_rng(frame)
    u = np.kron(_unitary(shape[0], rng), _unitary(shape[1], rng))
    moved = BipartiteOperator(op.shape, u @ op.matrix @ u.conj().T)
    assert _bounds(moved).pi_lower == pytest.approx(_bounds(op).pi_lower, rel=1e-9)


@PROPERTY
@given(SHAPES, SEEDS, SCALES)
@example((2, 2), 1, 200)
@example((3, 3), 1, -200)
@example((2, 2), 1, 308)
@example((2, 3), 1, -310)
def test_pi_lower_scales_with_the_operator(shape, seed, k):
    op = _density(shape, seed)
    scaled = BipartiteOperator(op.shape, 10.0**k * op.matrix)
    assert _bounds(scaled).pi_lower == pytest.approx(10.0**k * _bounds(op).pi_lower, rel=1e-9)


@PROPERTY
@given(SHAPES, SEEDS, SCALES)
@example((3, 3), 1, 200)
@example((2, 2), 1, -200)
@example((3, 3), 1, 308)
@example((2, 3), 1, -310)
def test_pi_bracket_is_not_inverted(shape, seed, k):
    op = BipartiteOperator(BipartiteShape(*shape), 10.0**k * _density(shape, seed).matrix)
    nb = _bounds(op)
    assert nb.pi_lower <= nb.pi_upper
    assert nb.h_lower <= nb.h_upper
    # upper bounds need not scale exactly (see the spectral-Schmidt basis
    # choice), but each must rest on a certificate that validates
    for name in ("pi_upper", "h_upper"):
        assert validate_decomposition(op, nb.certificates[name]).valid


KINDS = st.sampled_from(["psd", "indefinite", "non-hermitian"])
WITNESS_SHAPES = st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (3, 4)])
VECTORS = st.lists(st.floats(-1.0, 1.0), min_size=24, max_size=24)  # re, im of 12 entries


@PROPERTY
@given(WITNESS_SHAPES, KINDS, SEEDS, VECTORS)
@example((3, 4), "non-hermitian", 1, [1.0] * 24)
@example((3, 3), "psd", 2, [1.0] * 24)
def test_realignment_dominates_the_witness_seesaw(shape, kind, seed, parts):
    """|<c|D|c>| / a_1(c)^2 <= ||R(D)||_1 for every D (Hoelder: R(|c><c|)
    has operator norm a_1(c)^2), so the see-saw never beats realignment.
    A drawn c checks every kind of D; the see-saw runs on densities, the
    only input that reaches it, stopped at its realignment ceiling and not."""
    from crossnorm.bounds import _Analysis, _witness_seesaw, lower_bound_realignment

    bshape = BipartiteShape(*shape)
    n = bshape.total
    if kind == "psd":
        mat = random_density(bshape, seed).matrix
    else:
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mat = (mat + mat.conj().T) / 2 if kind == "indefinite" else mat
        mat = mat / np.linalg.norm(mat)
    bound = lower_bound_realignment(BipartiteOperator(bshape, mat)) * (1.0 + 1e-12)
    c = np.array(parts[:n]) + 1j * np.array(parts[12:12 + n])
    assume(np.abs(c).max() > 0.0)
    c = c / np.abs(c).max()  # a_1(c) >= 1: no quotient underflows
    a1 = np.linalg.svd(c.reshape(shape), compute_uv=False)[0]
    assert abs(np.vdot(c, mat @ c)) / a1**2 <= bound
    if kind == "psd":
        cfg = SeeSawConfig(seed=seed % 1000, restarts=8)
        an = _Analysis(BipartiteOperator(bshape, mat), cfg)  # a density: k = 0, unit D is D
        q, _ = an.witness
        full, _ = _witness_seesaw(an.unit.matrix, bshape, cfg, np.inf, an.eig[1][:, 0])
        assert q <= bound and full <= bound
        assert q >= full - cfg.tol * max(abs(full), 1.0)


def _support_shape(mat):
    nz = np.asarray(mat) != 0
    return int(nz.any(axis=1).sum()), int(nz.any(axis=0).sum())


@PROPERTY
@given(SHAPES, SEEDS, SCALES)
@example((3, 3), 1, 0)
@example((2, 3), 2, -200)
def test_the_analysis_svds_run_on_the_support(shape, seed, k):
    """An operator drawn among zero rows and columns: ``unit_scale``'s trace
    norm and ``realignment_lower`` equal the dense SVD's to 1e-13 relative,
    and each SVD sees only the nonzero rows and columns."""
    from crossnorm import bounds, core

    bshape, n = BipartiteShape(*shape), shape[0] * shape[1]
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mat[rng.random(n) < 0.5] = 0.0
    mat[:, rng.random(n) < 0.5] = 0.0
    mat *= 10.0**k
    seen, dense = [], core.nuclear_norm

    def recording(m):
        seen.append(np.shape(m))
        return dense(m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "nuclear_norm", recording)
        mp.setattr(bounds, "nuclear_norm", recording)
        an = bounds._Analysis(BipartiteOperator(bshape, mat))
        realigned = core.realign(an.unit)
        low = an.realignment_lower
    svd_sum = [np.linalg.svd(m, compute_uv=False).sum() for m in (an.unit.matrix, realigned)]
    assert abs(an.trace_norm - svd_sum[0]) <= 1e-13 * svd_sum[0]
    assert abs(low - svd_sum[1]) <= 1e-13 * svd_sum[1]
    support = [_support_shape(mat), _support_shape(realigned)]
    assert seen == (support if mat.any() else support[1:])


def test_the_analysis_svds_of_the_zero_operator():
    from crossnorm.bounds import _Analysis
    from crossnorm.core import unit_scale

    zero = np.zeros((6, 6), dtype=complex)
    assert unit_scale(zero)[1:] == (0, 0.0)
    assert _Analysis(BipartiteOperator(BipartiteShape(2, 3), zero)).realignment_lower == 0.0
