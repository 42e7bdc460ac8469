"""Property tests of the projective-norm bracket on seeded small densities."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

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


@PROPERTY
@given(WITNESS_SHAPES, KINDS, SEEDS)
@example((3, 4), "non-hermitian", 1)
@example((3, 3), "psd", 2)
def test_realignment_dominates_the_witness_seesaw(shape, kind, seed):
    """|<c|D|c>| / a_1(c)^2 <= ||R(D)||_1 for every D (Hoelder: R(|c><c|)
    has operator norm a_1(c)^2), so the see-saw never beats realignment."""
    from crossnorm.bounds import _witness_seesaw, lower_bound_realignment

    bshape = BipartiteShape(*shape)
    if kind == "psd":
        mat = random_density(bshape, seed).matrix
    else:
        rng = np.random.default_rng(seed)
        n = bshape.total
        mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mat = (mat + mat.conj().T) / 2 if kind == "indefinite" else mat
        mat = mat / np.linalg.norm(mat)
    op = BipartiteOperator(bshape, mat)
    q, _ = _witness_seesaw(mat, bshape, SeeSawConfig(seed=seed % 1000, restarts=8),
                           use_abs=kind != "psd")
    assert q <= lower_bound_realignment(op) * (1.0 + 1e-12)
