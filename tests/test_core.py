"""Bipartite linear-algebra layer: shapes, factorizations, tensor bookkeeping."""

import numpy as np
import pytest

from crossnorm import (
    BipartiteOperator,
    BipartiteShape,
    BipartiteVector,
    ShapeError,
    from_state_dict,
    kron,
    operator_norm,
    operator_schmidt,
    partial_trace,
    random_density,
    random_pure,
    realign,
    schmidt_decompose,
    to_state_dict,
    trace_norm,
)
from crossnorm.core import scaled_outward, unit_scale


def basis_vec(d, i):
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def bell_vector():
    m = np.eye(2, dtype=complex) / np.sqrt(2)
    return BipartiteVector(BipartiteShape(2, 2), m.reshape(-1))


def realign_by_definition(op):
    """Independent elementwise realignment: row (i*dh+j), column (k*dj+l)."""
    dh, dj = op.shape.dh, op.shape.dj
    out = np.zeros((dh * dh, dj * dj), dtype=complex)
    for i in range(dh):
        for j in range(dh):
            for k in range(dj):
                for l in range(dj):
                    out[i * dh + j, k * dj + l] = op.matrix[i * dj + k, j * dj + l]
    return out


# ---------------------------------------------------------------------------
# kron


def test_kron_identity():
    out = kron(np.eye(2), np.eye(2))
    assert np.allclose(out.matrix, np.eye(4))
    assert out.shape == BipartiteShape(2, 2)


def test_kron_trace_norm_multiplicative():
    out = kron(np.diag([1.0, -1.0]), np.diag([2.0, 0.0]))
    assert trace_norm(out.matrix) == pytest.approx(4.0, abs=1e-12)


def test_kron_basis_bookkeeping():
    a = np.outer(basis_vec(2, 0), basis_vec(2, 1))  # |e1><e2|
    b = np.outer(basis_vec(2, 0), basis_vec(2, 1))  # |f1><f2|
    out = kron(a, b).matrix
    expected = np.zeros((4, 4))
    expected[0 * 2 + 0, 1 * 2 + 1] = 1.0  # row (e1,f1), column (e2,f2)
    assert np.array_equal(out, expected)


def test_kron_acts_on_product_vectors():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    lhs = kron(a, b).matrix @ np.kron(phi, psi)
    assert np.allclose(lhs, np.kron(a @ phi, b @ psi))


def test_kron_cross_norm_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        da, db = rng.integers(2, 7), rng.integers(2, 7)
        a = rng.standard_normal((da, da)) + 1j * rng.standard_normal((da, da))
        b = rng.standard_normal((db, db)) + 1j * rng.standard_normal((db, db))
        lhs = trace_norm(kron(a, b).matrix)
        rhs = trace_norm(a) * trace_norm(b)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + lhs + rhs)


def test_kron_shape_mismatch():
    with pytest.raises(ShapeError):
        kron(np.eye(2), np.eye(2), shape=BipartiteShape(2, 3))


# ---------------------------------------------------------------------------
# partial trace


def test_partial_trace_product():
    rng = np.random.default_rng(5)
    rho = random_density(BipartiteShape(3, 1), rng).matrix
    sig = random_density(BipartiteShape(2, 1), rng).matrix
    op = kron(rho, sig)
    assert np.allclose(partial_trace(op, "j"), rho, atol=1e-12)
    assert np.allclose(partial_trace(op, "h"), sig, atol=1e-12)


def test_partial_trace_maximally_mixed():
    op = BipartiteOperator(BipartiteShape(2, 2), np.eye(4, dtype=complex) / 4)
    assert np.allclose(partial_trace(op, "h"), np.eye(2) / 2)


def test_partial_trace_bell():
    # direct 4x4 oracle: tr_J picks the (i,k),(j,k) diagonal sums
    p = bell_vector().projector()
    expected = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            expected[i, j] = sum(p.matrix[i * 2 + k, j * 2 + k] for k in range(2))
    assert np.allclose(expected, np.eye(2) / 2)
    assert np.allclose(partial_trace(p, "j"), np.eye(2) / 2, atol=1e-12)


def test_partial_traces_of_densities_are_densities():
    rng = np.random.default_rng(17)
    for _ in range(20):
        op = random_density(BipartiteShape(3, 2), rng)
        for side, d in (("j", 3), ("h", 2)):
            red = partial_trace(op, side)
            w = np.linalg.eigvalsh(red)
            assert w.min() >= -1e-9
            assert abs(np.trace(red).real - 1.0) <= 1e-10


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(19)
    op = random_density(BipartiteShape(2, 3), rng)
    assert np.trace(partial_trace(op, "j")) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# norms


def test_trace_norm_trivials():
    assert trace_norm(np.eye(5)) == pytest.approx(5.0, abs=1e-12)
    assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-12)
    assert trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0, abs=1e-12)


def test_trace_norm_vs_trace_psd():
    rng = np.random.default_rng(23)
    for i in range(500):
        d = int(rng.integers(2, 5))
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if i % 3 == 0:
            m = m @ m.conj().T  # PSD: equality case
        tn = trace_norm(m)
        assert abs(np.trace(m)) <= tn + 1e-10
        w = np.linalg.eigvalsh((m + m.conj().T) / 2)
        is_psd = np.allclose(m, m.conj().T, atol=1e-12) and w.min() >= -1e-12
        if is_psd:
            assert abs(abs(np.trace(m)) - tn) <= 1e-10 * (1 + tn)


def test_operator_norm_trivials():
    assert operator_norm(np.eye(7)) == pytest.approx(1.0, abs=1e-12)
    assert operator_norm(np.diag([3.0, -1.0])) == pytest.approx(3.0, abs=1e-12)
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    w = np.array([1.0, 0.0])
    assert operator_norm(np.outer(v, w.conj())) == pytest.approx(1.0, abs=1e-12)


def test_norms_reject_non_square():
    with pytest.raises(ShapeError):
        trace_norm(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        operator_norm(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# Schmidt decomposition


def test_schmidt_product_vector():
    v = BipartiteVector(BipartiteShape(2, 3), np.kron(basis_vec(2, 0), basis_vec(3, 0)))
    sf = schmidt_decompose(v)
    assert sf.rank == 1
    assert sf.coefficients[0] == pytest.approx(1.0, abs=1e-12)


def test_schmidt_bell():
    sf = schmidt_decompose(bell_vector())
    assert np.allclose(sf.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_schmidt_prescribed_coefficients():
    m = np.diag([np.sqrt(0.8), np.sqrt(0.2)]).astype(complex)
    v = BipartiteVector(BipartiteShape(2, 2), m.reshape(-1))
    sf = schmidt_decompose(v)
    assert np.allclose(sf.coefficients, [np.sqrt(0.8), np.sqrt(0.2)], atol=1e-12)


def test_schmidt_reconstruction_and_parseval():
    rng = np.random.default_rng(29)
    for _ in range(40):
        dh, dj = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        v = random_pure(BipartiteShape(dh, dj), rng)
        scale = float(rng.uniform(0.5, 3.0))
        v = BipartiteVector(v.shape, scale * v.entries)
        sf = schmidt_decompose(v)
        assert sf.rank <= min(dh, dj)
        assert abs(float(sf.coefficients @ sf.coefficients) - v.norm() ** 2) <= 1e-10 * v.norm() ** 2
        assert np.linalg.norm(sf.reconstruct().entries - v.entries) <= 1e-10 * v.norm()
        gram_l = sf.left_vectors.conj() @ sf.left_vectors.T
        gram_r = sf.right_vectors.conj() @ sf.right_vectors.T
        assert np.abs(gram_l - np.eye(sf.rank)).max() <= 1e-9
        assert np.abs(gram_r - np.eye(sf.rank)).max() <= 1e-9


def test_schmidt_coefficients_descending():
    rng = np.random.default_rng(31)
    v = random_pure(BipartiteShape(5, 5), rng)
    sf = schmidt_decompose(v)
    assert np.all(np.diff(sf.coefficients) <= 0)


def test_schmidt_zero_vector_rejected():
    with pytest.raises(ValueError):
        schmidt_decompose(BipartiteVector(BipartiteShape(2, 2), np.zeros(4)))


def test_schmidt_phase_convention():
    rng = np.random.default_rng(37)
    v = random_pure(BipartiteShape(3, 4), rng)
    sf = schmidt_decompose(v)
    for phi in sf.left_vectors:
        pivot = phi[int(np.argmax(np.abs(phi)))]
        assert abs(pivot.imag) <= 1e-12
        assert pivot.real > 0


# ---------------------------------------------------------------------------
# realignment


def test_realign_matches_definition():
    rng = np.random.default_rng(41)
    for dh, dj in [(2, 2), (3, 2), (2, 4)]:
        op = random_density(BipartiteShape(dh, dj), rng)
        assert np.allclose(realign(op), realign_by_definition(op), atol=1e-14)


def test_realign_product_rank_one():
    rng = np.random.default_rng(43)
    for _ in range(10):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        s = np.linalg.svd(realign(kron(a, b)), compute_uv=False)
        assert s[1] <= 1e-10 * max(s[0], 1.0)


def test_realign_bell_trace_norm():
    r = realign_by_definition(bell_vector().projector())
    oracle = float(np.linalg.svd(r, compute_uv=False).sum())
    assert oracle == pytest.approx(2.0, abs=1e-12)
    assert float(np.linalg.svd(realign(bell_vector().projector()), compute_uv=False).sum()) == pytest.approx(oracle, abs=1e-12)


def test_realign_maximally_mixed_trace_norm():
    # ||vec(I/2) vec(I/2)^T||_1 = 1/2: single singular value
    op = BipartiteOperator(BipartiteShape(2, 2), np.eye(4, dtype=complex) / 4)
    r = realign_by_definition(op)
    oracle = float(np.linalg.svd(r, compute_uv=False).sum())
    assert oracle == pytest.approx(0.5, abs=1e-12)
    assert float(np.linalg.svd(realign(op), compute_uv=False).sum()) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# operator Schmidt


def test_operator_schmidt_product():
    rng = np.random.default_rng(47)
    rho = random_density(BipartiteShape(2, 1), rng).matrix
    sig = random_density(BipartiteShape(3, 1), rng).matrix
    form = operator_schmidt(kron(rho, sig))
    assert form.rank == 1
    expected = np.linalg.norm(rho) * np.linalg.norm(sig)  # Frobenius product
    assert form.singular_values[0] == pytest.approx(expected, abs=1e-12)


def test_operator_schmidt_bell():
    form = operator_schmidt(bell_vector().projector())
    assert form.rank == 4
    assert np.allclose(form.singular_values, 0.5, atol=1e-12)


def test_operator_schmidt_maximally_mixed():
    op = BipartiteOperator(BipartiteShape(2, 2), np.eye(4, dtype=complex) / 4)
    form = operator_schmidt(op)
    assert form.rank == 1
    assert form.singular_values[0] == pytest.approx(0.5, abs=1e-12)


def test_operator_schmidt_reconstruction_and_hs_orthonormality():
    rng = np.random.default_rng(53)
    for dh, dj in [(2, 2), (3, 2), (2, 3)]:
        op = random_density(BipartiteShape(dh, dj), rng)
        form = operator_schmidt(op)
        err = np.abs(form.reconstruct().matrix - op.matrix).max()
        assert err <= 1e-9
        for ops in (form.left_ops, form.right_ops):
            for i, gi in enumerate(ops):
                for j, gj in enumerate(ops):
                    hs = np.trace(gi.conj().T @ gj)
                    assert abs(hs - (1.0 if i == j else 0.0)) <= 1e-9
        svals = np.linalg.svd(realign(op), compute_uv=False)
        assert np.allclose(form.singular_values, svals[: form.rank], atol=1e-12)


# ---------------------------------------------------------------------------
# random constructions


def test_random_density_contract():
    op = random_density(BipartiteShape(2, 3), seed=7)
    assert abs(op.trace() - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(op.matrix).min() >= -1e-9
    again = random_density(BipartiteShape(2, 3), seed=7)
    assert np.array_equal(op.matrix, again.matrix)


def test_random_pure_contract():
    v = random_pure(BipartiteShape(3, 3), seed=13)
    assert abs(v.norm() - 1.0) <= 1e-10
    again = random_pure(BipartiteShape(3, 3), seed=13)
    assert np.array_equal(v.entries, again.entries)


# ---------------------------------------------------------------------------
# JSON interchange


def test_state_roundtrip():
    rng = np.random.default_rng(67)
    op = random_density(BipartiteShape(2, 3), rng)
    back = from_state_dict(to_state_dict(op))
    assert isinstance(back, BipartiteOperator)
    assert np.array_equal(back.matrix, op.matrix)
    v = random_pure(BipartiteShape(2, 3), rng)
    back = from_state_dict(to_state_dict(v))
    assert np.array_equal(back.entries, v.entries)


def test_state_dict_malformed():
    with pytest.raises(ValueError):
        from_state_dict({"kind": "operator"})
    with pytest.raises(ValueError):
        from_state_dict({"shape": {"dh": 2, "dj": 2}, "kind": "spam", "data": []})


def test_operator_flags():
    rng = np.random.default_rng(71)
    op = random_density(BipartiteShape(2, 2), rng)
    assert op.is_hermitian() and op.is_psd() and op.is_density()
    skew = BipartiteOperator(BipartiteShape(2, 2), op.matrix + 1j * np.eye(4))
    assert not skew.is_hermitian()


def test_shape_validation():
    with pytest.raises(ShapeError):
        BipartiteVector(BipartiteShape(2, 2), np.zeros(5))
    with pytest.raises(ShapeError):
        BipartiteOperator(BipartiteShape(2, 2), np.zeros((3, 3)))
    with pytest.raises(ShapeError):
        BipartiteShape(0, 2)


@pytest.mark.parametrize("top", [1e-320, 1e-310, 1e-300, 1e-3, 1.0, 7.3, 1e300, 1.7e308])
def test_unit_scale_is_exact(top):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    m = m / np.abs(m.view(float)).max() * top  # the largest |re| or |im| is top
    unit, k, tn = unit_scale(m)
    assert np.array_equal(np.ldexp(unit.view(float), k), m.view(float))
    assert np.isfinite(unit).all()
    assert tn == trace_norm(unit)  # from the SVD that picked k, bit for bit
    assert abs(np.log2(trace_norm(unit))) <= 0.5 + 1e-12  # k is nearest log2 ||m||_1
    if 1e-300 <= top <= 1e300:  # where ||m||_1 itself is computed accurately
        assert k == round(np.log2(trace_norm(m)))


def test_unit_scale_of_the_zero_matrix():
    unit, k, tn = unit_scale(np.zeros((4, 4), dtype=complex))
    assert k == 0 and not unit.any()
    assert tn == 0.0 and type(tn) is float


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_unit_scale_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="non-finite"):
        unit_scale(np.full((4, 4), bad))


def test_scaled_outward_overflow_and_subnormals():
    big, tiny = np.finfo(float).max, np.finfo(float).tiny
    assert scaled_outward(1.5, 0, 1024, up=True) == np.inf
    assert scaled_outward(1.5, 0, 1024, up=False) == big
    assert scaled_outward(1.0, 0, 0, up=False) == 1.0
    for value in (1.0 + 2**-52, 1.0 / 3.0, 0.7):
        for k in (-1030, -1060, -1074):
            lo, hi = scaled_outward(value, 0, k, up=False), scaled_outward(value, 0, k, up=True)
            assert lo < tiny and lo <= hi
            # the subnormal products scale up exactly: they must bracket the true value
            assert np.ldexp(lo, -k) <= value <= np.ldexp(hi, -k)
            assert hi - lo <= np.nextafter(0.0, 1.0)
