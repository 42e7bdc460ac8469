"""Injective norm: closed forms, see-saw ascent, grid-oracle agreement."""

import json
from pathlib import Path

import numpy as np
import pytest

from crossnorm import (
    BipartiteOperator,
    BipartiteShape,
    BipartiteVector,
    SeeSawConfig,
    from_state_dict,
    g_norm_product,
    g_norm_rank_one,
    g_norm_seesaw,
    kron,
    max_entangled_vector,
    operator_norm,
    random_pure,
    schmidt_decompose,
)
from crossnorm.core import rng_from_seed, scaled_outward
from crossnorm.gnorm import _operator_schmidt_start

CFG = SeeSawConfig(seed=101, restarts=8, max_iters=120)
CHEAP = SeeSawConfig(seed=103, restarts=3, max_iters=30)


def bloch_grid(n_theta=20, n_phi=20):
    """Qubit unit vectors on a (theta, phi) grid, poles included."""
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    t, p = np.meshgrid(thetas, phis, indexing="ij")
    return np.stack(
        [np.cos(t / 2).ravel(), (np.exp(1j * p) * np.sin(t / 2)).ravel()]
    )


def grid_oracle_2x2(mat, n_theta=20, n_phi=20):
    """Exhaustive (eta, chi) grid with the closed-form inner maximization.

    For fixed (eta, chi) the optimal bra side is the top Schmidt pair of
    L(eta (x) chi), whose coefficient has a closed form for 2x2 matrices,
    so only the ket side needs gridding.
    """
    g = bloch_grid(n_theta, n_phi)
    pairs = np.einsum("ia,kb->ikab", g, g).reshape(4, -1)
    w = mat @ pairs  # columns are L(eta (x) chi)
    frob = np.abs(w[0]) ** 2 + np.abs(w[1]) ** 2 + np.abs(w[2]) ** 2 + np.abs(w[3]) ** 2
    det = np.abs(w[0] * w[3] - w[1] * w[2])
    disc = np.sqrt(np.maximum(frob**2 - 4 * det**2, 0.0))
    a1 = np.sqrt((frob + disc) / 2)
    return float(a1.max())


def test_identity_pinches():
    est = g_norm_seesaw(BipartiteOperator(BipartiteShape(2, 2), np.eye(4, dtype=complex)), CFG)
    assert est.lower_bound == pytest.approx(1.0, abs=1e-10)
    assert est.upper_bound == pytest.approx(1.0, abs=1e-12)


def test_swap_grid_oracle():
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for k in range(2):
            swap[i * 2 + k, k * 2 + i] = 1.0
    oracle = grid_oracle_2x2(swap)
    assert oracle == pytest.approx(1.0, abs=1e-9)  # attained at grid poles
    est = g_norm_seesaw(BipartiteOperator(BipartiteShape(2, 2), swap), CFG)
    assert est.lower_bound == pytest.approx(1.0, abs=1e-8)
    assert est.upper_bound == pytest.approx(1.0, abs=1e-12)


def test_seesaw_exact_on_simple_tensors():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        est = g_norm_seesaw(kron(a, b), CFG)
        assert est.lower_bound == pytest.approx(g_norm_product(a, b), abs=1e-8)


def test_monotone_ascent():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    est = g_norm_seesaw(BipartiteOperator(BipartiteShape(3, 3), m), CFG)
    for history in est.histories:
        assert np.all(np.diff(history) >= -1e-12)


def test_adjoint_symmetry_certified_quantities():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert g_norm_product(a, b) == pytest.approx(
        g_norm_product(a.conj().T, b.conj().T), abs=1e-10
    )
    L = kron(a, b)
    assert g_norm_seesaw(L, CHEAP).upper_bound == pytest.approx(
        g_norm_seesaw(L.dagger(), CHEAP).upper_bound, abs=1e-10
    )
    # |c><c| is self-adjoint: the see-saw value agrees with the closed form
    c = random_pure(BipartiteShape(3, 3), rng)
    est = g_norm_seesaw(c.projector(), CFG)
    assert est.lower_bound == pytest.approx(g_norm_rank_one(c), abs=1e-8)


def test_local_unitary_transport_at_candidate_level():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    L = BipartiteOperator(BipartiteShape(2, 3), m)
    est = g_norm_seesaw(L, CHEAP)
    qu, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    qv, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    uv = np.kron(qu, qv)
    transported = uv @ m @ uv.conj().T
    before = np.kron(est.phi, est.psi).conj() @ (m @ np.kron(est.eta, est.chi))
    after = np.kron(qu @ est.phi, qv @ est.psi).conj() @ (
        transported @ np.kron(qu @ est.eta, qv @ est.chi)
    )
    assert abs(before - after) <= 1e-10 * max(abs(before), 1.0)


def test_sandwich_500_random():
    rng = np.random.default_rng(13)
    for i in range(500):
        dh, dj = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        m = rng.standard_normal((dh * dj, dh * dj)) + 1j * rng.standard_normal((dh * dj, dh * dj))
        L = BipartiteOperator(BipartiteShape(dh, dj), m)
        est = g_norm_seesaw(L, SeeSawConfig(seed=1000 + i, restarts=3, max_iters=25))
        assert est.lower_bound <= est.upper_bound + 1e-9
        val = est.objective(L)
        assert abs(abs(val) - est.lower_bound) <= 1e-10 * max(est.lower_bound, 1.0)
        assert abs(val.imag) <= 1e-9 * max(est.lower_bound, 1.0)  # phase fixed


def test_simple_tensor_recovery_within_tolerance():
    rng = np.random.default_rng(17)
    for i in range(20):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        est = g_norm_seesaw(kron(a, b), SeeSawConfig(seed=2000 + i, restarts=4, max_iters=60))
        assert abs(est.lower_bound - g_norm_product(a, b)) <= 1e-7 * max(1.0, g_norm_product(a, b))


def test_grid_oracle_agreement_50_hermitian():
    rng = np.random.default_rng(19)
    for i in range(50):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = (m + m.conj().T) / 2
        L = BipartiteOperator(BipartiteShape(2, 2), m)
        grid = grid_oracle_2x2(m)
        est = g_norm_seesaw(L, SeeSawConfig(seed=3000 + i, restarts=8, max_iters=60))
        assert est.lower_bound >= grid - 1e-6


def test_rank_one_values():
    # unnormalized flat Schmidt sum: norm exactly one
    sf = schmidt_decompose(random_pure(BipartiteShape(4, 4), seed=21))
    c = np.zeros(16, dtype=complex)
    for l in range(sf.rank):
        c += np.kron(sf.left_vectors[l], sf.right_vectors[l])
    assert g_norm_rank_one(BipartiteVector(BipartiteShape(4, 4), c)) == pytest.approx(1.0, abs=1e-10)
    assert g_norm_rank_one(max_entangled_vector(2)) == pytest.approx(0.5, abs=1e-12)
    v = BipartiteVector(BipartiteShape(2, 2), np.kron([1.0, 0.0], [0.0, 1.0]))
    assert g_norm_rank_one(v) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        g_norm_rank_one(BipartiteVector(BipartiteShape(2, 2), np.zeros(4)))


def test_seesaw_of_the_zero_operator_stops_and_converges():
    """The stop cut is tol max(val, 1e-300): a bare tol val is 0 at val = 0,
    no step passes ``< 0``, and the zero operator would run all max_iters
    steps and report converged False."""
    est = g_norm_seesaw(BipartiteOperator(BipartiteShape(2, 2), np.zeros((4, 4))),
                        SeeSawConfig(seed=1))
    assert est.converged and est.iterations_used == 3
    assert est.lower_bound == est.upper_bound == 0.0


def test_product_values():
    assert g_norm_product(np.eye(2), np.eye(2)) == pytest.approx(1.0, abs=1e-12)
    assert g_norm_product(np.diag([3.0, 1.0]), np.diag([2.0, 0.0])) == pytest.approx(6.0, abs=1e-12)
    e12 = np.outer([1.0, 0.0], [0.0, 1.0])
    assert g_norm_product(e12, np.eye(2)) == pytest.approx(1.0, abs=1e-12)


def test_upper_values_and_witness_gap():
    eye = BipartiteOperator(BipartiteShape(2, 3), np.eye(6, dtype=complex))
    assert g_norm_seesaw(eye, CHEAP).upper_bound == pytest.approx(1.0)
    # flat Schmidt sum witness: operator norm N while the injective norm is 1
    n = 3
    c = np.zeros(9, dtype=complex)
    for l in range(n):
        e = np.zeros(3)
        e[l] = 1.0
        c += np.kron(e, e)
    en = BipartiteOperator(BipartiteShape(3, 3), np.outer(c, c.conj()))
    assert g_norm_seesaw(en, CHEAP).upper_bound == pytest.approx(n, abs=1e-12)
    assert g_norm_rank_one(BipartiteVector(BipartiteShape(3, 3), c)) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(23)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2))
    assert operator_norm(kron(a, b)) == pytest.approx(
        operator_norm(a) * operator_norm(b), abs=1e-12
    )


def test_seesaw_deterministic():
    rng = np.random.default_rng(29)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    L = BipartiteOperator(BipartiteShape(2, 3), m)
    e1 = g_norm_seesaw(L, SeeSawConfig(seed=5, restarts=4, max_iters=40))
    e2 = g_norm_seesaw(L, SeeSawConfig(seed=5, restarts=4, max_iters=40))
    assert e1.lower_bound == e2.lower_bound
    assert np.array_equal(e1.phi, e2.phi)


def test_seesaw_rejects_bad_input():
    m = np.full((4, 4), np.nan)
    with pytest.raises(ValueError):
        g_norm_seesaw(BipartiteOperator(BipartiteShape(2, 2), m), CHEAP)
    with pytest.raises(ValueError):
        SeeSawConfig(seed=1, restarts=0)


def _reference_g_norm_seesaw(L, config):
    """The see-saw run one restart at a time, by power steps after an exact first
    half-step, then the exact polish of the winner: the oracle for the stacked kernel."""
    mat, adj = L.matrix, L.matrix.conj().T
    dh, dj = L.shape.dh, L.shape.dj
    rng = rng_from_seed(config.seed)

    def leading_pair(m, a, b):
        u, s, vh = np.linalg.svd((m @ np.kron(a, b)).reshape(dh, dj))
        return u[:, 0], vh[0, :], float(s[0])

    def power_pair(m, a, b, second):
        w = (m @ np.kron(a, b)).reshape(dh, dj)
        x = w @ second.conj()
        y = x.conj() @ w
        nx, ny = norm(x), norm(y)
        if ny > 0.0:
            return x / nx, y / ny, float(ny / nx)
        return leading_pair(m, a, b)

    def norm(x):  # the stacked kernel's rounding
        return np.sqrt(np.add.reduce(x.view(float) ** 2, axis=-1))

    def stopped(val, prev, prev2):
        scale = max(val, 1e-300)
        return abs(val - prev) < config.tol * scale and abs(val - prev2) < config.tol * scale

    def random_unit(d):
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return z / np.linalg.norm(z)

    best_val, best = -1.0, None
    histories = []
    for r in range(config.restarts):
        if r == 0:
            eta, chi = _operator_schmidt_start(L)
        else:
            eta, chi = random_unit(dh), random_unit(dj)
        history = []
        prev, prev2 = -1.0, -1.0
        psi = None
        for iters in range(1, config.max_iters + 1):
            if psi is None:
                phi, psi, val = leading_pair(mat, eta, chi)
            else:
                phi, psi, val = power_pair(mat, eta, chi, psi)
            history.append(val)
            eta, chi, val = power_pair(adj, phi, psi, chi)
            history.append(val)
            done = stopped(val, prev, prev2)
            prev2, prev = prev, val
            if done:
                break
        histories.append(history)
        if history[-1] > best_val:
            best_val, best = history[-1], (eta, chi, r, iters)

    eta, chi, r, iters = best
    prev, prev2, converged = -1.0, -1.0, False
    for _ in range(config.max_iters):
        phi, psi, _ = leading_pair(mat, eta, chi)
        eta, chi, val = leading_pair(adj, phi, psi)
        best_val = max(best_val, val)
        converged = stopped(val, prev, prev2)
        prev2, prev = prev, val
        if converged:
            break
    phi, psi, val = leading_pair(mat, eta, chi)
    best_val = max(best_val, val)
    obj = np.kron(phi, psi).conj() @ (mat @ np.kron(eta, chi))
    if abs(obj) > 0.0:
        phi = phi * (obj / abs(obj))
    return dict(lower_bound=scaled_outward(best_val, L.shape.total, 0, up=False), phi=phi, psi=psi,
                eta=eta, chi=chi, best_restart=r, iterations_used=iters, converged=converged,
                histories=histories)


def _exact_g_norm_seesaw(L, config):
    """The see-saw by exact half-steps, one restart at a time: the oracle the
    power steps must reach at the default budget."""
    mat = L.matrix
    dh, dj = L.shape.dh, L.shape.dj
    rng = rng_from_seed(config.seed)

    def leading_pair(w):
        u, s, vh = np.linalg.svd(w.reshape(dh, dj))
        return u[:, 0], vh[0, :], float(s[0])

    def random_unit(d):
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return z / np.linalg.norm(z)

    best_val, best = -1.0, None
    histories = []
    for r in range(config.restarts):
        if r == 0:
            eta, chi = _operator_schmidt_start(L)
        else:
            eta, chi = random_unit(dh), random_unit(dj)
        history = []
        prev, prev2 = -1.0, -1.0
        converged = False
        for iters in range(1, config.max_iters + 1):
            phi, psi, val = leading_pair(mat @ np.kron(eta, chi))
            history.append(val)
            eta, chi, val = leading_pair(mat.conj().T @ np.kron(phi, psi))
            history.append(val)
            scale = max(val, 1e-300)
            if abs(val - prev) < config.tol * scale and abs(val - prev2) < config.tol * scale:
                converged = True
                break
            prev2, prev = prev, val
        histories.append(history)
        if history[-1] > best_val:
            best_val, best = history[-1], (eta, chi, r, iters, converged)

    eta, chi, r, iters, converged = best
    phi, psi, val = leading_pair(mat @ np.kron(eta, chi))
    best_val = max(best_val, val)
    obj = np.kron(phi, psi).conj() @ (mat @ np.kron(eta, chi))
    if abs(obj) > 0.0:
        phi = phi * (obj / abs(obj))
    return dict(lower_bound=scaled_outward(best_val, L.shape.total, 0, up=False), phi=phi, psi=psi,
                eta=eta, chi=chi, best_restart=r, iterations_used=iters, converged=converged,
                histories=histories)


def _operator(kind, dh, dj, rng):
    n = dh * dj
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "hermitian":
        m = (m + m.conj().T) / 2
    elif kind == "rank-one":
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        m = np.outer(v, v.conj())
    elif kind == "zero":
        m = np.zeros((n, n), dtype=complex)
    return BipartiteOperator(BipartiteShape(dh, dj), m)


@pytest.mark.parametrize("dh,dj", [(1, 1), (1, 3), (2, 3), (5, 5)])
@pytest.mark.parametrize("kind", ["hermitian", "rank-one", "zero", "general"])
def test_stacked_seesaw_matches_the_per_restart_loop(dh, dj, kind):
    rng = np.random.default_rng(31 + 7 * dh + dj)
    L = _operator(kind, dh, dj, rng)
    for seed, restarts, max_iters in [(1, 1, 1), (2, 5, 7), (3, 32, 200)]:
        cfg = SeeSawConfig(seed=seed, restarts=restarts, max_iters=max_iters)
        est, ref = g_norm_seesaw(L, cfg), _reference_g_norm_seesaw(L, cfg)
        assert (est.best_restart, est.iterations_used, est.converged) == (
            ref["best_restart"], ref["iterations_used"], ref["converged"])
        assert [len(h) for h in est.histories] == [len(h) for h in ref["histories"]]
        scale = max(ref["lower_bound"], 1e-300)
        assert abs(est.lower_bound - ref["lower_bound"]) <= 1e-12 * scale
        for got, want in zip(est.histories, ref["histories"]):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
        for name in ("phi", "psi", "eta", "chi"):
            np.testing.assert_allclose(getattr(est, name), ref[name], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dh,dj", [(1, 1), (1, 3), (2, 3), (5, 5)])
@pytest.mark.parametrize("kind", ["hermitian", "rank-one", "zero", "general"])
def test_power_steps_reach_the_exact_see_saw(dh, dj, kind):
    """At the default budget the power steps and the polish end no lower than
    the see-saw by exact half-steps.  Tiny budgets can end lower: at seed 2,
    restarts=5, max_iters=7, the 3x3 Hermitian ``_operator`` of this test's
    rng rule ends 1.0e-3 lower (relative)."""
    L = _operator(kind, dh, dj, np.random.default_rng(31 + 7 * dh + dj))
    for seed in (1, 2):
        cfg = SeeSawConfig(seed=seed)
        exact = _exact_g_norm_seesaw(L, cfg)["lower_bound"]
        assert g_norm_seesaw(L, cfg).lower_bound >= exact * (1 - 1e-10)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_power_steps_reach_the_exact_see_saw_on_the_benchmark_operators(seed, tmp_path,
                                                                         monkeypatch):
    """The non-Hermitian 3x3, 4x4 and 5x5 operators of the benchmark's ``gnorm``
    cases: no lower than the exact see-saw, converged alike."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    import workloads

    workloads.build("lab", seed, False, tmp_path)
    for n in (3, 4, 5):
        L = from_state_dict(json.loads((tmp_path / f"operator-{n}.json").read_text()))
        cfg = SeeSawConfig(seed=seed)
        est, exact = g_norm_seesaw(L, cfg), _exact_g_norm_seesaw(L, cfg)
        assert est.lower_bound >= exact["lower_bound"] and est.converged == exact["converged"]


def test_restarts_do_not_depend_on_the_stack():
    L = _operator("general", 2, 3, np.random.default_rng(37))
    full = g_norm_seesaw(L, SeeSawConfig(seed=9, restarts=32, max_iters=200))
    for k in (1, 2, 7):
        part = g_norm_seesaw(L, SeeSawConfig(seed=9, restarts=k, max_iters=200))
        assert part.histories == full.histories[:k]


@pytest.mark.parametrize("k", [-300, -200, 0, 200, 300])
def test_seesaw_at_every_scale(k):
    rng = np.random.default_rng(41)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    m /= np.linalg.norm(m)  # unit Frobenius norm, so the values at 1e-300 lie below 1e-300
    cfg = SeeSawConfig(seed=1)
    base = g_norm_seesaw(BipartiteOperator(BipartiteShape(3, 3), m), cfg)
    s = 10.0**k
    L = BipartiteOperator(BipartiteShape(3, 3), m * s)
    est = g_norm_seesaw(L, cfg)
    assert est.lower_bound / s == pytest.approx(base.lower_bound, rel=1e-12)
    assert (est.best_restart, est.iterations_used) == (base.best_restart, base.iterations_used)
    assert all(np.all(np.isfinite(v)) for v in (est.phi, est.psi, est.eta, est.chi))
    val = est.objective(L)
    assert abs(abs(val) - est.lower_bound) <= 1e-12 * est.lower_bound
    assert abs(val.imag) <= 1e-12 * est.lower_bound



@pytest.mark.parametrize("s", [1e-310, 2.0**-1040, 2.0**1000, 1.5e308])
def test_seesaw_at_the_edges_of_the_float_range(s):
    """Scaled by ||L||_inf on its own, the search raised LinAlgError at 1e-310
    and OverflowError at 1.5e308."""
    rng = np.random.default_rng(41)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    m /= np.linalg.norm(m)
    cfg = SeeSawConfig(seed=1)
    base = g_norm_seesaw(BipartiteOperator(BipartiteShape(3, 3), m), cfg)
    est = g_norm_seesaw(BipartiteOperator(BipartiteShape(3, 3), m * s), cfg)
    assert est.lower_bound <= est.upper_bound
    assert est.lower_bound / s == pytest.approx(base.lower_bound, rel=1e-9)
    assert all(np.all(np.isfinite(v)) for v in (est.phi, est.psi, est.eta, est.chi))
    if np.log2(s).is_integer() and s >= np.finfo(float).tiny:  # an exact scaling: the same search
        assert est.histories == [[x * s for x in h] for h in base.histories]
