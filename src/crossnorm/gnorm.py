"""Injective norm of bipartite operators.

||L||_G = sup |<phi (x) psi, L (eta (x) chi)>| over unit product vectors.
Exact closed forms for simple tensors and rank-one operators; alternating
(see-saw) ascent with certified upper bound ||L||_inf otherwise, all its
restarts advanced as one stack.  The first half-step takes each restart's
exact top Schmidt pair (one stacked ``svd``); every later one is a power
step, a few stacked matvecs, with the exact step kept for a row whose power
step has zero norm.  The winning restart is polished by exact half-steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    BipartiteOperator,
    BipartiteVector,
    operator_norm,
    operator_schmidt,
    rng_from_seed,
    scaled_outward,
    unit_scale,
)


@dataclass(frozen=True)
class SeeSawConfig:
    """Knobs for the alternating-ascent searches; the seed is mandatory."""

    seed: int
    restarts: int = 32
    max_iters: int = 500
    tol: float = 1e-10

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be positive")
        if not (0.0 < self.tol < 1.0):
            raise ValueError("tol must lie in (0, 1)")


@dataclass(eq=False)
class GNormEstimate:
    """Certified bracket on ||L||_G with the achieving product vectors."""

    lower_bound: float
    upper_bound: float
    phi: np.ndarray
    psi: np.ndarray
    eta: np.ndarray
    chi: np.ndarray
    iterations_used: int
    converged: bool
    best_restart: int = 0
    histories: list = field(default_factory=list)

    def objective(self, L: BipartiteOperator) -> complex:
        """Recompute <phi (x) psi, L (eta (x) chi)> from the stored vectors."""
        bra = np.kron(self.phi, self.psi).conj()
        return complex(bra @ (L.matrix @ np.kron(self.eta, self.chi)))


def g_norm_product(a, b) -> float:
    """||A (x) B||_G = ||A||_inf ||B||_inf, exact for simple tensors."""
    return operator_norm(a) * operator_norm(b)


def g_norm_rank_one(c: BipartiteVector) -> float:
    """Exact injective norm of |c><c|: the squared top Schmidt coefficient.

    The supremum of |<phi (x) psi, c><c, eta (x) chi>| factorizes into two
    independent maximal product overlaps, each equal to a_1(c).
    """
    if c.norm() == 0.0:
        raise ValueError("rank-one injective norm of the zero vector is undefined")
    s = np.linalg.svd(c.as_matrix(), compute_uv=False)
    return float(s[0] ** 2)


def _products(mat: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Each row's mat (left_r (x) right_r) as a d_h x d_j matrix, one product per
    row so that no restart's iterates depend on its stack."""
    n_r, dh, dj = len(left), left.shape[1], right.shape[1]
    w = mat @ (left[:, :, None] * right[:, None, :]).reshape(n_r, -1, 1)
    return w.reshape(n_r, dh, dj)


def _top_pair(w: np.ndarray):
    """Each matrix's top singular pair (u, conj(v)) and value: the unit (a, b)
    maximizing |a^dag w conj(b)|."""
    u, s, vh = np.linalg.svd(w)
    return u[:, :, 0], vh[:, 0, :], s[:, 0]


def _half_step(mat: np.ndarray, left: np.ndarray, right: np.ndarray):
    """Each row's top Schmidt pair (phi, psi) and coefficient of mat (left_r (x) right_r)."""
    return _top_pair(_products(mat, left, right))


def _power_step(mat: np.ndarray, left: np.ndarray, right: np.ndarray, second: np.ndarray):
    """One power step on each row's W = mat (left_r (x) right_r) from its
    previous second vector b_r: a = W conj(b_r) / ||.||, then b = conj(W^dag a)
    / ||.||, with value ||W^dag a||.  Each update maximizes |a^dag W conj(b)|
    over one vector with the other held, so the value is at least
    |a_r^dag W conj(b_r)| for the previous pair.  A row whose step has zero
    norm (W conj(b_r) = 0) takes the exact step of :func:`_top_pair`."""
    w = _products(mat, left, right)
    a = (w @ second.conj()[:, :, None])[:, :, 0]
    b = (a.conj()[:, None, :] @ w)[:, 0, :]
    na, nb = (np.sqrt(np.add.reduce(v.view(float) ** 2, axis=1)) for v in (a, b))
    lost = nb == 0.0  # W conj(b_r) = 0, or a step that underflows
    na[lost] = nb[lost] = 1.0
    a /= na[:, None]
    b /= nb[:, None]
    val = nb / na
    if lost.any():
        a[lost], b[lost], val[lost] = _top_pair(w[lost])
    return a, b, val


def _stopped(val, prev, prev2, tol):
    """The tol rule: a value within tol (relative) of the two before it."""
    cut = tol * np.maximum(val, 1e-300)
    return (np.abs(val - prev) < cut) & (np.abs(val - prev2) < cut)


def g_norm_seesaw(L: BipartiteOperator, config: SeeSawConfig) -> GNormEstimate:
    """Alternating maximization of |<phi (x) psi, L (eta (x) chi)>|.

    Fixing (eta, chi), the optimal (phi, psi) is the leading Schmidt pair of
    L(eta (x) chi); fixing (phi, psi), the optimal (eta, chi) is the leading
    Schmidt pair of L^*(phi (x) psi).  The first half-step takes that pair
    exactly; every later one takes one power step towards it from the pair
    it holds (:func:`_power_step`; the higher-order power method of De
    Lathauwer, De Moor & Vandewalle 2000).  Either way the objective never
    decreases across half-steps.  Restart 0 starts from the leading
    operator-Schmidt pair of L, the rest from seeded random product
    vectors, and all advance together as one stack.  A restart stops when
    its value after a full step is within ``tol`` (relative) of its values
    one and two steps earlier.  The best restart wins, ties broken by the
    lowest restart index, and is then polished by exact half-step pairs
    until the same rule holds, at most ``max_iters`` pairs; ``converged``
    tells whether it held.  ``histories`` and ``iterations_used`` leave the
    polish out.  The search runs on the unit operator L / 2^k of
    :func:`core.unit_scale`, and the bounds and ``histories`` are scaled back.

    Returns a certified bracket: ``lower_bound`` is attained by the stored
    vectors up to rounding and ``upper_bound`` is ||L||_inf, both rounded
    outward by 4 n eps, n = d_h d_j (:func:`core.scaled_outward`).
    """
    dh, dj = L.shape.dh, L.shape.dj
    rng = rng_from_seed(config.seed)
    mat, k, _ = unit_scale(L.matrix)
    adj = mat.conj().T

    n_r = config.restarts
    draws = [rng.standard_normal(d) + 1j * rng.standard_normal(d)
             for _ in range(n_r - 1) for d in (dh, dj)]
    eta0, chi0 = _operator_schmidt_start(BipartiteOperator(L.shape, mat))
    eta = np.array([eta0] + [z / np.linalg.norm(z) for z in draws[0::2]], dtype=complex)
    chi = np.array([chi0] + [z / np.linalg.norm(z) for z in draws[1::2]], dtype=complex)
    history = []  # one (restarts, 2) array of half-step values per step
    iters = np.full(n_r, config.max_iters)
    last = np.empty(n_r)  # each restart's final value
    # the running restarts: indices, vectors and last two values, written back as they stop
    active, ea, ca, pa, qa = np.arange(n_r), eta, chi, None, None
    prev, prev2 = np.full(n_r, -1.0), np.full(n_r, -1.0)
    for it in range(1, config.max_iters + 1):
        step = np.zeros((n_r, 2))
        history.append(step)
        if qa is None:
            pa, qa, step[active, 0] = _half_step(mat, ea, ca)
        else:
            pa, qa, step[active, 0] = _power_step(mat, ea, ca, qa)
        ea, ca, val = _power_step(adj, pa, qa, ca)
        step[active, 1] = val
        done = _stopped(val, prev, prev2, config.tol)
        prev2, prev = prev, val
        if done.any():
            stop, go = active[done], ~done
            eta[stop], chi[stop], last[stop] = ea[done], ca[done], val[done]
            iters[stop] = it
            active, ea, ca, pa, qa, prev, prev2 = (
                active[go], ea[go], ca[go], pa[go], qa[go], prev[go], prev2[go])
            if active.size == 0:
                break
    # the restarts that ran out of steps
    eta[active], chi[active], last[active] = ea, ca, prev

    best = int(np.argmax(last))
    e, c = eta[best:best + 1], chi[best:best + 1]
    best_val, prev, prev2, converged = last[best], -1.0, -1.0, False
    for _ in range(config.max_iters):  # the polish: exact pairs, not in histories
        phi, psi, _ = _half_step(mat, e, c)
        e, c, val = _half_step(adj, phi, psi)
        best_val = max(best_val, val[0])
        converged = bool(_stopped(val[0], prev, prev2, config.tol))
        prev2, prev = prev, val[0]
        if converged:
            break
    # one more half-step keeps (phi, psi) consistent with the final (eta, chi)
    phi, psi, val = _half_step(mat, e, c)
    best_val = max(best_val, val[0])
    phi, psi, eta, chi = phi[0], psi[0], e[0], c[0]
    obj = np.kron(phi, psi).conj() @ (mat @ np.kron(eta, chi))
    if abs(obj) > 0.0:
        phi = phi * (obj / abs(obj))  # make the reported objective real nonnegative
    history = np.ldexp(np.array(history), k)
    histories = [history[:iters[r], r].ravel().tolist() for r in range(n_r)]
    return GNormEstimate(scaled_outward(best_val, dh * dj, k, up=False),
                         scaled_outward(operator_norm(mat), dh * dj, k, up=True),
                         phi, psi, eta, chi, iterations_used=int(iters[best]),
                         converged=converged, best_restart=best, histories=histories)


def _operator_schmidt_start(L: BipartiteOperator):
    """Deterministic warm start from the top operator-Schmidt factors of L."""
    form = operator_schmidt(L)
    if form.rank == 0:
        return np.eye(L.shape.dh, dtype=complex)[0], np.eye(L.shape.dj, dtype=complex)[0]
    g, h = form.left_ops[0], form.right_ops[0]
    _, _, gvh = np.linalg.svd(g)
    _, _, hvh = np.linalg.svd(h)
    return gvh[0, :].conj(), hvh[0, :].conj()
