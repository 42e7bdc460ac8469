"""Injective norm of bipartite operators.

||L||_G = sup |<phi (x) psi, L (eta (x) chi)>| over unit product vectors.
Exact closed forms for simple tensors and rank-one operators; alternating
(see-saw) ascent with certified upper bound ||L||_inf otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    BipartiteOperator,
    BipartiteVector,
    operator_norm,
    operator_schmidt,
    outward,
    rng_from_seed,
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


def g_norm_upper(L: BipartiteOperator) -> float:
    """Operator norm of L: always a valid upper bound on ||L||_G."""
    return operator_norm(L.matrix)


def _leading_pair(w: np.ndarray, dh: int, dj: int):
    """Top Schmidt pair (phi, psi) of a bipartite vector and its coefficient."""
    u, s, vh = np.linalg.svd(w.reshape(dh, dj))
    return u[:, 0], vh[0, :], float(s[0])


def _random_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def g_norm_seesaw(L: BipartiteOperator, config: SeeSawConfig) -> GNormEstimate:
    """Alternating maximization of |<phi (x) psi, L (eta (x) chi)>|.

    Fixing (eta, chi), the optimal (phi, psi) is the leading Schmidt pair of
    L(eta (x) chi); fixing (phi, psi), the optimal (eta, chi) is the leading
    Schmidt pair of L^*(phi (x) psi).  The objective never decreases across
    half-steps.  Restart 0 starts from the leading operator-Schmidt pair of
    L, the rest from seeded random product vectors; the best restart wins,
    ties broken by the lowest restart index.

    Returns a certified bracket: ``lower_bound`` is attained by the stored
    vectors up to rounding, and rounded down to cover it; ``upper_bound``
    is ||L||_inf.
    """
    mat = L.matrix
    if not np.all(np.isfinite(mat)):
        raise ValueError("operator has non-finite entries")
    dh, dj = L.shape.dh, L.shape.dj
    rng = rng_from_seed(config.seed)
    upper = operator_norm(mat)

    best_val = -1.0
    best_vecs = None
    best_restart = 0
    best_iters = 0
    best_converged = False
    histories = []

    for r in range(config.restarts):
        if r == 0:
            eta, chi = _operator_schmidt_start(L)
        else:
            eta, chi = _random_unit(rng, dh), _random_unit(rng, dj)
        phi, psi = eta, chi
        history = []
        prev, prev2 = -1.0, -1.0
        converged = False
        iters = 0
        for iters in range(1, config.max_iters + 1):
            phi, psi, val = _leading_pair(mat @ np.kron(eta, chi), dh, dj)
            history.append(val)
            eta, chi, val = _leading_pair(mat.conj().T @ np.kron(phi, psi), dh, dj)
            history.append(val)
            scale = max(val, 1e-300)
            if abs(val - prev) < config.tol * scale and abs(val - prev2) < config.tol * scale:
                converged = True
                break
            prev2, prev = prev, val
        histories.append(history)
        final = history[-1] if history else 0.0
        if final > best_val:
            best_val = final
            best_vecs = (phi, psi, eta, chi)
            best_restart = r
            best_iters = iters
            best_converged = converged

    phi, psi, eta, chi = best_vecs
    # one more half-step keeps (phi, psi) consistent with the final (eta, chi)
    phi, psi, val = _leading_pair(mat @ np.kron(eta, chi), dh, dj)
    best_val = max(best_val, val)
    obj = np.kron(phi, psi).conj() @ (mat @ np.kron(eta, chi))
    if abs(obj) > 0.0:
        phi = phi * (obj / abs(obj))  # make the reported objective real nonnegative
    return GNormEstimate(outward(best_val, L.shape.total, up=False), upper, phi, psi, eta, chi,
                         iterations_used=best_iters, converged=best_converged,
                         best_restart=best_restart, histories=histories)


def _operator_schmidt_start(L: BipartiteOperator):
    """Deterministic warm start from the top operator-Schmidt factors of L."""
    form = operator_schmidt(L)
    if form.rank == 0:
        return np.eye(L.shape.dh, dtype=complex)[0], np.eye(L.shape.dj, dtype=complex)[0]
    g, h = form.left_ops[0], form.right_ops[0]
    _, _, gvh = np.linalg.svd(g)
    _, _, hvh = np.linalg.svd(h)
    return gvh[0, :].conj(), hvh[0, :].conj()
