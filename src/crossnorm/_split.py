"""The PPT split of a Hermitian operator, by accelerated consensus ADMM.

||D||_H is the least tr P+ + tr P- over D = P+ - P- with P+ and P- separable.
Relaxing separable to PPT (P >= 0 and P^Gamma >= 0, Gamma the partial
transpose) leaves a semidefinite program in Q = P-: the least tr Q over the
four sets Q >= 0, Q^Gamma >= 0, Q >= -D and Q^Gamma >= -D^Gamma, of value
tr D + 2 tr Q.  At 2x2 and 2x3 PPT states are separable (Horodecki^3 1996),
so there it is ||D||_H; elsewhere it is a lower bound.

:func:`ppt_split` solves it by consensus ADMM (Boyd et al. 2011, sec. 7.1):
each iteration projects onto all four sets in one stacked ``eigh``, two of
them through the partial transpose, and the Q update is the mean of
Z_i - U_i minus I / (4 rho).  The iteration is the Douglas-Rachford map of
X_i = Q + U_i, and Anderson acceleration (type II, Walker & Ni 2011) of that
map, over the last _MEMORY steps, cuts the iterations two- to
twentyfold.  The multipliers of the four sets, read from -rho U_i, are PSD
by construction: A and C of Q >= 0 and Q >= -D, B and E of the transposed
sets.  So Y = I - 2 (C + E^Gamma) is a dual point, off only by the
stationarity residual I - A - B^Gamma - C - E^Gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BipartiteShape, _eigh, _lapack_errstate

SPLIT_TOL = 1e-10  # the primal and dual residual stop, Frobenius norm, at unit scale
SPLIT_ITERS = 2000  # the iteration budget
_RHO = 8.0  # the first ADMM step of a unit operator
_BALANCE = 20  # iterations between two residual-balancing checks
_MU, _TAU = 20.0, 2.0  # rho moves by _TAU where one residual exceeds _MU times the other
_MEMORY = 10  # the Anderson memory, in steps
_REG = 1e-10  # Tikhonov weight of the Anderson least squares, relative to its steps' squares


@dataclass(eq=False)
class Split:
    """The last iterate of :func:`ppt_split`: ``minus`` is Q = P-, and
    (y, b, e) the dual point Y = I - 2 (C + E^Gamma) with B and E.  ``primal``
    is ||Q - Z_i|| over the four sets' projections Z_i, ``dual`` the
    stationarity residual ||I - A - B^Gamma - C - E^Gamma||."""

    minus: np.ndarray
    y: np.ndarray
    b: np.ndarray
    e: np.ndarray
    iterations: int
    primal: float
    dual: float

    @property
    def converged(self) -> bool:
        return self.primal <= SPLIT_TOL and self.dual <= SPLIT_TOL


def partial_transposes(stack: np.ndarray, shape: BipartiteShape) -> np.ndarray:
    """:func:`core.partial_transpose` (side j) of every matrix of a stack."""
    dh, dj = shape.dh, shape.dj
    return stack.reshape(-1, dh, dj, dh, dj).transpose(0, 1, 4, 3, 2).reshape(stack.shape)


def ppt_split(d: np.ndarray, shape: BipartiteShape) -> Split:
    """The PPT split of a Hermitian unit operator ``d``, started from its
    negative part, until both residuals are at most SPLIT_TOL or SPLIT_ITERS
    iterations have run.

    Every _BALANCE iterations rho is balanced (Boyd et al. 2011, sec.
    3.4.1): it doubles where the primal residual exceeds _MU times the dual
    one and halves in the opposite case, U_i is rescaled to match, and the
    Anderson memory starts again.  The Anderson weights solve the
    least-squares problem of the stored steps with a Tikhonov term of _REG
    times their squared norms, so steps that stall, or repeat, add nothing."""
    n = shape.total
    eye = np.eye(n)
    shift = np.zeros((4, n, n), dtype=complex)
    shift[2:] = d  # the sets Q >= -D and Q^Gamma >= -D^Gamma are PSD cones moved by -D
    w, v = np.linalg.eigh(d)
    x = np.tile(-(v * np.minimum(w, 0.0)) @ v.conj().T, (4, 1, 1))
    dx, df = np.zeros((2, _MEMORY, 8 * n * n))  # the last steps of X and of T(X) - X, as reals
    rho, stored, last = _RHO, 0, None
    with _lapack_errstate():
        for it in range(1, SPLIT_ITERS + 1):
            m = x + shift
            m[1::2] = partial_transposes(m[1::2], shape)
            w, v = _eigh(m)
            neg = (v * np.maximum(-w, 0.0)[:, None, :]) @ v.conj().transpose(0, 2, 1)
            neg_x = neg.copy()  # -U_i: the part of X_i the projection Z_i = X_i - U_i removes
            neg_x[1::2] = partial_transposes(neg[1::2], shape)
            total = neg_x.sum(axis=0)
            q = (x.sum(axis=0) + 2.0 * total - eye / rho) / 4.0  # mean(Z_i - U_i) - I / (4 rho)
            f = q - x - neg_x  # T(X) - X = Q - Z_i
            fv = f.view(float).ravel()
            primal = float(np.sqrt(fv @ fv))
            rv = (eye - rho * total).view(float).ravel()
            dual = float(np.sqrt(rv @ rv))
            if primal <= SPLIT_TOL and dual <= SPLIT_TOL or it == SPLIT_ITERS:
                break  # so the dual point below is read at the rho it was computed at
            scale = 1.0
            if it % _BALANCE == 0:
                scale = _TAU if primal > _MU * dual else 1.0 / _TAU if dual > _MU * primal else 1.0
            if scale != 1.0:
                rho *= scale
                u = -neg_x / scale
                x = ((x + neg_x - u).sum(axis=0) - eye / rho) / 4.0 + u  # Q + U_i at the new rho
                stored, last = 0, None
                continue
            xv = x.view(float).ravel()
            step = fv
            if last is not None:
                j = stored % _MEMORY
                dx[j], df[j] = xv - last[0], fv - last[1]
                stored += 1
                c = min(stored, _MEMORY)
                gram = df[:c] @ df[:c].T
                gram.flat[::c + 1] += _REG * (gram.trace() + np.vdot(dx[:c], dx[:c])) + 1e-300
                gamma = np.linalg.solve(gram, df[:c] @ fv)
                step = fv - gamma @ (dx[:c] + df[:c])
            last = xv.copy(), fv.copy()
            x = x + step.view(complex).reshape(x.shape)
    y = eye - 2.0 * rho * (neg[2] + neg_x[3])
    return Split(minus=(q + q.conj().T) / 2, y=(y + y.conj().T) / 2, b=rho * neg[1],
                 e=rho * neg[3], iterations=it, primal=primal, dual=dual)
