"""Certified bounds on the projective and Hermitian projective norms.

Each call wraps its operator in one private ``_Analysis`` that computes the
shared work at most once, on first use: the Hermitian and PSD flags, trace
norm, realignment bound, witness see-saw, spectral-Schmidt expansion and
signed decomposition.  Nothing is kept on the operator or between calls.
Over it sit one list of lower and one list of upper providers, each a
``(value, method, certificate)`` triple.  Lower: the trace norm, the
realignment (computable cross norm) inequality and a rank-one witness whose
injective norm is exactly one.  Upper: the spectral-Schmidt and
operator-Schmidt expansions, a signed decomposition over product densities,
a robustness-style search for affine combinations of separable states, and
supplied decompositions.  Every bound carries a certificate that can be
re-checked independently of how it was produced, and every reported bound
is rounded outward by 4 n eps (relative) to cover floating-point error.

The witness see-saw is projected power iteration on co-isometries, where
its objective reaches its maximum: each step replaces every restart's c by
the polar factor U V^dag of the (d_h, d_j) reshape of D c, all restarts in
one stacked SVD.  For PSD D the objective is convex, so no step lowers it.

The product-state ascent that prices the next atom of ``separable_fit``
and of the robustness search takes a list of matrices; every start of
every matrix advances in one stacked ``einsum`` and ``eigh`` per half-step,
with the same results, bit for bit, as one start at a time.

Both searches share one column format and one budget.  An atom's product
density enters as the n^2 real parameters of a Hermitian matrix, with the
upper triangle scaled by sqrt(2) so that emb(X) . emb(Y) = tr(X Y): the
NNLS fit minimizes the Frobenius error, and the inverse map also reads the
LP dual back as a Hermitian Y.  Residuals come from the columns, d - A w,
so no product matrix is kept.  Each dictionary holds at most
max(64, n^2 + 32) atoms, and either search returns a mixture only after
it reconstructs the target to VALIDATE_TOL in trace norm.

Phase 2 of the robustness search is column generation.  Its linear
program fits D / 2^k, 2^k the power of two nearest ||D||_1, because the
solver's tolerances are absolute.  Every start of the product ascent on
[Y, -Y] whose local maximum beats 1 + 1e-7 enters in the same round, near
duplicates removed; before they enter, atoms without LP weight are
pruned, oldest first.  The first LP still holds the whole starting
dictionary, which can exceed the budget.  The decomposition is built once,
from the lightest accurate round.

Upper certificates are one container family.  A ``StandardDecomposition``
sum_k r_k X_k (x) Y_k certifies a projective-norm upper bound, its weight.
A ``SignedDecomposition`` sum_k t_k rho_k (x) sigma_k over product
densities is a standard one too, and its weight sum_k |t_k| also bounds
the Hermitian norm; the robustness search and ``separable_fit`` return it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import qr
from scipy.optimize import linprog, nnls

from .core import (
    EPS_HERM,
    EPS_PSD,
    BipartiteOperator,
    BipartiteShape,
    BipartiteVector,
    eigh_blocks,
    nuclear_norm,
    outward,
    positive_negative_split,
    realign,
    rng_from_seed,
    operator_schmidt,
    schmidt_decompose,
    trace_norm,
)
from .gnorm import SeeSawConfig

VALIDATE_TOL = 1e-8
PINCH_TOL = 1e-6
PRICING_TOL = 1e-7  # the signed search stops when no product state prices above 1 + this


# ---------------------------------------------------------------------------
# decomposition containers


@dataclass(eq=False)
class StandardDecomposition:
    """target = sum_k r_k (X_k (x) Y_k) with r_k >= 0, ||X_k||_1 ||Y_k||_1 = 1."""

    terms: list  # list of (r, X, Y)
    shape: BipartiteShape
    kind = "standard"
    _term_keys = ("r", "x", "y")

    @property
    def weight(self) -> float:
        """sum_k |coefficient_k|: sum_k r_k on valid standard terms, the
        Hermitian weight sum_k |t_k| on signed ones."""
        return float(sum(abs(w) for w, _, _ in self.terms))

    def reconstruct(self) -> np.ndarray:
        n = self.shape.total
        acc = np.zeros((n, n), dtype=complex)
        for w, x, y in self.terms:
            acc += w * np.kron(x, y)
        return acc

    def to_dict(self) -> dict:
        from .core import complex_to_pairs

        kw, kx, ky = self._term_keys
        return {
            "kind": self.kind,
            "shape": {"dh": self.shape.dh, "dj": self.shape.dj},
            "terms": [
                {kw: float(w), kx: complex_to_pairs(x), ky: complex_to_pairs(y)}
                for w, x, y in self.terms
            ],
            "weight": self.weight,
        }


class SignedDecomposition(StandardDecomposition):
    """target = sum_k t_k (rho_k (x) sigma_k) over product densities, t_k real.

    Each term has ||rho_k||_1 ||sigma_k||_1 = 1 and |t_k| as its weight, so
    this is also a standard decomposition (with the sign of t_k moved into
    rho_k); its weight bounds the Hermitian norm as well.
    """

    kind = "signed"
    _term_keys = ("t", "rho", "sigma")

    @property
    def alpha(self) -> float:
        return float(sum(t for t, _, _ in self.terms if t > 0))

    @property
    def is_positive(self) -> bool:
        return all(t >= 0 for t, _, _ in self.terms)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "alpha": self.alpha}


@dataclass(eq=False)
class NormBounds:
    """Certified lower/upper brackets for the projective and Hermitian norms.

    ``certificates[name]`` holds the object backing the bound tagged
    ``methods[name]`` for name in {"pi_lower", "pi_upper", "h_lower",
    "h_upper"}.  A single value is only quoted when a bracket pinches to
    within PINCH_TOL.
    """

    pi_lower: float
    pi_upper: float
    h_lower: float
    h_upper: float
    methods: dict = field(default_factory=dict)
    certificates: dict = field(default_factory=dict)
    indirect: bool = False

    def pi_value(self):
        return _pinched(self.pi_lower, self.pi_upper)

    def h_value(self):
        return _pinched(self.h_lower, self.h_upper)

    def to_dict(self) -> dict:
        d = {"pi_lower": self.pi_lower, "pi_upper": self.pi_upper,
             "h_lower": None if np.isnan(self.h_lower) else self.h_lower,
             "h_upper": None if np.isnan(self.h_upper) else self.h_upper,
             "methods": dict(self.methods), "indirect": self.indirect}
        for key, value in (("pi_value", self.pi_value()), ("h_value", self.h_value())):
            if value is not None:
                d[key] = value
        return d


def _pinched(lower: float, upper: float):
    """The midpoint of a bracket pinched to within PINCH_TOL, else None (also for NaN)."""
    return 0.5 * (lower + upper) if upper - lower < PINCH_TOL else None


# ---------------------------------------------------------------------------
# exact values for pure states


def pure_pi_norm(v: BipartiteVector) -> float:
    """Projective norm of |v><v| for a unit vector: (sum_l a_l)^2.

    This is the exact value (equivalently the entanglement) of the pure
    state whose Schmidt coefficients are the a_l.
    """
    n = v.norm()
    if abs(n - 1.0) > 1e-8:
        raise ValueError(f"pure_pi_norm expects a unit vector, got norm {n}")
    s = np.linalg.svd(v.as_matrix(), compute_uv=False)
    return float(s.sum() ** 2)


# ---------------------------------------------------------------------------
# upper bounds


def _schmidt_sum(vec: np.ndarray, dh: int, dj: int) -> float:
    return float(np.linalg.svd(vec.reshape(dh, dj), compute_uv=False).sum())


_JACOBI_THETAS = tuple(np.pi * k / 16 for k in range(1, 8))
_JACOBI_PHASES = tuple(np.pi * k / 4 for k in range(8))


def _productize_block(block: np.ndarray, shape: BipartiteShape, max_sweeps: int = 50) -> np.ndarray:
    """Rotate a degenerate eigenblock to reduce sum_j (sum_l a_l(v_j))^2.

    Greedy two-vector Jacobi-style rotations over a fixed angle/phase grid,
    deterministic sweep order.  Any basis of the block yields a valid
    certificate; this only tightens it (e.g. picks product bases over Bell
    bases inside maximally mixed blocks).
    """
    b = block.shape[1]
    if b < 2:
        return block
    # start from the block's projections of e_i (x) f_k, largest first, made orthonormal
    block = block @ qr(block.conj().T, pivoting=True, mode="economic")[0]
    dh, dj = shape.dh, shape.dj
    cols = [block[:, j].copy() for j in range(b)]
    sums = [_schmidt_sum(c, dh, dj) for c in cols]
    for _ in range(max_sweeps):
        improved = False
        for p in range(b):
            for q in range(p + 1, b):
                base = sums[p] ** 2 + sums[q] ** 2
                best = (None, base)
                for th in _JACOBI_THETAS:
                    ct, st = np.cos(th), np.sin(th)
                    for ph in _JACOBI_PHASES:
                        e = np.exp(1j * ph)
                        vp = ct * cols[p] + e * st * cols[q]
                        vq = -np.conj(e) * st * cols[p] + ct * cols[q]
                        sp = _schmidt_sum(vp, dh, dj)
                        sq = _schmidt_sum(vq, dh, dj)
                        val = sp**2 + sq**2
                        if val < best[1] - 1e-12:
                            best = ((vp, vq, sp, sq), val)
                if best[0] is not None:
                    vp, vq, sp, sq = best[0]
                    cols[p], cols[q] = vp, vq
                    sums[p], sums[q] = sp, sq
                    improved = True
        if not improved:
            break
    return np.column_stack(cols)


def _require_hermitian(op: BipartiteOperator, who: str):
    if not op.is_hermitian(EPS_HERM):
        raise ValueError(f"{who} requires a Hermitian operator")


def _spectral_schmidt(op: BipartiteOperator):
    """Eigen-decompose and Schmidt-decompose each eigenvector.

    Degenerate blocks are rotated toward product bases first.  Returns a
    list of (eigenvalue, SchmidtForm) with negligible eigenvalues dropped.
    """
    w, u, blocks = eigh_blocks(op.matrix)
    scale = max(float(np.abs(w).max(initial=0.0)), 1e-300)
    for blk in blocks:
        if blk.stop - blk.start > 1 and abs(w[blk.start]) > 1e-13 * scale:
            u[:, blk] = _productize_block(u[:, blk], op.shape)
    out = []
    for j in range(w.size):
        if abs(w[j]) <= 1e-13 * scale:
            continue
        sf = schmidt_decompose(BipartiteVector(op.shape, u[:, j]))
        out.append((float(w[j]), sf))
    return out


def upper_bound_spectral(op: BipartiteOperator):
    """Projective-norm upper bound from the spectral-Schmidt expansion.

    Each eigenvector is expanded into rank-one simple tensors over its
    Schmidt basis, giving sum_j |lambda_j| (sum_l a_l^(j))^2 with an
    explicit standard decomposition.  For a density operator the value
    never exceeds m = min(d_h, d_j).
    """
    _require_hermitian(op, "upper_bound_spectral")
    return _spectral_standard(_spectral_schmidt(op), op.shape)


def _spectral_standard(spectral: list, shape: BipartiteShape):
    """Weight and standard decomposition of a spectral-Schmidt expansion."""
    terms = []
    value = 0.0
    for lam, sf in spectral:
        a = sf.coefficients
        value += abs(lam) * float(a.sum() ** 2)
        sgn = 1.0 if lam >= 0 else -1.0
        for k in range(sf.rank):
            for l in range(sf.rank):
                x = sgn * np.outer(sf.left_vectors[k], sf.left_vectors[l].conj())
                y = np.outer(sf.right_vectors[k], sf.right_vectors[l].conj())
                terms.append((abs(lam) * a[k] * a[l], x, y))
    return value, StandardDecomposition(terms, shape)


def upper_bound_realignment(op: BipartiteOperator):
    """Projective-norm upper bound from the operator-Schmidt expansion.

    op = sum_k sigma_k (G_k (x) H_k) gives the certified weight
    sum_k sigma_k ||G_k||_1 ||H_k||_1 after renormalizing the factors to
    unit trace-norm product.
    """
    form = operator_schmidt(op)
    terms = []
    value = 0.0
    for s, g, h in zip(form.singular_values, form.left_ops, form.right_ops):
        ng, nh = trace_norm(g), trace_norm(h)
        if ng * nh == 0.0:
            continue
        r = float(s * ng * nh)
        terms.append((r, g / ng, h / nh))
        value += r
    return value, StandardDecomposition(terms, op.shape)


# ---------------------------------------------------------------------------
# lower bounds


def lower_bound_realignment(op: BipartiteOperator) -> float:
    """Trace norm of the realigned matrix: a certified projective-norm
    lower bound (the computable cross-norm inequality)."""
    return nuclear_norm(realign(op))


_STALL_STEPS = 4  # a witness restart stops after this many steps in a row that gain at most tol


def _witness_seesaw(mat: np.ndarray, shape: BipartiteShape, config: SeeSawConfig, use_abs: bool):
    """Maximize <c|D|c> / a_1(c)^2 by projected power iteration on co-isometries.

    Each step replaces c by the polar factor of D c, the maximizer of
    Re <D c, x> over a_1(x) <= 1; for PSD D the objective is convex, so q
    never falls.  With ``use_abs`` the step ascends the PSD matrix
    (e^{-i theta} D + e^{i theta} D^dag) / 2 + ||D||_inf, theta the phase of
    <c|D|c>, so |<c|D|c>| never falls either.
    Restart 0 starts from the extremal eigenvector, the others from seeded
    random vectors, and all advance together as one stack.  A restart stops
    after _STALL_STEPS steps in a row that gain no more than ``tol``
    (relative).  Its best is the first step that reached its largest q; the
    best restart wins, ties to the lowest index.  It runs on D / 2^k, 2^k the
    power of two nearest to ||D||_1, so that no step overflows or
    underflows, and scales q back; the scaling is exact, and k = 0 for densities.
    """
    rng = rng_from_seed(config.seed)
    n = shape.total
    w, u = np.linalg.eigh(mat)
    scale = _power_of_two_near(np.abs(w).sum())
    mat = mat / scale
    order = np.argsort(-np.abs(w)) if use_abs else np.argsort(-w)
    zs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(config.restarts - 1)]
    c = np.array([u[:, order[0]]] + [z / np.linalg.norm(z) for z in zs], dtype=complex)
    shift = np.linalg.norm(mat, 2) if use_abs else 0.0
    # one product per row, so no restart's iterates depend on its stack
    dc = (mat @ c[:, :, None])[:, :, 0]
    best_q, best_c = np.full(len(c), -np.inf), c.copy()
    prev, stall = np.full(len(c), -np.inf), np.zeros(len(c), dtype=int)
    active = np.arange(len(c))
    for _ in range(config.max_iters):
        x, g = c[active], dc[active]
        if use_abs:
            ph = np.exp(-1j * np.angle((x.conj() * g).sum(axis=1)))[:, None]
            g = (ph * g + ph.conj() * (mat.conj().T @ x[:, :, None])[:, :, 0]) / 2 + shift * x
        c[active] = x = _polar_rows(g, shape)
        dc[active] = g = (mat @ x[:, :, None])[:, :, 0]
        val = (x.conj() * g).sum(axis=1)
        q = np.abs(val) if use_abs else val.real
        better = q > best_q[active]
        best_q[active[better]], best_c[active[better]] = q[better], x[better]
        flat = q <= prev[active] + config.tol * np.maximum(np.abs(q), 1.0)
        stall[active] = np.where(flat, stall[active] + 1, 0)
        prev[active] = q
        active = active[stall[active] < _STALL_STEPS]
        if active.size == 0:
            break
    best = int(np.argmax(best_q))
    return float(best_q[best]) * scale, best_c[best]


def _polar_rows(g: np.ndarray, shape: BipartiteShape) -> np.ndarray:
    """The polar factor U V^dag of each row's (d_h, d_j) reshape: a
    co-isometry, every Schmidt coefficient 1, maximizing Re <g, x> over a_1(x) <= 1."""
    u, _, vh = np.linalg.svd(g.reshape(-1, shape.dh, shape.dj), full_matrices=False)
    return (u @ vh).reshape(len(g), -1)


def _power_of_two_near(x: float) -> float:
    """2^k with k the integer nearest to log2(x); 1 for x = 0 or inf."""
    return 2.0 ** round(np.log2(x)) if 0 < x < np.inf else 1.0


def lower_bound_witness(op: BipartiteOperator, config: SeeSawConfig):
    """Certified entanglement-function lower bound from rank-one witnesses.

    Maximizes q(c) = <c|D|c> / a_1(c)^2 over nonzero vectors c; the
    operator F = |c><c| / a_1(c)^2 has injective norm exactly one, so every
    q(c) lower-bounds ent(D) = ||D||_pi.  Returns the best value found and
    its certificate vector.

    Raises
    ------
    ValueError
        If the input is not positive semidefinite beyond EPS_PSD.
    """
    if not op.is_psd(EPS_PSD):
        raise ValueError("lower_bound_witness requires a positive semidefinite operator")
    q, c = _witness_seesaw(op.matrix, op.shape, config, use_abs=False)
    return q, BipartiteVector(op.shape, c)


def witness_value(op: BipartiteOperator, c: BipartiteVector) -> float:
    """Re-evaluate q(c) = <c|D|c| / a_1(c)^2 for a stored certificate."""
    a1 = float(np.linalg.svd(c.as_matrix(), compute_uv=False)[0])
    num = (c.entries.conj() @ (op.matrix @ c.entries)).real
    return float(num / a1**2)


# ---------------------------------------------------------------------------
# Hermitian-norm upper bounds


def hermitian_upper(op: BipartiteOperator):
    """Hermitian-projective-norm upper bound via a signed decomposition.

    The spectral-Schmidt expansion is converted into real combinations of
    product densities: diagonal Schmidt terms stay as pure (x) pure;
    each off-diagonal Hermitian pair splits as
    2 a_k a_l (X_R (x) Y_R - X_I (x) Y_I) followed by positive/negative
    parts.  For a unit pure state the weight is 2 (sum_l a_l)^2 - 1.
    """
    _require_hermitian(op, "hermitian_upper")
    dec = _signed_decomposition(_spectral_schmidt(op), op.shape)
    return dec.weight, dec


def _signed_decomposition(spectral: list, shape: BipartiteShape) -> SignedDecomposition:
    """Signed decomposition of a spectral-Schmidt expansion; terms negligible
    next to the largest eigenvalue are dropped, so the cutoff scales."""
    scale = max((abs(lam) for lam, _ in spectral), default=0.0)
    terms = []
    for lam, sf in spectral:
        a = sf.coefficients
        lv, rv = sf.left_vectors, sf.right_vectors
        for k in range(sf.rank):
            rho = np.outer(lv[k], lv[k].conj())
            sig = np.outer(rv[k], rv[k].conj())
            terms.append((lam * a[k] ** 2, rho, sig))
        for k in range(sf.rank):
            for l in range(k + 1, sf.rank):
                coeff = 2.0 * lam * a[k] * a[l]
                x = np.outer(lv[k], lv[l].conj())
                y = np.outer(rv[k], rv[l].conj())
                for xmat, ymat, sgn in (
                    ((x + x.conj().T) / 2, (y + y.conj().T) / 2, 1.0),
                    ((x - x.conj().T) / 2j, (y - y.conj().T) / 2j, -1.0),
                ):
                    _append_signed_product(terms, sgn * coeff, xmat, ymat)
    terms = [(t, r, s) for t, r, s in terms if abs(t) > 1e-15 * scale]
    return SignedDecomposition(terms, shape)


def _append_signed_product(terms: list, coeff: float, x: np.ndarray, y: np.ndarray):
    """Expand coeff * (X (x) Y) with Hermitian X, Y over product densities.

    X and Y come from unit Schmidt vectors and the operator's scale only
    from ``coeff``, so a part is dropped relative to its factor's trace norm.
    """
    xp, xm = positive_negative_split(x)
    yp, ym = positive_negative_split(y)
    xcut = 1e-15 * float(np.trace(xp + xm).real)
    ycut = 1e-15 * float(np.trace(yp + ym).real)
    for xmat, xsgn in ((xp, 1.0), (xm, -1.0)):
        tx = float(np.trace(xmat).real)
        if tx <= xcut:
            continue
        for ymat, ysgn in ((yp, 1.0), (ym, -1.0)):
            ty = float(np.trace(ymat).real)
            if ty <= ycut:
                continue
            terms.append((coeff * xsgn * ysgn * tx * ty, xmat / tx, ymat / ty))


# ---------------------------------------------------------------------------
# robustness-style decomposition search


def _densities(atom) -> tuple:
    """The factors |phi><phi|, |psi><psi| of an atom: a pair (phi, psi) of unit
    vectors standing for the pure product state |phi><phi| (x) |psi><psi|."""
    phi, psi = atom
    return np.outer(phi, phi.conj()), np.outer(psi, psi.conj())


@dataclass(eq=False)
class RobustnessResult:
    """Outcome of a separable / affine-combination decomposition search.

    Everything but the search record derives from ``decomposition``, which
    is None when the search failed: D = alpha D1 - (alpha-1) D2, with
    alpha = (1 + value) / 2 for unit-trace targets.  ``message`` says which
    phase found the certificate and why the signed search stopped.
    """

    decomposition: SignedDecomposition | None
    rounds_used: int
    message: str = ""

    @property
    def success(self) -> bool:
        return self.decomposition is not None

    @property
    def value(self) -> float:
        """Certified Hermitian weight sum|t_k|; 2 alpha - 1 for densities; NaN on failure."""
        return float("nan") if self.decomposition is None else self.decomposition.weight

    @property
    def alpha(self) -> float:
        return float("nan") if self.decomposition is None else self.decomposition.alpha

    @property
    def d1(self) -> SignedDecomposition | None:
        return self._part(1.0)

    @property
    def d2(self) -> SignedDecomposition | None:
        return self._part(-1.0)

    def _part(self, sign: float) -> SignedDecomposition | None:
        """The terms of one sign renormalized to a product mixture; None if there are none."""
        if self.decomposition is None:
            return None
        part = [(sign * t, r, s) for t, r, s in self.decomposition.terms if sign * t > 0]
        total = sum(t for t, _, _ in part)
        terms = [(t / total, r, s) for t, r, s in part]
        return SignedDecomposition(terms, self.decomposition.shape) if total > 0 else None


def _embed_hermitian(mat: np.ndarray) -> np.ndarray:
    """The n^2 real parameters of a Hermitian matrix: its diagonal, then the
    real and the imaginary parts of its upper triangle times sqrt(2).  The
    embedding is an isometry, emb(X) . emb(Y) = tr(X Y) for Hermitian X, Y."""
    upper = mat[np.triu_indices(mat.shape[0], 1)] * np.sqrt(2.0)
    return np.concatenate([mat.diagonal().real, upper.real, upper.imag])


def _hermitian_from(vec: np.ndarray, n: int) -> np.ndarray:
    """The n x n Hermitian matrix with parameters ``vec``, the inverse of
    :func:`_embed_hermitian`; read from an LP dual y it is the Y with
    tr(Y X) = y . emb(X)."""
    iu = np.triu_indices(n, 1)
    m = iu[0].size
    upper = (vec[n:n + m] + 1j * vec[n + m:]) / np.sqrt(2.0)
    out = np.diag(vec[:n].astype(complex))
    out[iu], out[iu[::-1]] = upper, upper.conj()
    return out


def _column(atom) -> np.ndarray:
    """The atom's product density as a real column of both searches."""
    v = np.kron(*atom)
    return _embed_hermitian(np.outer(v, v.conj()))


def _product_ascent(mats, shape: BipartiteShape, rng, n_starts=5, iters=40, extra_starts=None):
    """Local maxima of <phi (x) psi| R |phi (x) psi> over unit product vectors
    from every start of every R in ``mats``: arrays (owner, value, phi, psi)
    with one entry per start, ``owner`` the index of its matrix.

    Alternating eigenvector ascent, monotone in the objective.  Each matrix
    starts from the leading Schmidt pair of its top eigenvector, then its
    own ``extra_starts[m]``, then ``n_starts - 1`` random pairs drawn from
    ``rng`` in matrix order.  All starts of all matrices advance in one
    stack; a start stops once a step gains no more than 1e-14 (relative).
    """
    dh, dj = shape.dh, shape.dj
    mats = np.stack(mats)
    u = np.linalg.eigh((mats + mats.conj().transpose(0, 2, 1)) / 2)[1]
    owner, phi, psi = [], [], []
    for m, extra in enumerate(extra_starts or [()] * len(mats)):
        lead = schmidt_decompose(BipartiteVector(shape, u[m, :, -1]))
        starts = [(lead.left_vectors[0], lead.right_vectors[0]), *extra]
        for _ in range(n_starts - 1):
            zp = rng.standard_normal(dh) + 1j * rng.standard_normal(dh)
            zq = rng.standard_normal(dj) + 1j * rng.standard_normal(dj)
            starts.append((zp / np.linalg.norm(zp), zq / np.linalg.norm(zq)))
        owner += [m] * len(starts)
        phi += [p for p, _ in starts]
        psi += [q for _, q in starts]
    owner, phi, psi = np.array(owner), np.array(phi, dtype=complex), np.array(psi, dtype=complex)
    t = mats.reshape(-1, dh, dj, dh, dj)[owner]
    val = np.full(owner.size, -np.inf)
    active = np.arange(owner.size)
    for _ in range(iters):
        ta, qa = t[active], psi[active]
        a = np.einsum("bikjl,bk,bl->bij", ta, qa.conj(), qa)
        pa = phi[active] = np.linalg.eigh((a + a.conj().transpose(0, 2, 1)) / 2)[1][:, :, -1]
        b = np.einsum("bikjl,bi,bj->bkl", ta, pa.conj(), pa)
        wb, ub = np.linalg.eigh((b + b.conj().transpose(0, 2, 1)) / 2)
        psi[active], new = ub[:, :, -1], wb[:, -1]
        done = new <= val[active] + 1e-14 * np.maximum(np.abs(new), 1.0)
        val[active] = new
        active = active[~done]
        if active.size == 0:
            break
    return owner, val, phi, psi


def _max_product_expectation(mats, shape: BipartiteShape, rng, n_starts=5, iters=40,
                             extra_starts=None) -> list:
    """Maximize <phi (x) psi| R |phi (x) psi> over unit product vectors for
    each R in ``mats``: one (value, phi, psi) per matrix, the first start of
    :func:`_product_ascent` with the largest value.
    """
    owner, val, phi, psi = _product_ascent(mats, shape, rng, n_starts, iters, extra_starts)
    best = [np.flatnonzero(owner == m)[np.argmax(val[owner == m])] for m in range(len(mats))]
    return [(float(val[i]), phi[i], psi[i]) for i in best]


def _seed_atoms(op: BipartiteOperator) -> list:
    """Products of the local eigenbases of the partial traces."""
    from .core import partial_trace

    ph = partial_trace(op, "j")
    pj = partial_trace(op, "h")
    _, uh = np.linalg.eigh((ph + ph.conj().T) / 2)
    _, uj = np.linalg.eigh((pj + pj.conj().T) / 2)
    atoms = []
    for i in range(uh.shape[1]):
        for k in range(uj.shape[1]):
            atoms.append((uh[:, i].copy(), uj[:, k].copy()))
    return atoms


def _atom_budget(n: int) -> int:
    """Dictionary size of both product-state searches for an n x n target."""
    return max(64, n * n + 32)


def separable_fit(op: BipartiteOperator, config: SeeSawConfig, max_rounds: int = 200):
    """Nonnegative product-mixture fit of a (candidate separable) operator.

    Fully corrective Frank-Wolfe: each round refits all weights by
    nonnegative least squares, min ||sum_k w_k P_k - D||_F, then grows the
    dictionary with the product state most aligned with the residual.  Once
    the residual is small, a periodic refinement pass re-optimizes the
    heaviest active atoms against their leave-one-out residuals, which
    repairs the slow tail on curved faces of the separable set.  Succeeds
    when the mixture reconstructs ``op`` to VALIDATE_TOL in trace norm,
    relative to the target's; every weight cutoff is relative to it too.
    """
    rng = rng_from_seed(config.seed)
    n = op.shape.total
    budget = _atom_budget(n)
    tn_target = max(trace_norm(op.matrix), 1e-300)
    d = _embed_hermitian(op.matrix)
    atoms = _seed_atoms(op)
    cols = [_column(a) for a in atoms]

    weights = np.zeros(len(atoms))
    rounds = 0
    recent = []
    for rounds in range(1, max_rounds + 1):
        a_mat = np.column_stack(cols)
        weights, _ = nnls(a_mat, d)
        gap = d - a_mat @ weights
        residual = _hermitian_from(gap, n)
        err = trace_norm(residual) / tn_target
        if err <= VALIDATE_TOL:
            dec = _decomposition_from(atoms, weights, op.shape, cutoff=1e-14 * tn_target)
            if _reconstruction_error(op, dec, tn_target) > VALIDATE_TOL:
                dec = None  # a part of the target the Hermitian columns cannot see
            return dec, rounds
        recent.append(err)
        if len(recent) > 12:
            recent.pop(0)
            if recent[0] <= recent[-1] * 1.01:
                break  # plateau well above tolerance: target is outside the cone
        [(val, phi, psi)] = _max_product_expectation([residual], op.shape, rng)
        if val <= 1e-13 * tn_target:
            break  # no product direction improves: target is outside the cone
        fresh = [(phi, psi)]
        if rounds % 3 == 0 and err <= 0.1:
            top = np.argsort(-weights)[:12]
            top = top[weights[top] > 1e-12 * tn_target]  # sorted: cut at the first light atom
            if top.size:  # each heavy atom against its leave-one-out residual
                fresh += [(p2, q2) for _, p2, q2 in _max_product_expectation(
                    [_hermitian_from(gap + weights[i] * cols[i], n) for i in top], op.shape, rng,
                    n_starts=2, iters=25, extra_starts=[[atoms[i]] for i in top])]
        atoms += fresh
        cols += [_column(a) for a in fresh]
        if len(atoms) > budget:
            padded = np.concatenate([weights, np.full(len(atoms) - weights.size, np.inf)])
            atoms, cols, weights = _prune(padded, budget, 1e-14 * tn_target, atoms, cols)
    return None, rounds


def _reconstruction_error(op: BipartiteOperator, dec, tn_target: float) -> float:
    """||op - dec.reconstruct()||_1 relative to the target's trace norm, which
    sees what the Hermitian columns cannot: an anti-Hermitian part of op."""
    return trace_norm(op.matrix - dec.reconstruct()) / tn_target


def _decomposition_from(atoms, weights, shape, cutoff: float) -> SignedDecomposition:
    """sum_k w_k (rho_k (x) sigma_k) over the atoms whose |w_k| exceeds ``cutoff``."""
    terms = [(float(w), *_densities(a)) for w, a in zip(weights, atoms) if abs(w) > cutoff]
    return SignedDecomposition(terms, shape)


def _polish_signed(a_mat: np.ndarray, t: np.ndarray, d: np.ndarray, cut: float) -> np.ndarray:
    """Least-squares refit on the LP's support, the weights above ``cut``; the
    LP satisfies the equality constraints only to solver tolerance, the refit
    restores machine-precision reconstruction without changing the support."""
    active = np.abs(t) > cut
    if not active.any():
        return t
    sol, *_ = np.linalg.lstsq(a_mat[:, active], d, rcond=None)
    out = np.zeros_like(t)
    out[active] = sol
    return out


def _prune(weights, budget, cut, *aligned):
    """Keep active atoms (weight above ``cut``) first, then the most recent, up
    to the budget: the kept entries of each list in ``aligned``, then their
    weights."""
    order = sorted(range(len(weights)), key=lambda i: (weights[i] <= cut, -i))
    keep = sorted(order[:budget])
    return [[lst[i] for i in keep] for lst in aligned] + [weights[keep]]


def robustness_upper(op: BipartiteOperator, config: SeeSawConfig,
                     max_rounds: int = 200) -> RobustnessResult:
    """Hermitian-norm upper bound 2 alpha - 1 from D = alpha D1 - (alpha-1) D2.

    Phase 1 tries a pure nonnegative product-mixture fit (alpha = 1).
    Phase 2 is column generation for the weight-minimizing signed
    combination.  The dictionary starts from the signed decomposition built
    by :func:`hermitian_upper` (so the result never exceeds that weight) and
    the local eigenbasis products.  Each round solves the l1-minimal weight
    linear program over the n^2 real parameters of a Hermitian matrix, then
    prices product states against its dual Y: every start of the product
    ascent on [Y, -Y] whose local maximum beats 1 + PRICING_TOL enters,
    near duplicates removed.  Before they enter, the dictionary is pruned to
    :func:`_atom_budget`: atoms with LP weight first, then the newest (an atom
    with weight is never dropped).  It stops when no start beats
    1 + PRICING_TOL, after ``max_rounds``, or when the LP fails, and its
    ``message`` says which.

    Failure to reach reconstruction tolerance returns an explicit
    unsuccessful result instead of raising.
    """
    if not op.is_psd(EPS_PSD):
        raise ValueError("robustness_upper expects a (near-)density operator")
    an = _Analysis(op, config)
    shape = op.shape
    n = shape.total
    tn_target = max(an.trace_norm, 1e-300)

    mixture, rounds1 = separable_fit(op, config, max_rounds)
    if mixture is not None:  # weight equals the trace; 1 for a density
        return RobustnessResult(mixture, rounds1, "nonnegative product mixture found")

    # phase 2: signed search seeded with the constructive decomposition
    base_dec = an.signed
    atoms = [_atom_from_density(rho, sig) for _, rho, sig in base_dec.terms]
    atoms.extend(_seed_atoms(op))

    rng = rng_from_seed(config.seed + 1)
    # HiGHS's tolerances are absolute: the LP fits D / 2^k, 2^k near ||D||_1
    scale = _power_of_two_near(tn_target)
    tn_lp = tn_target / scale
    d = _embed_hermitian(op.matrix) / scale
    cols = [_column(a) for a in atoms]  # one per atom, built as it enters
    cut = 1e-12 * tn_lp
    budget = _atom_budget(n)
    best_weight, best_fit = base_dec.weight / scale, None  # the fit is (atoms, weights)
    rounds, stop = 0, f"max_rounds ({max_rounds}) exhausted"
    for rounds in range(1, max_rounds + 1):
        a_mat = np.column_stack(cols)
        k = a_mat.shape[1]
        res = linprog(
            c=np.ones(2 * k),
            A_eq=np.hstack([a_mat, -a_mat]),
            b_eq=d,
            bounds=(0, None),
            method="highs",
            options={"presolve": False},
        )
        if not res.success:
            stop = f"LP failed: {res.message}"
            break
        t = _polish_signed(a_mat, res.x[:k] - res.x[k:], d, 1e-10 * tn_lp)
        t[np.abs(t) <= cut] = 0.0
        # summed as SignedDecomposition.weight sums, so it equals the built weight
        weight = float(sum(abs(float(w)) for w in t[t != 0.0]))
        if weight < best_weight:
            err = trace_norm(_hermitian_from(a_mat @ t - d, n)) / tn_lp
            if err <= VALIDATE_TOL:
                best_weight, best_fit = weight, (list(atoms), t * scale)
        ymat = _hermitian_from(res.eqlin.marginals, n)
        _, vals, phis, psis = _product_ascent([ymat, -ymat], shape, rng, n_starts=4)
        gain = float(np.abs(vals).max())
        if gain <= 1.0 + PRICING_TOL:
            stop = f"converged: pricing gain {gain:.10f} <= 1 + {PRICING_TOL:g}"
            break
        stop = f"max_rounds ({max_rounds}) exhausted, last pricing gain {gain:.10f}"
        fresh = _distinct_atoms(vals, phis, psis)
        if len(atoms) + len(fresh) > budget:
            keep = max(budget - len(fresh), int(np.count_nonzero(t)))
            atoms, cols, _ = _prune(np.abs(t), keep, 0.0, atoms, cols)
        atoms += fresh
        cols += [_column(a) for a in fresh]

    best = (base_dec if best_fit is None
            else _decomposition_from(*best_fit, shape, cutoff=cut * scale))
    err = _reconstruction_error(op, best, tn_target)
    if err > VALIDATE_TOL:
        return RobustnessResult(None, rounds,
                                f"no certificate: residual {err:.3e} above tolerance; {stop}")
    return RobustnessResult(best, rounds, f"signed decomposition found; {stop}")


def _distinct_atoms(vals, phis, psis) -> list:
    """The ascent's maxima with |value| > 1 + PRICING_TOL as atoms, largest
    first, skipping any whose product fidelity with an earlier one exceeds
    1 - 1e-8."""
    atoms = []
    for i in np.argsort(-np.abs(vals), kind="stable"):
        if abs(vals[i]) <= 1.0 + PRICING_TOL:
            break
        if all(abs(np.vdot(p, phis[i])) ** 2 * abs(np.vdot(q, psis[i])) ** 2 <= 1.0 - 1e-8
               for p, q in atoms):
            atoms.append((phis[i], psis[i]))
    return atoms


def _atom_from_density(rho: np.ndarray, sig: np.ndarray) -> tuple:
    """Nearest pure-product atom when the factors are (nearly) pure; kept
    exact for the rank-one factors produced by hermitian_upper."""
    _, ur = np.linalg.eigh(rho)
    _, us = np.linalg.eigh(sig)
    return ur[:, -1].copy(), us[:, -1].copy()


# ---------------------------------------------------------------------------
# combined bounds


class _Analysis:
    """What the bound providers of one call share about its operator.

    Each attribute is computed at most once, on first use.  An analysis
    serves one top-level call; nothing is stored on the operator.
    """

    def __init__(self, op: BipartiteOperator, config: SeeSawConfig):
        self.op = op
        self.config = config

    @cached_property
    def hermitian(self) -> bool:
        return self.op.is_hermitian(EPS_HERM)

    @cached_property
    def psd(self) -> bool:
        return self.hermitian and self.op.is_psd(EPS_PSD)

    @cached_property
    def trace_norm(self) -> float:
        return trace_norm(self.op.matrix)

    @cached_property
    def realignment_lower(self) -> float:
        return lower_bound_realignment(self.op)

    @cached_property
    def witness(self) -> tuple:
        """Best rank-one witness value and vector; |<c|D|c>| counts unless D is PSD."""
        q, c = _witness_seesaw(self.op.matrix, self.op.shape, self.config, use_abs=not self.psd)
        return q, BipartiteVector(self.op.shape, c)

    @cached_property
    def lower(self) -> tuple:
        """The best of the lower providers: trace norm, realignment, rank-one witness."""
        q, c = self.witness
        lows = [(self.trace_norm, "trace_norm", None),
                (self.realignment_lower, "realignment", None),
                (q, "witness", c)]
        return max(lows, key=lambda p: p[0])

    @cached_property
    def spectral(self) -> list:
        return _spectral_schmidt(self.op)

    @cached_property
    def signed(self) -> SignedDecomposition:
        return _signed_decomposition(self.spectral, self.op.shape)

    def bounds(self, include_robustness: bool = True,
               extra_decompositions: tuple = ()) -> NormBounds:
        """The brackets :func:`pi_bounds` reports, from the provider lists."""
        op = self.op
        low = self.lower
        if not self.hermitian:
            split = (_hermitian_split_upper(op), "hermitian_split", None)
            return _norm_bounds({"pi_lower": low, "pi_upper": split}, op.shape.total, indirect=True)

        us, dec_s = _spectral_standard(self.spectral, op.shape)
        ur, dec_r = upper_bound_realignment(op)
        ups = [(us, "spectral", dec_s), (ur, "realignment", dec_r),
               (self.signed.weight, "signed", self.signed)]
        if include_robustness and self.psd:
            rb = robustness_upper(op, self.config)
            if rb.success:
                ups.append((rb.value, "robustness", rb.decomposition))
        for dec in extra_decompositions:
            report = validate_decomposition(op, dec)
            if report.valid:
                ups.append((report.weight, "supplied", dec))
        up = min(ups, key=lambda p: p[0])
        # a signed decomposition is also a standard one: its weight bounds both norms
        h_ups = [p for p in ups if isinstance(p[2], SignedDecomposition)]
        h_up = min(h_ups + [(2.0 * up[0], "twice_pi_upper", up[2])], key=lambda p: p[0])
        return _norm_bounds({"pi_lower": low, "pi_upper": up, "h_lower": low, "h_upper": h_up},
                            op.shape.total)


def _norm_bounds(winners: dict, n: int, indirect: bool = False) -> NormBounds:
    """NormBounds from the winning (value, method, certificate) of each bound,
    rounded outward for an n-dimensional operator; a bound with no winner
    (Hermitian bounds of indirect input) reads NaN."""
    values = {name: outward(winners[name][0], n, up=name.endswith("upper")) if name in winners
              else float("nan") for name in ("pi_lower", "pi_upper", "h_lower", "h_upper")}
    return NormBounds(**values, methods={k: p[1] for k, p in winners.items()},
                      certificates={k: p[2] for k, p in winners.items()}, indirect=indirect)


def _hermitian_split_upper(op: BipartiteOperator) -> float:
    """Triangle-inequality upper bound for non-Hermitian input via Hermitian parts."""
    mat = op.matrix
    up = 0.0
    for part in ((mat + mat.conj().T) / 2, (mat - mat.conj().T) / 2j):
        hop = BipartiteOperator(op.shape, part)
        us, _ = upper_bound_spectral(hop)
        ur, _ = upper_bound_realignment(hop)
        up += min(us, ur)
    return up


def pi_bounds(
    op: BipartiteOperator,
    config: SeeSawConfig,
    include_robustness: bool = True,
    extra_decompositions: tuple = (),
) -> NormBounds:
    """Certified projective / Hermitian-norm brackets for an operator.

    Lower: max of trace norm, realignment and the rank-one witness value.
    Upper: min over the spectral-Schmidt, operator-Schmidt and signed
    certificates, the robustness search when asked for, and the supplied
    decompositions that validate (a signed decomposition is also a standard
    one, so its weight bounds both norms).  Non-Hermitian input keeps the
    same lower bounds; its upper bound splits it into Hermitian parts,
    bounded by the triangle inequality, and is flagged ``indirect``.
    """
    return _Analysis(op, config).bounds(include_robustness, extra_decompositions)


def ent(op: BipartiteOperator, config: SeeSawConfig, **kwargs) -> NormBounds:
    """Entanglement-function bounds for a density operator.

    At finite dimension every state has finite entanglement equal to its
    projective norm, so this is :func:`pi_bounds` restricted to densities.
    The function is convex in the state, equals 1 exactly on separable
    states (and exceeds 1 otherwise), and is invariant under local
    unitaries; the invariants are exercised by the test suite.
    """
    if not op.is_density():
        raise ValueError("ent expects a density operator (PSD, unit trace)")
    return pi_bounds(op, config, **kwargs)


# ---------------------------------------------------------------------------
# certificate validation


@dataclass(eq=False)
class ValidationReport:
    valid: bool
    kind: str
    weight: float
    reconstruction_error: float
    normalization_error: float
    certifies_pi_upper: bool
    certifies_h_upper: bool
    positive: bool = False
    optimal: bool = False
    messages: list = field(default_factory=list)


def validate_decomposition(target: BipartiteOperator, dec) -> ValidationReport:
    """Check a decomposition against its target; reports, never raises.

    A valid standard decomposition certifies a projective-norm upper bound
    equal to its weight; a valid signed decomposition certifies a
    Hermitian-norm (hence projective-norm) upper bound.  An all-positive
    signed decomposition of a density is flagged optimal: its weight equals
    the trace, which pins every norm in the chain.
    """
    tn_target = max(trace_norm(target.matrix), 1e-300)
    messages = []
    # signed first: a signed decomposition is also a StandardDecomposition
    if isinstance(dec, SignedDecomposition):
        norm_err = 0.0
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
        tr_err = abs(sum(t for t, _, _ in dec.terms) - target.trace().real)
        if tr_err > VALIDATE_TOL * tn_target:
            messages.append(f"weights sum to trace off by {tr_err:.3e}")
        positive = dec.is_positive
    elif isinstance(dec, StandardDecomposition):
        norm_err = 0.0
        for r, x, y in dec.terms:
            norm_err = max(norm_err, abs(trace_norm(x) * trace_norm(y) - 1.0))
            if r < -1e-12:
                messages.append(f"negative weight {r}")
        if norm_err > 1e-9:
            messages.append(f"factor normalization off by {norm_err:.3e}")
        positive = False
    else:
        return ValidationReport(
            valid=False, kind=type(dec).__name__, weight=float("nan"),
            reconstruction_error=float("nan"), normalization_error=float("nan"),
            certifies_pi_upper=False, certifies_h_upper=False,
            messages=["unknown decomposition type"],
        )

    recon_err = _reconstruction_error(target, dec, tn_target)
    if recon_err > VALIDATE_TOL:
        messages.append(f"reconstruction error {recon_err:.3e} above tolerance")
    valid = not messages
    kind = dec.kind
    optimal = bool(valid and kind == "signed" and positive)
    return ValidationReport(
        valid=valid,
        kind=kind,
        weight=dec.weight,
        reconstruction_error=float(recon_err),
        normalization_error=float(norm_err),
        certifies_pi_upper=valid,
        certifies_h_upper=bool(valid and kind == "signed"),
        positive=positive,
        optimal=optimal,
        messages=messages,
    )
