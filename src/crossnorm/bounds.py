"""Certified bounds on the projective and Hermitian projective norms.

Each provider, search or validator call wraps its operator D in one
private ``_Analysis``.  It divides D once by 2^k, k the integer nearest
log2 ||D||_1 (:func:`core.unit_scale`, whose SVD also gives the unit trace
norm), and computes the shared work on that unit operator at most once, on
first use: the eigendecomposition, the Hermitian, PSD and negative partial
transpose (NPT) flags, which every input check reads, realignment bound,
witness and product-mixture searches, spectral-Schmidt expansion and its
signed atoms.  No kernel scales for itself: every bound reported for D, by
``pi_bounds`` or a single provider, passes one rounding rule,
:meth:`_Analysis.reported`.
Over it sit one list of lower and one list of upper providers, each a
``(value, method, certificate)`` triple.  Lower: the trace norm and the
realignment (computable cross norm) inequality, which dominates every
rank-one witness (:attr:`_Analysis.lower`).  Upper: the spectral-Schmidt
and operator-Schmidt expansions, a signed decomposition over product
densities and a robustness-style search for affine combinations of separable
states.  A witness or product mixture the analysis already found counts
too.  Non-Hermitian input is bounded through its two Hermitian parts.
Every bound carries a certificate that can be re-checked independently of
how it was produced, and every reported bound is rounded outward by 4 n eps
(relative) to cover floating-point error.

The spectral-Schmidt, signed (:func:`_signed_atoms`) and operator-Schmidt
certificates are closed form, each built by broadcasts over stacked arrays
with the arithmetic and term order of a loop over its terms.  Every atom
set is a pair of stacks (phis, psis), and the signed atoms also start the
robustness search.  The witness see-saw is projected
power iteration on co-isometries (:func:`_witness_seesaw`); only PSD
operators reach it, from ``classify``, the CLI isotropic sweep and
:func:`lower_bound_witness`.  The product-state ascent
(:func:`_product_ascent`) prices the next atoms of both mixture searches,
``separable_fit`` and the robustness search's phase 2; its loop calls
NumPy's LAPACK driver for ``eigh`` directly (:func:`_eigh`).  Both searches
share one column format, :func:`_embed_hermitian` of the stack of entering
atoms' densities (:func:`_columns`), so residuals come from the columns and
no product matrix is kept, and either returns a mixture only after it
reconstructs the target to VALIDATE_TOL in trace norm, within MAX_ROUNDS
rounds.  ``separable_fit`` also moves its weighted atoms by
Levenberg-Marquardt on the factors of the mixture (:func:`_polish_mixture`),
which ends Frank-Wolfe's slow tail on the boundary of the separable set.
Phase 2 solves each round's linear program cold through scipy's bundled
HiGHS, called directly (:func:`_min_weight_lp`): the constraint matrix goes
over as CSC arrays, into one HiGHS workspace per search that is cleared
before every solve and dropped with the search.

Upper certificates are one container family.  A ``StandardDecomposition``
sum_k r_k X_k (x) Y_k certifies a projective-norm upper bound, its weight.
A ``SignedDecomposition`` sum_k t_k rho_k (x) sigma_k over product
densities is a standard one too, and its weight sum_k |t_k| also bounds
the Hermitian norm; the robustness search and ``separable_fit`` return it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, reduce

import numpy as np
from scipy.linalg import qr
from scipy.optimize import (
    linprog,  # unused here; the benchmark's tracer looks up and spans bounds.linprog by name
    nnls,
)
from scipy.optimize._highspy import _core as _highs  # private scipy API, in scipy >= 1.17.1

from .core import (
    EPS_HERM,
    EPS_PSD,
    EPS_TRACE,
    BipartiteOperator,
    BipartiteShape,
    BipartiteVector,
    complex_to_pairs,
    eigh_blocks,
    equal_runs,
    nuclear_norm,
    on_support,
    partial_trace,
    partial_transpose,
    realign,
    rng_from_seed,
    operator_schmidt,
    scaled_outward,
    schmidt_forms,
    trace_norm,
    unit_scale,
    _fix_phases,
)
from .gnorm import SeeSawConfig, g_norm_rank_one

VALIDATE_TOL = 1e-8
PINCH_TOL = 1e-6
PRICING_TOL = 1e-7  # the signed search stops when no product state prices above 1 + this
MAX_ROUNDS = 200  # rounds of each mixture search, separable_fit and robustness phase 2


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

    def scaled(self, k: int):
        """The same decomposition of target * 2^k: every coefficient times 2^k."""
        if k == 0:
            return self
        with np.errstate(over="ignore"):  # an overflowing term's bound reads inf
            terms = [(float(np.ldexp(w, k)), x, y) for w, x, y in self.terms]
        return type(self)(terms, self.shape)

    def _stacks(self) -> tuple:
        """The terms as arrays: coefficients (K,), X_k (K, d_h, d_h), Y_k (K, d_j, d_j)."""
        dh, dj = self.shape.dh, self.shape.dj
        w = np.array([t[0] for t in self.terms])
        x = np.array([t[1] for t in self.terms], dtype=complex).reshape(-1, dh, dh)
        y = np.array([t[2] for t in self.terms], dtype=complex).reshape(-1, dj, dj)
        return w, x, y

    def reconstruct(self) -> np.ndarray:
        """sum_k w_k (X_k (x) Y_k) in one contraction."""
        n = self.shape.total
        return np.einsum("k,kac,kbd->abcd", *self._stacks(), optimize=True).reshape(n, n)

    def to_dict(self) -> dict:
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
    within PINCH_TOL 2^scale_exponent, the k of the operator's unit scale
    (:func:`core.unit_scale`; 0 for every density).
    """

    pi_lower: float
    pi_upper: float
    h_lower: float
    h_upper: float
    methods: dict = field(default_factory=dict)
    certificates: dict = field(default_factory=dict)
    indirect: bool = False
    scale_exponent: int = 0

    def pi_value(self):
        return _pinched(self.pi_lower, self.pi_upper, self.scale_exponent)

    def h_value(self):
        return _pinched(self.h_lower, self.h_upper, self.scale_exponent)

    def to_dict(self) -> dict:
        d = {"pi_lower": self.pi_lower, "pi_upper": self.pi_upper,
             "h_lower": None if np.isnan(self.h_lower) else self.h_lower,
             "h_upper": None if np.isnan(self.h_upper) else self.h_upper,
             "methods": dict(self.methods), "indirect": self.indirect}
        for key, value in (("pi_value", self.pi_value()), ("h_value", self.h_value())):
            if value is not None:
                d[key] = value
        return d


def _pinched(lower: float, upper: float, k: int):
    """The midpoint of a bracket pinched to within PINCH_TOL 2^k, else None (also
    for NaN); each end is halved first, so no sum overflows near the largest float."""
    return 0.5 * lower + 0.5 * upper if upper - lower < np.ldexp(PINCH_TOL, k) else None


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
    return nuclear_norm(v.as_matrix()) ** 2


# ---------------------------------------------------------------------------
# upper bounds


_JACOBI_THETAS = tuple(np.pi * k / 16 for k in range(1, 8))
_JACOBI_PHASES = tuple(np.pi * k / 4 for k in range(8))
# (p, q) -> (ct p + e st q, -conj(e) st p + ct q) over the grid, theta outer: three columns
_JACOBI_CT, _JACOBI_EST, _JACOBI_NEST = (np.array(c)[:, None] for c in zip(*[
    (np.cos(th), np.exp(1j * ph) * np.sin(th), -np.conj(np.exp(1j * ph)) * np.sin(th))
    for th in _JACOBI_THETAS for ph in _JACOBI_PHASES]))
_PRODUCT_SUM = 1.0 + 1e-13  # a unit vector's Schmidt sum is 1 exactly when it is product


def _productize_block(block: np.ndarray, shape: BipartiteShape, max_sweeps: int = 50) -> np.ndarray:
    """Rotate a degenerate eigenblock to reduce sum_j (sum_l a_l(v_j))^2.

    Greedy two-vector Jacobi-style rotations over a fixed angle/phase grid,
    deterministic sweep order; the first grid point that lowers a pair's sum
    by more than 1e-12 below the best so far wins.  All rotations of a pair
    are scored by one stacked SVD; a pair of product columns is skipped, as
    two unit vectors' sums are at least 1 each.  Any basis of the block
    yields a valid certificate; this only tightens it (e.g. picks product
    bases over Bell bases inside maximally mixed blocks).
    """
    b = block.shape[1]
    block = block @ _pivoted_rotation(block)
    dh, dj = shape.dh, shape.dj
    cols = [block[:, j].copy() for j in range(b)]
    sums = [nuclear_norm(c.reshape(dh, dj)) for c in cols]
    for _ in range(max_sweeps):
        improved = False
        for p in range(b):
            for q in range(p + 1, b):
                if max(sums[p], sums[q]) <= _PRODUCT_SUM:
                    continue
                vp = _JACOBI_CT * cols[p] + _JACOBI_EST * cols[q]
                vq = _JACOBI_NEST * cols[p] + _JACOBI_CT * cols[q]
                sv = np.linalg.svd(np.stack([vp, vq], axis=1).reshape(-1, 2, dh, dj),
                                   compute_uv=False).sum(axis=-1)
                vals = sv[:, 0] ** 2 + sv[:, 1] ** 2
                best, best_val = None, sums[p] ** 2 + sums[q] ** 2
                for k, val in enumerate(vals):
                    if val < best_val - 1e-12:
                        best, best_val = k, val
                if best is not None:
                    cols[p], cols[q] = vp[best], vq[best]
                    sums[p], sums[q] = float(sv[best, 0]), float(sv[best, 1])
                    improved = True
        if not improved:
            break
    return np.column_stack(cols)


def _pivoted_rotation(block: np.ndarray) -> np.ndarray:
    """The unitary that takes orthonormal columns to their span's
    projections of the unit vectors, largest first, made orthonormal
    (pivoted QR).  The rotated basis is the same, up to column phases,
    whichever basis of the span comes in, so it does not move with scale."""
    return qr(block.conj().T, pivoting=True, mode="economic")[0]


def _spectral_schmidt(eig: tuple, shape: BipartiteShape):
    """Schmidt-decompose the eigenvectors of :func:`core.eigh_blocks` all at once
    (:func:`core.schmidt_forms`), degenerate blocks of a copy rotated toward product
    bases first: (eigenvalue, SchmidtForm) pairs, negligible eigenvalues dropped."""
    w, u, blocks = eig
    u = u.copy()  # the caller's vectors stay as eigh returned them
    cut = 1e-13 * np.abs(w).max(initial=0.0)
    for blk in blocks:
        if blk.stop - blk.start > 1 and abs(w[blk.start]) > cut:
            u[:, blk] = _productize_block(u[:, blk], shape)
    kept = np.flatnonzero(np.abs(w) > cut)
    return [(float(w[j]), sf) for j, sf in zip(kept, schmidt_forms(u[:, kept].T, shape))]


def upper_bound_spectral(op: BipartiteOperator):
    """Projective-norm upper bound from the spectral-Schmidt expansion.

    Each eigenvector is expanded into rank-one simple tensors over its
    Schmidt basis, giving sum_j |lambda_j| (sum_l a_l^(j))^2 with an
    explicit standard decomposition.  For a density operator the value
    never exceeds m = min(d_h, d_j).
    """
    an = _Analysis(op)
    if not an.hermitian:
        raise ValueError("upper_bound_spectral requires a Hermitian operator")
    return an.reported_upper(*_spectral_standard(an.spectral, op.shape))


def _spectral_standard(spectral: list, shape: BipartiteShape):
    """Weight and standard decomposition of a spectral-Schmidt expansion; each
    lam gives |lam| a_k a_l, sign(lam) u_k u_l^dag (x) v_k v_l^dag in one broadcast."""
    terms = []
    value = 0.0
    for lam, sf in spectral:
        a, lv, rv = sf.coefficients, sf.left_vectors, sf.right_vectors
        value += abs(lam) * float(a.sum() ** 2)
        sgn = 1.0 if lam >= 0 else -1.0
        xs = sgn * (lv[:, None, :, None] * lv.conj()[None, :, None, :])
        ys = rv[:, None, :, None] * rv.conj()[None, :, None, :]
        terms += zip((abs(lam) * a[:, None] * a[None, :]).ravel(),
                     xs.reshape(-1, shape.dh, shape.dh), ys.reshape(-1, shape.dj, shape.dj))
    return value, StandardDecomposition(terms, shape)


def upper_bound_realignment(op: BipartiteOperator):
    """Projective-norm upper bound from the operator-Schmidt expansion.

    op = sum_k sigma_k (G_k (x) H_k) gives the certified weight
    sum_k sigma_k ||G_k||_1 ||H_k||_1 after renormalizing the factors to
    unit trace-norm product.  Each run of equal sigma_k is rotated so that
    its G_k are the run's projections of the matrix units (see
    :func:`_pivoted_rotation`), whatever basis the SVD returned.
    """
    an = _Analysis(op)
    return an.reported_upper(*_realignment_upper(an.unit))


def _realignment_upper(op: BipartiteOperator) -> tuple:
    """:func:`upper_bound_realignment` of a unit operator; the trace norms of
    all G_k, and of all H_k, come from one stacked values-only SVD each."""
    form = operator_schmidt(op)
    sv, gs, hs = form.singular_values, form.left_ops, form.right_ops
    for run in equal_runs(sv):
        if run.stop - run.start > 1:  # G -> G Q, H -> Q^dag H keeps sum_k G_k (x) H_k
            q = _pivoted_rotation(gs[run].reshape(run.stop - run.start, -1).T)
            gs[run], hs[run] = np.tensordot(q.T, gs[run], 1), np.tensordot(q.conj().T, hs[run], 1)
    ng, nh = (np.linalg.svd(f, compute_uv=False).sum(axis=-1) for f in (gs, hs))
    live = ng * nh != 0.0
    rs = (sv[live] * ng[live] * nh[live]).tolist()
    value = reduce(float.__add__, rs, 0.0)  # summed left to right, term by term
    terms = zip(rs, gs[live] / ng[live, None, None], hs[live] / nh[live, None, None])
    return value, StandardDecomposition(list(terms), op.shape)


# ---------------------------------------------------------------------------
# lower bounds


def lower_bound_realignment(op: BipartiteOperator) -> float:
    """Trace norm of the realigned matrix: a certified projective-norm
    lower bound (the computable cross-norm inequality)."""
    an = _Analysis(op)
    return an.reported(an.realignment_lower, up=False)


_STALL_STEPS = 4  # a witness restart stops after this many steps in a row that gain at most tol


def _witness_seesaw(mat: np.ndarray, shape: BipartiteShape, config: SeeSawConfig,
                    ceiling: float, start: np.ndarray):
    """Maximize <c|D|c> / a_1(c)^2 by projected power iteration on co-isometries.

    Each step replaces c by the polar factor of D c, the maximizer of
    Re <D c, x> over a_1(x) <= 1; for PSD D, all that reaches it, the
    objective is convex, so q never falls.
    Restart 0 starts from the unit vector ``start``, the top eigenvector of
    (D + D^dag) / 2 (:attr:`_Analysis.eig`), the others from seeded random
    vectors, drawn in one call; all advance as one stack.  A restart stops after
    _STALL_STEPS steps in a row that gain no more than ``tol`` (relative, or
    absolute below |q| = 1: D is the unit operator of its analysis).  The
    whole stack stops once a restart comes within that same ``tol`` of
    ``ceiling``, a bound no q exceeds: ||R(D)||_1 (:attr:`_Analysis.lower`)
    stops it at the cost of at most ``tol``, and ``np.inf`` runs every
    restart to its stall.  Each restart's best is the first step that
    reached its largest q; the best restart wins, ties to the lowest index.
    """
    rng = rng_from_seed(config.seed)
    z = rng.standard_normal((config.restarts - 1, 2, shape.total))  # real, then imaginary part
    z = z[:, 0] + 1j * z[:, 1]
    c = np.concatenate([start[None, :], z / np.linalg.norm(z, axis=1)[:, None]])
    reach = ceiling - config.tol * max(abs(ceiling), 1.0) if np.isfinite(ceiling) else np.inf
    # one product per row, so no restart's iterates depend on its stack
    dc = (mat @ c[:, :, None])[:, :, 0]
    best_q, best_c = np.full(len(c), -np.inf), c.copy()
    prev, stall = np.full(len(c), -np.inf), np.zeros(len(c), dtype=int)
    active = np.arange(len(c))
    for _ in range(config.max_iters):
        c[active] = x = _polar_rows(dc[active], shape)
        dc[active] = g = (mat @ x[:, :, None])[:, :, 0]
        q = (x.conj() * g).sum(axis=1).real
        better = q > best_q[active]
        best_q[active[better]], best_c[active[better]] = q[better], x[better]
        if best_q.max() >= reach:
            break
        flat = q <= prev[active] + config.tol * np.maximum(np.abs(q), 1.0)
        stall[active] = np.where(flat, stall[active] + 1, 0)
        prev[active] = q
        active = active[stall[active] < _STALL_STEPS]
        if active.size == 0:
            break
    best = int(np.argmax(best_q))
    return float(best_q[best]), best_c[best]


def _polar_rows(g: np.ndarray, shape: BipartiteShape) -> np.ndarray:
    """The polar factor U V^dag of each row's (d_h, d_j) reshape: a
    co-isometry, every Schmidt coefficient 1, maximizing Re <g, x> over a_1(x) <= 1."""
    u, _, vh = np.linalg.svd(g.reshape(-1, shape.dh, shape.dj), full_matrices=False)
    return (u @ vh).reshape(len(g), -1)


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
    an = _Analysis(op, config)
    if not an.psd:
        raise ValueError("lower_bound_witness requires a positive semidefinite operator")
    q, c = an.witness
    return an.reported(q, up=False), c


def witness_value(op: BipartiteOperator, c: BipartiteVector) -> float:
    """Re-evaluate q(c) = <c|D|c> / a_1(c)^2 for a stored certificate;
    a zero c raises ValueError (:func:`gnorm.g_norm_rank_one`)."""
    num = (c.entries.conj() @ (op.matrix @ c.entries)).real
    return float(num / g_norm_rank_one(c))


# ---------------------------------------------------------------------------
# Hermitian-norm upper bounds


def hermitian_upper(op: BipartiteOperator):
    """Hermitian-projective-norm upper bound via a signed decomposition.

    The spectral-Schmidt expansion is written as a real combination of pure
    product densities, see :func:`_signed_atoms`.  For a unit pure state
    the weight is 2 (sum_l a_l)^2 - 1.
    """
    an = _Analysis(op)
    if not an.hermitian:
        raise ValueError("hermitian_upper requires a Hermitian operator")
    return an.reported_upper(an.signed.weight, an.signed)


# an off-diagonal Schmidt pair's eight atoms, phi outer: s phi, t phi (columns) and +-s t
_PAIR_U, _PAIR_V, _PAIR_SIGN = (np.array(c) for c in zip(*[
    ([s * phi], [t * phi], sign * s * t) for phi, sign in ((1.0, 1.0), (1j, -1.0))
    for s, t in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))]))


def _signed_atoms(spectral: list, shape: BipartiteShape) -> tuple:
    """A spectral-Schmidt expansion as real weights on pure product atoms.

    A diagonal Schmidt term lam a_k^2 is the atom (u_k, v_k).  For
    orthonormal Schmidt vectors an off-diagonal pair,
    2 lam a_k a_l (X_R (x) Y_R - X_I (x) Y_I), is exactly the eight atoms
    ((u_k + s phi u_l) / sqrt 2, (v_k + t phi v_l) / sqrt 2), s, t = +-1 and
    phi in {1, i}, each of weight lam a_k a_l / 2 times s t for phi = 1 and
    -s t for phi = i.  Returns (phis (K, d_h), psis (K, d_j), weights (K,)),
    atom k the rows phis[k], psis[k], without the weights at most 1e-15
    max|lam|, so the cutoff scales with the operator.  Each eigenvalue gives
    its diagonal atoms, then its pairs k < l, k outer, from one broadcast.
    """
    cut = 1e-15 * max((abs(lam) for lam, _ in spectral), default=0.0)
    phis, psis, ws = [np.empty((0, shape.dh), complex)], [np.empty((0, shape.dj), complex)], [[]]
    for lam, sf in spectral:
        a, lv, rv = sf.coefficients, sf.left_vectors, sf.right_vectors
        k, l = _upper_indices(sf.rank)
        phis += [lv, ((lv[k, None] + _PAIR_U * lv[l, None]) / np.sqrt(2.0)).reshape(-1, shape.dh)]
        psis += [rv, ((rv[k, None] + _PAIR_V * rv[l, None]) / np.sqrt(2.0)).reshape(-1, shape.dj)]
        # scalar powers: np.float64 ** 2 is pow(), which an array's square can miss by an ulp
        ws += [[lam * ak**2 for ak in a], (_PAIR_SIGN * lam * a[k, None] * a[l, None] / 2).ravel()]
    ws = np.concatenate(ws)
    keep = np.abs(ws) > cut
    return np.concatenate(phis)[keep], np.concatenate(psis)[keep], ws[keep]


# ---------------------------------------------------------------------------
# robustness-style decomposition search


@dataclass(eq=False)
class RobustnessResult:
    """Outcome of a separable / affine-combination decomposition search.

    Everything but the search record derives from ``decomposition``, which
    is None when the search failed: D = alpha D1 - (alpha-1) D2, with
    alpha = (1 + value) / 2 for unit-trace targets, D1 and D2 the positive
    and the negative terms.  ``message`` says which phase found the
    certificate and why the signed search stopped.
    """

    decomposition: SignedDecomposition | None
    rounds_used: int
    message: str = ""

    @property
    def success(self) -> bool:
        return self.decomposition is not None

    @property
    def value(self) -> float:
        """The certificate's weight sum|t_k|, unrounded: 2 alpha - 1 for
        densities, NaN on failure.  :func:`pi_bounds` reports it through
        ``_Analysis.reported``, rounded outward."""
        return float("nan") if self.decomposition is None else self.decomposition.weight

    @property
    def alpha(self) -> float:
        return float("nan") if self.decomposition is None else self.decomposition.alpha


@cache
def _upper_indices(n: int) -> tuple:
    """``np.triu_indices(n, 1)``, read-only, so one pair serves every call."""
    iu = np.triu_indices(n, 1)
    for idx in iu:
        idx.flags.writeable = False
    return iu


def _embed_hermitian(mat: np.ndarray) -> np.ndarray:
    """The n^2 real parameters of a Hermitian matrix, or of each matrix of a
    stack: its diagonal, then the real and the imaginary parts of its upper
    triangle times sqrt(2).  The embedding is an isometry, emb(X) . emb(Y) =
    tr(X Y) for Hermitian X, Y."""
    iu = _upper_indices(mat.shape[-1])
    upper = mat[..., iu[0], iu[1]] * np.sqrt(2.0)
    return np.concatenate([mat.diagonal(axis1=-2, axis2=-1).real, upper.real, upper.imag],
                          axis=-1)


def _hermitian_from(vec: np.ndarray, n: int) -> np.ndarray:
    """The n x n Hermitian matrix with parameters ``vec``, the inverse of
    :func:`_embed_hermitian`; read from an LP dual y it is the Y with
    tr(Y X) = y . emb(X)."""
    iu = _upper_indices(n)
    m = iu[0].size
    upper = (vec[n:n + m] + 1j * vec[n + m:]) / np.sqrt(2.0)
    out = np.diag(vec[:n].astype(complex))
    out[iu], out[iu[::-1]] = upper, upper.conj()
    return out


def _columns(phis: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """The atoms' product densities as real columns of both searches, one row
    per atom: :func:`_embed_hermitian` of the stack of |v><v|, v = phis[k] (x) psis[k]."""
    v = (phis[:, :, None] * psis[:, None, :]).reshape(len(phis), phis.shape[1] * psis.shape[1])
    return _embed_hermitian(v[:, :, None] * v.conj()[:, None, :])


def _eigh_failed(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _lapack_errstate():
    """The floating-point error state ``np.linalg.eigh`` runs LAPACK in: a
    failed solve, which the driver flags as invalid, raises LinAlgError, and
    every other flag is ignored."""
    return np.errstate(call=_eigh_failed, invalid="call", over="ignore", divide="ignore",
                       under="ignore")


def _eigh(a: np.ndarray) -> tuple:
    """``np.linalg.eigh(a)`` of a stack of complex Hermitian matrices, bit for
    bit: the LAPACK driver it calls (private numpy API), without its checks
    and conversions.  Call it under :func:`_lapack_errstate`, which makes it
    raise LinAlgError where ``eigh`` does."""
    return np.linalg._umath_linalg.eigh_lo(a, signature="D->dD")


def _product_ascent(mats, shape: BipartiteShape, rng, n_starts=5, iters=40, extra_starts=None,
                    scale=1.0):
    """Local maxima of <phi (x) psi| R |phi (x) psi> over unit product vectors
    from every start of every R in ``mats``: arrays (owner, value, phi, psi)
    with one entry per start, ``owner`` the index of its matrix.

    Alternating eigenvector ascent, monotone in the objective.  Each matrix
    starts from the leading Schmidt pair of its top eigenvector, then its
    own ``extra_starts[m]``, pairs of unit vectors, then ``n_starts - 1``
    random pairs drawn from ``rng`` in matrix order.  All starts of all
    matrices advance in one stack; a start stops once a step gains no more
    than 1e-14 max(|value|, ``scale``), so the stop moves with the matrices
    when ``scale`` does (their trace norm, say).
    """
    dh, dj = shape.dh, shape.dj
    mats = np.stack(mats)
    u = np.linalg.eigh((mats + mats.conj().transpose(0, 2, 1)) / 2)[1]
    u, _, vh = np.linalg.svd(u[:, :, -1].reshape(-1, dh, dj), full_matrices=False)
    lead_phi, lead_psi = _fix_phases(u[:, :, 0], vh[:, 0, :])
    owner, phi, psi = [], [], []
    for m, extra in enumerate(extra_starts or [()] * len(mats)):
        starts = [(lead_phi[m], lead_psi[m]), *extra]
        for _ in range(n_starts - 1):
            zp = rng.standard_normal(dh) + 1j * rng.standard_normal(dh)
            zq = rng.standard_normal(dj) + 1j * rng.standard_normal(dj)
            starts.append((zp / np.linalg.norm(zp), zq / np.linalg.norm(zq)))
        owner += [m] * len(starts)
        phi += [p for p, _ in starts]
        psi += [q for _, q in starts]
    owner, phi, psi = np.array(owner), np.array(phi, dtype=complex), np.array(psi, dtype=complex)
    val = np.full(owner.size, -np.inf)
    # the running starts: indices, tensors, phi, psi and last values, written back as they stop
    active, ta = np.arange(owner.size), mats.reshape(-1, dh, dj, dh, dj)[owner]
    pa, qa, va = phi, psi, val
    with _lapack_errstate():
        for _ in range(iters):
            a = np.einsum("bikjl,bk,bl->bij", ta, qa.conj(), qa)
            a += a.conj().transpose(0, 2, 1)
            a /= 2
            pa = _eigh(a)[1][:, :, -1]
            b = np.einsum("bikjl,bi,bj->bkl", ta, pa.conj(), pa)
            b += b.conj().transpose(0, 2, 1)
            b /= 2
            wb, ub = _eigh(b)
            qa, new = ub[:, :, -1].copy(), wb[:, -1]
            done = new <= va + 1e-14 * np.maximum(np.abs(new), scale)
            va = new
            if done.any():
                stop, go = active[done], ~done
                phi[stop], psi[stop], val[stop] = pa[done], qa[done], va[done]
                active, ta, pa, qa, va = active[go], ta[go], pa[go], qa[go], va[go]
                if active.size == 0:
                    break
    phi[active], psi[active], val[active] = pa, qa, va  # the starts that ran out of steps
    return owner, val, phi, psi


def _seed_atoms(op: BipartiteOperator) -> tuple:
    """Products of the local eigenbases of the partial traces, (phis, psis), H's outer."""
    uh, uj = (np.linalg.eigh((p + p.conj().T) / 2)[1] for p in (partial_trace(op, "j"),
                                                              partial_trace(op, "h")))
    return np.repeat(uh.T, len(uj), axis=0), np.tile(uj.T, (len(uh), 1))


def _atom_budget(n: int) -> int:
    """Dictionary size of robustness phase 2 for an n x n target; the drop
    step keeps :func:`separable_fit` below it."""
    return max(64, n * n + 32)


def separable_fit(op: BipartiteOperator, config: SeeSawConfig):
    """Nonnegative product-mixture fit of a (candidate separable) operator.

    Fully corrective Frank-Wolfe with drop steps and a local step, the
    alternating descent conditional gradient method (ADCG; Boyd, Schiebinger
    & Recht 2017).  Each round refits all weights by nonnegative least
    squares, min ||sum_k w_k P_k - D||_F, and drops the atoms it leaves
    without weight.  Once the error is at most 0.1 of the target's trace
    norm, but above VALIDATE_TOL, :func:`_polish_mixture` moves the weighted
    atoms themselves by Levenberg-Marquardt, and the moved atoms, refit by
    NNLS, replace the dictionary when their trace-norm error is lower; this
    ends Frank-Wolfe's slow tail on the curved faces of the separable set.
    Then every distinct local maximum of the product ascent on the residual
    above 1e-13 ||D||_1 enters, largest first.  NNLS keeps linearly
    independent columns, so the dictionary never holds more than n^2 atoms
    plus one round's five fresh ones, within :func:`_atom_budget`.  Succeeds
    when the mixture reconstructs ``op`` to VALIDATE_TOL in trace norm
    relative to the target's (1 for the zero operator) within MAX_ROUNDS
    rounds; every weight cutoff is relative to it too.  The fit runs on the
    unit operator of ``op`` (:class:`_Analysis`), and the mixture is scaled
    back; its weight is unrounded: :func:`pi_bounds` rounds it outward.
    """
    an = _Analysis(op, config)
    op, rng, n = an.unit, rng_from_seed(config.seed), op.shape.total
    tn_target = an.trace_norm or 1.0
    cut = 1e-14 * tn_target
    d = _embed_hermitian(op.matrix)
    phis, psis = _seed_atoms(op)
    cols = _columns(phis, psis)  # row k: atom k's column

    rounds = 0
    recent = []
    for rounds in range(1, MAX_ROUNDS + 1):
        weights, residual, err = _nnls_fit(cols, d, n, tn_target)
        if VALIDATE_TOL < err <= 0.1:
            moved = _polished_atoms(phis, psis, weights, d, cut)
            cols2 = _columns(*moved)
            weights2, residual2, err2 = _nnls_fit(cols2, d, n, tn_target)
            if err2 < err:
                (phis, psis), cols, weights, residual, err = moved, cols2, weights2, residual2, err2
        if err <= VALIDATE_TOL:
            dec = _decomposition_from(phis, psis, weights, op.shape, cutoff=cut)
            if _reconstruction_error(op, dec, tn_target) > VALIDATE_TOL:
                return None, rounds  # a part of the target the Hermitian columns cannot see
            return dec.scaled(an.k), rounds
        recent.append(err)
        if len(recent) > 12:
            recent.pop(0)
            if recent[0] <= recent[-1] * 1.01:
                break  # plateau well above tolerance: target is outside the cone
        _, vals, new_phis, new_psis = _product_ascent([residual], op.shape, rng, scale=tn_target)
        fresh = _distinct_atoms(vals, new_phis, new_psis, 1e-13 * tn_target)
        if not len(fresh[0]):
            break  # no product direction improves: target is outside the cone
        kept = np.flatnonzero(weights > cut)  # the drop step
        phis, psis = np.concatenate([phis[kept], fresh[0]]), np.concatenate([psis[kept], fresh[1]])
        cols = np.concatenate([cols[kept], _columns(*fresh)])
    return None, rounds


def _nnls_fit(cols: np.ndarray, d: np.ndarray, n: int, tn_target: float) -> tuple:
    """NNLS weights of the columns (one row per atom) for the target's
    parameters d, the residual target - fit as a matrix, and its trace norm
    relative to ``tn_target``."""
    a_mat = cols.T.copy()
    # scipy's default of 3 iterations per column can run out on degenerate targets
    weights, _ = nnls(a_mat, d, maxiter=50 * a_mat.shape[1])
    residual = _hermitian_from(d - a_mat @ weights, n)
    return weights, residual, trace_norm(residual) / tn_target


def _polished_atoms(phis, psis, weights, d: np.ndarray, cut: float) -> tuple:
    """The atoms with weight above ``cut`` after :func:`_polish_mixture`, each
    started at w^(1/4) (phi, psi) and normalized again, as (phis, psis); an
    atom polished to zero is dropped."""
    live, dh = np.flatnonzero(weights > cut), phis.shape[1]
    z = np.concatenate([phis[live], psis[live]], axis=1) * weights[live, None] ** 0.25
    z = _polish_mixture(z, dh, d)
    nu, nv = np.linalg.norm(z[:, :dh], axis=1), np.linalg.norm(z[:, dh:], axis=1)
    ok = nu * nv > 0.0
    return z[ok, :dh] / nu[ok, None], z[ok, dh:] / nv[ok, None]


def _mixture_residual(z: np.ndarray, dh: int, d: np.ndarray) -> np.ndarray:
    """emb(sum_k (u_k u_k^dag) (x) (v_k v_k^dag)) - d, emb :func:`_embed_hermitian`,
    for the factor rows z_k = (u_k, v_k), u_k the first ``dh`` entries."""
    x = (z[:, :dh, None] * z[:, None, dh:]).reshape(len(z), -1)
    return _embed_hermitian(x.T @ x.conj()) - d


def _mixture_jacobian(z: np.ndarray, dh: int) -> np.ndarray:
    """The Jacobian of :func:`_mixture_residual` in the real parameters of the
    rows z_k, transposed: shape (K, 2, m, n^2), entry [k, 0, j] the derivative
    along Re z_kj and [k, 1, j] along Im z_kj.

    With x_k = u_k (x) v_k and a direction dx of x_k, the model moves by
    F + F^dag (real part) or i (F - F^dag) (imaginary part), F = dx x_k^dag;
    dx is e_a (x) v_k for u_k's entry a and u_k (x) e_c for v_k's entry c.
    Only F's diagonal and its entries on both sides of the upper triangle
    are formed, one direction j at a time, so no (K, m, n, n) stack is."""
    k, m = z.shape
    u, v = z[:, :dh], z[:, dh:]
    dj, n = m - dh, dh * (m - dh)
    x = (u[:, :, None] * v[:, None, :]).reshape(k, n)
    xc = x.conj()
    dx = np.zeros((k, m, dh, dj), dtype=complex)
    ah, aj = np.arange(dh), np.arange(dj)
    dx[:, ah, ah, :] = v[:, None, :]
    dx[:, dh + aj, :, aj] = u
    dx = dx.reshape(k, m, n)
    iu = _upper_indices(n)
    nu, s2 = iu[0].size, np.sqrt(2.0)
    jt = np.empty((k, 2, m, n * n))
    diag = dx * xc[:, None, :]
    jt[:, 0, :, :n] = 2.0 * diag.real
    jt[:, 1, :, :n] = -2.0 * diag.imag
    for j in range(m):
        f_ij = dx[:, j, iu[0]] * xc[:, iu[1]]  # F_ij, i < j
        f_ji = dx[:, j, iu[1]].conj() * x[:, iu[0]]  # conj(F_ji)
        re, im = jt[:, 0, j], jt[:, 1, j]
        np.multiply(f_ij.real + f_ji.real, s2, out=re[:, n:n + nu])
        np.multiply(f_ij.imag + f_ji.imag, s2, out=re[:, n + nu:])
        np.multiply(f_ji.imag - f_ij.imag, s2, out=im[:, n:n + nu])
        np.multiply(f_ij.real - f_ji.real, s2, out=im[:, n + nu:])
    return jt


_POLISH_STEPS = 30  # Levenberg-Marquardt solves per polish


def _polish_mixture(z: np.ndarray, dh: int, d: np.ndarray) -> np.ndarray:
    """Levenberg-Marquardt on ||:func:`_mixture_residual`||_2 over the factor
    rows z_k = (u_k, v_k), returning the best rows found.

    Each of at most _POLISH_STEPS iterations takes one ``np.linalg.solve``
    in the residual length n^2, mostly below the parameter count p:
    (J^T J + lam I)^-1 J^T r = J^T (J J^T + lam I)^-1 r.  A step is taken
    only if it lowers the residual; then lam falls by 3 and J is rebuilt,
    else lam doubles.  lam starts at 1e-3 of J^T J's mean diagonal, which
    also keeps the solve regular along the factors' gauge directions.  Two
    tests end the polish early, the epsilon stops of Madsen, Nielsen &
    Tingleff (2004, sec. 3.2): before a solve, once ||r|| <= eps ||d||, as
    nothing is left to fit in double precision; after a solve, once
    ||step|| <= eps ||z||, as the step cannot move the factors."""
    eps = np.finfo(float).eps
    r = _mixture_residual(z, dh, d)
    cost, floor, lam, jt = r @ r, eps**2 * (d @ d), None, None
    for _ in range(_POLISH_STEPS):
        if cost <= floor:
            break
        if jt is None:
            jt = _mixture_jacobian(z, dh).reshape(-1, r.size)
            gram = jt.T @ jt
            diag = gram.diagonal().copy()
            if lam is None:  # tr(J J^T) = tr(J^T J)
                lam = 1e-3 * diag.sum() / len(jt)
        gram.flat[::len(gram) + 1] = diag + lam  # the damped Gram matrix, in place
        step = (jt @ np.linalg.solve(gram, r)).reshape(len(z), 2, -1)
        if step.ravel() @ step.ravel() <= eps**2 * np.vdot(z, z).real:
            break
        trial = z - (step[:, 0] + 1j * step[:, 1])
        r_new = _mixture_residual(trial, dh, d)
        c_new = r_new @ r_new
        if c_new < cost:
            z, r, cost, jt = trial, r_new, c_new, None
            lam /= 3.0
        else:
            lam *= 2.0
    return z


def _reconstruction_error(op: BipartiteOperator, dec, tn_target: float) -> float:
    """||op - dec.reconstruct()||_1 relative to the target's trace norm, which
    sees what the Hermitian columns cannot: an anti-Hermitian part of op."""
    return trace_norm(op.matrix - dec.reconstruct()) / tn_target


def _decomposition_from(phis, psis, weights, shape, cutoff: float) -> SignedDecomposition:
    """sum_k w_k |phi_k><phi_k| (x) |psi_k><psi_k| over the atoms (phi_k, psi_k),
    rows of ``phis`` and ``psis`` and unit vectors, whose |w_k| exceeds
    ``cutoff``: one mask, then every outer product in one broadcast."""
    keep = np.abs(weights) > cutoff
    ps, qs = phis[keep], psis[keep]
    rhos = ps[:, :, None] * ps.conj()[:, None, :]
    sigmas = qs[:, :, None] * qs.conj()[:, None, :]
    return SignedDecomposition(list(zip(weights[keep].tolist(), rhos, sigmas)), shape)


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


def _lp_workspace():
    """A quiet HiGHS instance with presolve off, the options
    ``linprog(method="highs", options={"presolve": False})`` gives its own;
    one serves every LP of a search, through :func:`_min_weight_lp`."""
    highs = _highs._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("presolve", "off")
    return highs


def _min_weight_lp(a_mat: np.ndarray, d: np.ndarray, highs) -> tuple:
    """The least weight sum_k |t_k| with A t = d, as the linear program over
    columns [A, -A], each of cost 1 and bounded below by 0, with its rows
    fixed at d.  One cold HiGHS dual-simplex solve in the workspace
    ``highs`` (:func:`_lp_workspace`), cleared of the previous model first:
    the model and options ``linprog(method="highs")`` passes, handed over as
    arrays, so t and the row duals y (``linprog``'s ``eqlin.marginals``) are
    its own, bit for bit, without its wrapper's cost.  Returns
    (ok, t, y, message); t and y are None unless ok."""
    m, k = a_mat.shape
    cols = a_mat.T  # row j: column j of A; a CSC matrix stores its nonzeros column by column
    nz = cols != 0.0
    index = np.nonzero(nz)[1].astype(np.int32)
    value = cols[nz]
    counts = nz.sum(axis=1)
    start = np.zeros(2 * k, dtype=np.int32)  # column starts, no trailing count
    np.cumsum(np.concatenate([counts, counts])[:-1], out=start[1:])
    highs.clearModel()
    highs.passModel(2 * k, m, 2 * value.size, int(_highs.MatrixFormat.kColwise),
                    int(_highs.ObjSense.kMinimize), 0.0, np.ones(2 * k), np.zeros(2 * k),
                    np.full(2 * k, _highs.kHighsInf), d, d, start,
                    np.concatenate([index, index]), np.concatenate([value, -value]),
                    np.zeros(2 * k, dtype=np.int32))
    highs.run()
    status = highs.getModelStatus()
    if status != _highs.HighsModelStatus.kOptimal:
        return False, None, None, f"HiGHS model status {highs.modelStatusToString(status)}"
    sol = highs.getSolution()
    x = np.array(sol.col_value)
    return True, x[:k] - x[k:], np.array(sol.row_dual), "optimal"


def _prune(weights: np.ndarray, budget: int) -> np.ndarray:
    """The indices, ascending, of the atoms to keep: active ones (weight
    above 0) first, then the most recent, up to the budget."""
    order = np.lexsort((-np.arange(weights.size), weights <= 0.0))
    return np.sort(order[:budget])


def robustness_upper(op: BipartiteOperator, config: SeeSawConfig) -> RobustnessResult:
    """Hermitian-norm upper bound 2 alpha - 1 from D = alpha D1 - (alpha-1) D2.

    Phase 1 is the product-mixture search (alpha = 1), which
    ``_Analysis.npt`` may rule out.  Phase 2 is column generation for the
    weight-minimizing signed combination.  The dictionary
    starts from the atoms of the signed decomposition of
    :func:`hermitian_upper` (so the result never exceeds its weight), then
    the local eigenbasis products.  Each round solves the l1-minimal
    weight linear program over the n^2 real parameters of a Hermitian
    matrix, one cold HiGHS solve (:func:`_min_weight_lp`, in one workspace
    per search), then prices
    product states against its dual Y by the product ascent on [Y, -Y],
    5 steps from each matrix's lead start and the 8 heaviest atoms of the
    LP's support, those of positive weight on Y and of negative weight on
    -Y (they price at exactly 1); no start is random, so phase 2 does not
    depend on the seed.  Every start whose local maximum beats
    1 + PRICING_TOL enters, near duplicates removed.  Before they enter,
    the dictionary is pruned to :func:`_atom_budget`: atoms with LP weight
    first, then the newest (an atom with weight is never dropped).  When
    the short pricing finds nothing, the same starts run to 40 steps, and
    the search stops as converged only if that finds nothing either; it
    also stops after MAX_ROUNDS rounds or when the LP fails, and its
    ``message`` says which.

    Failure to reach reconstruction tolerance returns an explicit
    unsuccessful result instead of raising.  Both phases run on the unit
    operator of ``op`` (:class:`_Analysis`), and the decomposition is
    scaled back.
    """
    an = _Analysis(op, config)
    if not an.psd:
        raise ValueError("robustness_upper expects a (near-)density operator")
    res = _robustness(an)
    if res.success:
        res.decomposition = res.decomposition.scaled(an.k)
    return res


def _robustness(an: _Analysis) -> RobustnessResult:
    """:func:`robustness_upper` with its decomposition left at unit scale."""
    op, shape, n = an.unit, an.op.shape, an.op.shape.total
    tn_lp = an.trace_norm or 1.0

    mixture, rounds1 = an.mixture
    if mixture is not None:  # weight equals the trace; 1 for a density
        return RobustnessResult(mixture, rounds1, "nonnegative product mixture found")

    # phase 2: signed search seeded with the constructive decomposition's atoms
    base_dec = an.signed
    (phis, psis, _), (seed_phis, seed_psis) = an.signed_atoms, _seed_atoms(op)
    phis, psis = np.concatenate([phis, seed_phis]), np.concatenate([psis, seed_psis])

    d = _embed_hermitian(op.matrix)
    cols = _columns(phis, psis)  # row k: atom k's column, built as it enters
    highs = _lp_workspace()
    cut = 1e-12 * tn_lp
    budget = _atom_budget(n)
    best_weight, best_fit = base_dec.weight, None  # the fit is (phis, psis, weights)
    rounds, stop = 0, f"max_rounds ({MAX_ROUNDS}) exhausted"
    for rounds in range(1, MAX_ROUNDS + 1):
        a_mat = cols.T.copy()
        ok, t, y, message = _min_weight_lp(a_mat, d, highs)
        if not ok:
            stop = f"LP failed: {message}"
            break
        t = _polish_signed(a_mat, t, d, 1e-10 * tn_lp)
        t[np.abs(t) <= cut] = 0.0
        # summed as SignedDecomposition.weight sums, so it equals the built weight
        weight = float(sum(abs(float(w)) for w in t[t != 0.0]))
        if weight < best_weight:
            err = trace_norm(_hermitian_from(a_mat @ t - d, n)) / tn_lp
            if err <= VALIDATE_TOL:
                best_weight, best_fit = weight, (phis, psis, t)
        ymat = _hermitian_from(y, n)
        # the heaviest support atoms price at exactly 1: t_k > 0 on Y, t_k < 0 on -Y
        heavy = [i for i in np.argsort(-np.abs(t), kind="stable")[:8] if t[i] != 0.0]
        starts = [[(phis[i], psis[i]) for i in heavy if sign * t[i] > 0.0] for sign in (1.0, -1.0)]
        for iters in (5, 40):  # a short pricing each round, the full one only to prove the stop
            _, vals, new_phis, new_psis = _product_ascent([ymat, -ymat], shape, None, n_starts=1,
                                                          iters=iters, extra_starts=starts)
            gain = float(np.abs(vals).max())
            if gain > 1.0 + PRICING_TOL:
                break
        if gain <= 1.0 + PRICING_TOL:
            stop = f"converged: pricing gain {gain:.10f} <= 1 + {PRICING_TOL:g}"
            break
        stop = f"max_rounds ({MAX_ROUNDS}) exhausted, last pricing gain {gain:.10f}"
        fresh = _distinct_atoms(np.abs(vals), new_phis, new_psis, 1.0 + PRICING_TOL)
        if len(phis) + len(fresh[0]) > budget:
            keep = _prune(np.abs(t), max(budget - len(fresh[0]), int(np.count_nonzero(t))))
            phis, psis, cols = phis[keep], psis[keep], cols[keep]
        phis, psis = np.concatenate([phis, fresh[0]]), np.concatenate([psis, fresh[1]])
        cols = np.concatenate([cols, _columns(*fresh)])

    best = base_dec if best_fit is None else _decomposition_from(*best_fit, shape, cutoff=cut)
    err = _reconstruction_error(op, best, tn_lp)
    if err > VALIDATE_TOL:
        return RobustnessResult(None, rounds,
                                f"no certificate: residual {err:.3e} above tolerance; {stop}")
    return RobustnessResult(best, rounds, f"signed decomposition found; {stop}")


def _distinct_atoms(vals, phis, psis, floor: float) -> tuple:
    """The ascent's maxima with value above ``floor`` as atoms (phis, psis), largest
    first, skipping any whose product fidelity with an earlier one exceeds 1 - 1e-8."""
    kept = []
    for i in np.argsort(-vals, kind="stable"):
        if vals[i] <= floor:
            break
        if all(abs(np.vdot(phis[j], phis[i])) ** 2 * abs(np.vdot(psis[j], psis[i])) ** 2
               <= 1.0 - 1e-8 for j in kept):
            kept.append(i)
    return phis[kept], psis[kept]


# ---------------------------------------------------------------------------
# combined bounds


class _Analysis:
    """What the bound providers of one call share about its operator.

    ``unit`` is the operator divided by 2^k (:func:`core.unit_scale`), and
    every attribute below is about it.  Every bound reported for the
    operator leaves through :meth:`reported`, decompositions through their
    ``scaled(k)``.  Each attribute, each search too, is computed at most
    once, on first use; the trace norm comes with the scale, and :attr:`eig`
    is the one eigendecomposition.  An analysis serves one top-level call;
    nothing is stored on the operator.  ``config`` seeds the searches and
    may be None where none runs.
    """

    def __init__(self, op: BipartiteOperator, config: SeeSawConfig | None = None):
        self.op = op
        self.config = config
        unit, self.k, self.trace_norm = unit_scale(op.matrix)
        self.unit = BipartiteOperator(op.shape, unit)

    def reported(self, value: float, up: bool) -> float:
        """A bound on ``unit`` as reported for the operator, the one rounding
        rule: moved outward by 4 n eps relative, n = d_h d_j, and scaled back
        by 2^k (:func:`core.scaled_outward`)."""
        return scaled_outward(value, self.op.shape.total, self.k, up)

    def reported_upper(self, value: float, dec) -> tuple:
        """An upper bound on ``unit`` and its certificate, both reported for the operator."""
        return self.reported(value, up=True), dec.scaled(self.k)

    @cached_property
    def hermitian(self) -> bool:
        return self.unit.is_hermitian(EPS_HERM)

    @cached_property
    def eig(self) -> tuple:
        """:func:`core.eigh_blocks` of ``unit``: PSD flag, witness start and spectral read it."""
        return eigh_blocks(self.unit.matrix)

    @cached_property
    def psd(self) -> bool:
        """No eigenvalue below -EPS_PSD max|entry|, the rule of ``BipartiteOperator.is_psd``."""
        return self.hermitian and bool(self.eig[0][-1] >= -EPS_PSD * self.unit.scale())

    @cached_property
    def density(self) -> bool:
        """PSD with unit trace; the trace target is absolute, so its tolerance is too."""
        return self.psd and abs(self.op.trace() - 1.0) <= EPS_TRACE

    @cached_property
    def npt(self) -> bool:
        """lambda_min(H^Gamma) < -2 VALIDATE_TOL ||D||_1, H = (D + D^dag) / 2: then no
        product mixture S passes :func:`separable_fit`, which needs S^Gamma >= 0 and
        ||(H - S)^Gamma||_inf <= ||D - S||_1 <= VALIDATE_TOL ||D||_1 (x2: rounding)."""
        pt = partial_transpose(self.unit)
        lam = np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0]
        return bool(lam < -2 * VALIDATE_TOL * self.trace_norm)

    @cached_property
    def realignment_lower(self) -> float:
        """||R(D)||_1, the SVD on R(D)'s nonzero rows and columns only
        (:func:`core.on_support`): a sparse operator, such as a truncated
        family's, has many zero ones."""
        return nuclear_norm(on_support(realign(self.unit)))

    @cached_property
    def witness(self) -> tuple:
        """Best rank-one witness value (of the unit D) and vector.  The search
        stops once a restart reaches :attr:`realignment_lower`, which no
        witness exceeds (:attr:`lower`), within the search's ``tol``."""
        q, c = _witness_seesaw(self.unit.matrix, self.op.shape, self.config,
                               self.realignment_lower, self.eig[1][:, 0])
        return q, BipartiteVector(self.op.shape, c)

    @property
    def lower(self) -> tuple:
        """The trace norm or realignment, or a witness already found here.

        No witness search starts: for W = |c><c| / a_1(c)^2, R(W) =
        C (x) conj(C) / a_1(c)^2 (C the reshaped c) has operator norm 1 and
        R keeps the Hilbert-Schmidt inner product, so by Hoelder
        |tr(D W)| <= ||R(D)||_1 for every D: a witness wins only by rounding."""
        lows = [(self.trace_norm, "trace_norm", None),
                (self.realignment_lower, "realignment", None)]
        if "witness" in vars(self):
            q, c = self.witness
            lows.append((q, "witness", c))
        return max(lows, key=lambda p: p[0])

    @cached_property
    def mixture(self) -> tuple:
        """:func:`separable_fit` of ``unit``, or (None, 0) when :attr:`npt` rules it out."""
        return (None, 0) if self.npt else separable_fit(self.unit, self.config)

    @cached_property
    def spectral(self) -> list:
        return _spectral_schmidt(self.eig, self.op.shape)

    @cached_property
    def signed_atoms(self) -> tuple:
        """The spectral-Schmidt expansion as (phis, psis, weights) over pure products."""
        return _signed_atoms(self.spectral, self.op.shape)

    @cached_property
    def signed(self) -> SignedDecomposition:
        return _decomposition_from(*self.signed_atoms, self.op.shape, cutoff=0.0)

    def bounds(self, include_robustness: bool = True) -> NormBounds:
        """The brackets :func:`pi_bounds` reports, from the provider lists; a
        mixture found here already counts, after the robustness search,
        which returns the same mixture and so wins the tie."""
        if not self.hermitian:
            value, dec = _hermitian_split_upper(self.unit)
            split = (value, "hermitian_split", dec)
            return self.norm_bounds({"pi_lower": self.lower, "pi_upper": split}, indirect=True)

        us, dec_s = _spectral_standard(self.spectral, self.op.shape)
        ur, dec_r = _realignment_upper(self.unit)
        ups = [(us, "spectral", dec_s), (ur, "realignment", dec_r),
               (self.signed.weight, "signed", self.signed)]
        if include_robustness and self.psd:
            rb = _robustness(self)
            if rb.success:
                ups.append((rb.decomposition.weight, "robustness", rb.decomposition))
        if "mixture" in vars(self) and self.mixture[0] is not None:
            ups.append((self.mixture[0].weight, "separable_fit", self.mixture[0]))
        up, low = min(ups, key=lambda p: p[0]), self.lower
        # a signed decomposition is also a standard one: its weight bounds both norms
        h_ups = [p for p in ups if isinstance(p[2], SignedDecomposition)]
        h_up = min(h_ups + [(2.0 * up[0], "twice_pi_upper", up[2])], key=lambda p: p[0])
        return self.norm_bounds({"pi_lower": low, "pi_upper": up, "h_lower": low, "h_upper": h_up})

    def norm_bounds(self, winners: dict, indirect: bool = False) -> NormBounds:
        """NormBounds from the winning (value, method, certificate) of each bound
        on ``unit``, each value :meth:`reported`; a bound with no winner
        (Hermitian bounds of indirect input) reads NaN."""
        values = {name: self.reported(winners[name][0], up=name.endswith("upper"))
                  if name in winners else float("nan")
                  for name in ("pi_lower", "pi_upper", "h_lower", "h_upper")}
        certs = {name: p[2].scaled(self.k) if isinstance(p[2], StandardDecomposition) else p[2]
                 for name, p in winners.items()}
        return NormBounds(**values, methods={name: p[1] for name, p in winners.items()},
                          certificates=certs, indirect=indirect, scale_exponent=self.k)


def _hermitian_split_upper(op: BipartiteOperator) -> tuple:
    """Triangle-inequality upper bound for non-Hermitian input: D = A + iB
    with A, B Hermitian, each bounded by the lighter of its spectral and
    realignment certificates.  The certificate joins the two, B's X factors
    times i."""
    mat = op.matrix
    up, terms = 0.0, []
    for phase, part in ((1.0, (mat + mat.conj().T) / 2), (1j, (mat - mat.conj().T) / 2j)):
        hop = BipartiteOperator(op.shape, part)
        spectral = _spectral_schmidt(eigh_blocks(part), op.shape)
        value, dec = min(_spectral_standard(spectral, op.shape),
                         _realignment_upper(hop), key=lambda p: p[0])
        up += value
        terms += [(r, phase * x, y) for r, x, y in dec.terms]
    return up, StandardDecomposition(terms, op.shape)


def pi_bounds(op: BipartiteOperator, config: SeeSawConfig,
              include_robustness: bool = True) -> NormBounds:
    """Certified projective / Hermitian-norm brackets for an operator.

    Lower: max of trace norm and realignment, which no rank-one witness
    exceeds (see :attr:`_Analysis.lower`), so no witness search runs.
    Upper: min over the spectral-Schmidt, operator-Schmidt and signed
    certificates and the robustness search when asked for, whose phase 1 is
    the product-mixture search (a signed decomposition is also a standard
    one, so its weight bounds both norms).  Non-Hermitian input keeps the
    same lower bounds; its upper bound splits it into Hermitian parts,
    bounded by the triangle inequality, and is flagged ``indirect``.
    """
    return _Analysis(op, config).bounds(include_robustness)


def ent(op: BipartiteOperator, config: SeeSawConfig, include_robustness: bool = True) -> NormBounds:
    """Entanglement-function bounds for a density operator.

    At finite dimension every state has finite entanglement equal to its
    projective norm, so this is :func:`pi_bounds` restricted to densities.
    The function is convex in the state, equals 1 exactly on separable
    states (and exceeds 1 otherwise), and is invariant under local
    unitaries; the invariants are exercised by the test suite.
    """
    an = _Analysis(op, config)
    if not an.density:
        raise ValueError("ent expects a density operator (PSD, unit trace)")
    return an.bounds(include_robustness)


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
    the trace, which pins every norm in the chain.  The checks compare the
    target's unit operator (:func:`core.unit_scale`) with the decomposition
    scaled by the same 2^k, so they hold at every scale.  Each check runs
    over the stacked factors at once (one ``eigvalsh`` or values-only ``svd``
    per tensor side, one contraction for the reconstruction); the messages
    keep term order.
    """
    if not isinstance(dec, StandardDecomposition):
        return ValidationReport(
            valid=False, kind=type(dec).__name__, weight=float("nan"),
            reconstruction_error=float("nan"), normalization_error=float("nan"),
            certifies_pi_upper=False, certifies_h_upper=False,
            messages=["unknown decomposition type"],
        )
    an = _Analysis(target)
    target, unit_dec, tn_target = an.unit, dec.scaled(-an.k), an.trace_norm or 1.0
    messages, positive = [], False
    # signed first: a signed decomposition is also a StandardDecomposition
    ts, xs, ys = unit_dec._stacks()
    if isinstance(dec, SignedDecomposition):
        not_psd, trace_err = [], []
        for fac in (xs, ys):
            w = np.linalg.eigvalsh((fac + fac.conj().transpose(0, 2, 1)) / 2)
            not_psd.append(w.min(axis=1, initial=0.0) < -EPS_PSD)
            trace_err.append(np.abs(np.trace(fac, axis1=1, axis2=2).real - 1.0))
        norm_err = float(np.fmax.reduce(np.concatenate(trace_err), initial=0.0))
        zero = np.abs(ts) == 0.0
        for i in np.flatnonzero(not_psd[0] | not_psd[1] | zero):  # in term order
            messages += (["factor not PSD"] * (int(not_psd[0][i]) + int(not_psd[1][i]))
                         + ["zero weight term"] * int(zero[i]))
        if norm_err > 1e-8:
            messages.append(f"factor trace off by {norm_err:.3e}")
        tr_err = abs(sum(t for t, _, _ in unit_dec.terms) - target.trace().real)
        if not tr_err <= VALIDATE_TOL * tn_target:
            messages.append(f"weights sum to trace off by {tr_err:.3e}")
        positive = dec.is_positive
    else:
        tn_x, tn_y = (np.linalg.svd(f, compute_uv=False).sum(axis=1) for f in (xs, ys))
        norm_err = float(np.fmax.reduce(np.abs(tn_x * tn_y - 1.0), initial=0.0))
        messages += [f"negative weight {unit_dec.terms[i][0]}" for i in np.flatnonzero(ts < -1e-12)]
        if norm_err > 1e-9:
            messages.append(f"factor normalization off by {norm_err:.3e}")

    recon_err = _reconstruction_error(target, unit_dec, tn_target)
    if not recon_err <= VALIDATE_TOL:
        messages.append(f"reconstruction error {recon_err:.3e} above tolerance")
    valid = not messages
    signed = valid and dec.kind == "signed"
    return ValidationReport(valid=valid, kind=dec.kind, weight=dec.weight,
                            reconstruction_error=float(recon_err),
                            normalization_error=float(norm_err), certifies_pi_upper=valid,
                            certifies_h_upper=signed, positive=positive,
                            optimal=bool(signed and positive), messages=messages)
