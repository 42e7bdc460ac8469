"""Separability classification with explicit certificates.

A state is separable exactly when its projective norm equals one, so the
classifier hunts for one of two certificates: a rank-one witness whose
injective norm is exactly one and whose expectation exceeds one
(Entangled), or a weight-one nonnegative product mixture reconstructing
the state (Separable).  States yielding neither within budget stay
Undecided.  A state whose partial transpose is not positive (Peres) has no
product mixture, so the search is skipped for it; on every other state it
runs before the witness search.  The witness search runs only when the
realignment bound exceeds one: it never beats realignment.  The
partial-transpose oracle is test plumbing for shapes where PPT is decisive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import (
    PINCH_TOL,
    NormBounds,
    SignedDecomposition,
    _Analysis,
    pi_bounds,  # unused here; the benchmark's tests patch and restore separability.pi_bounds
    witness_value,
)
from .core import (
    EPS_HERM,
    BipartiteOperator,
    BipartiteShape,
    BipartiteVector,
    kron,
    operator_norm,
    operator_schmidt,
    partial_transpose,
    random_density,
    rng_from_seed,
    schmidt_decompose,
)
from .gnorm import SeeSawConfig, g_norm_rank_one, g_norm_seesaw


@dataclass(eq=False)
class Witness:
    """Hermitian observable with a certified injective-norm upper bound.

    ``g_norm_certified_upper`` is exact (equal to the norm) for both
    constructions, rank-one witnesses scaled to injective norm one.
    """

    operator: BipartiteOperator
    g_norm_certified_upper: float
    construction: str  # "E_N" | "rank-one"
    vector: BipartiteVector | None = None

    def expectation(self, state: BipartiteOperator) -> float:
        return float(np.trace(state.matrix @ self.operator.matrix).real)

    def to_dict(self) -> dict:
        from .core import to_state_dict

        d = {
            "construction": self.construction,
            "g_norm_certified_upper": self.g_norm_certified_upper,
            "operator": to_state_dict(self.operator),
        }
        if self.vector is not None:
            d["vector"] = to_state_dict(self.vector)
        return d


@dataclass(eq=False)
class Classification:
    verdict: str  # "Separable" | "Entangled" | "Undecided"
    certificate: object
    bounds: NormBounds | None = None
    detection_value: float | None = None
    message: str = ""

    def to_dict(self) -> dict:
        d = {"verdict": self.verdict, "message": self.message}
        if self.detection_value is not None:
            d["detection_value"] = self.detection_value
        if isinstance(self.certificate, (Witness, SignedDecomposition)):
            d["certificate"] = self.certificate.to_dict()
        if self.bounds is not None:
            d["bounds"] = self.bounds.to_dict()
        return d


def witness_from_vector(c: BipartiteVector) -> Witness:
    """Rank-one witness |c><c| / a_1(c)^2; its injective norm is exactly 1."""
    a1sq = g_norm_rank_one(c)
    mat = np.outer(c.entries, c.entries.conj()) / a1sq
    return Witness(
        operator=BipartiteOperator(c.shape, mat),
        g_norm_certified_upper=1.0,
        construction="rank-one",
        vector=c,
    )


def build_witness_EN(v: BipartiteVector, n: int) -> Witness:
    """Witness |c_N><c_N| with c_N the flat sum of v's first N Schmidt pairs.

    The injective norm is exactly one, while tr(|v><v| E_N) equals
    (sum_{l<=N} a_l)^2, so the witness detects every entangled pure state
    once N is large enough.
    """
    sf = schmidt_decompose(v)
    if not 1 <= n <= sf.rank:
        raise ValueError(f"N must lie in [1, srank={sf.rank}], got {n}")
    vec = BipartiteVector(v.shape, sf.flat_sum(n))
    w = witness_from_vector(vec)
    return Witness(w.operator, 1.0, "E_N", vec)


@dataclass(eq=False)
class WitnessReport:
    hermitian: bool
    g_norm_certified_upper: float
    g_norm_exact: float | None
    g_norm_seesaw_lower: float | None
    operator_norm: float
    expectation: float | None
    w1: bool
    w2: bool
    detects: bool


def witness_check(E: Witness | BipartiteOperator, state: BipartiteOperator | None = None,
                  config: SeeSawConfig | None = None) -> WitnessReport:
    """Verify a witness: certified injective-norm bound plus detection test.

    W1: the injective norm is (certified) one and |tr(DE)| > 1 for the
    supplied state.  W2: the operator norm strictly exceeds the (certified)
    injective norm one.  Report-style, never raises on invalidity.
    """
    if isinstance(E, Witness):
        op = E.operator
        g_upper = E.g_norm_certified_upper
        g_exact = g_upper if E.construction in ("E_N", "rank-one") else None
    else:
        op = E
        g_upper, g_exact = _certify_g_upper(op)
    herm = op.is_hermitian(EPS_HERM)
    onorm = operator_norm(op.matrix)
    seesaw_lower = None if config is None else g_norm_seesaw(op, config).lower_bound
    expec = None if state is None else float(np.trace(state.matrix @ op.matrix).real)
    is_unit_g = abs(g_upper - 1.0) <= 1e-9
    w1 = bool(herm and is_unit_g and expec is not None and abs(expec) > 1.0)
    w2 = bool(herm and is_unit_g and onorm > 1.0 + 1e-9)
    return WitnessReport(
        hermitian=herm,
        g_norm_certified_upper=float(g_upper),
        g_norm_exact=g_exact,
        g_norm_seesaw_lower=seesaw_lower,
        operator_norm=float(onorm),
        expectation=expec,
        w1=w1, w2=w2, detects=w1,
    )


def _certify_g_upper(op: BipartiteOperator):
    """Exact injective norm for Hermitian rank-one operators and simple tensors, else ||.||_inf;
    rank one (one eigenvalue above 1e-12 max|lambda|, positive) is read off the analysis."""
    an = _Analysis(op)
    if an.hermitian:
        w, u, _ = an.eig
        nz = np.abs(w) > 1e-12 * np.abs(w).max(initial=0.0)
        if nz.sum() == 1 and w[nz][0] > 0:
            vec = BipartiteVector(op.shape, u[:, nz][:, 0])
            g = float(np.ldexp(w[nz][0] * g_norm_rank_one(vec), an.k))
            return g, g
    form = operator_schmidt(op)
    if form.rank == 1:  # a simple tensor: its injective norm factorizes
        s = float(form.singular_values[0])
        g = s * operator_norm(form.left_ops[0]) * operator_norm(form.right_ops[0])
        return g, g
    return float(operator_norm(op.matrix)), None


# ---------------------------------------------------------------------------
# classification


def classify(op: BipartiteOperator, config: SeeSawConfig) -> Classification:
    """Extended Cross Norm Criterion verdict with certificate.

    Separable is tried first (product-mixture search with weight one),
    unless realignment or the partial transpose rules a mixture out; then
    Entangled (witness certificate re-verified); otherwise Undecided
    carrying the norm bounds.  Verdicts are never guessed inside the
    PINCH_TOL band around one.
    """
    return _classify(_Analysis(op, config))


def _classify(an: _Analysis) -> Classification:
    """:func:`classify` over an analysis the caller may read further; the
    product mixture, the witness, the realignment bound and the Undecided
    bounds all come from it, so its later ``bounds`` count the mixture.
    Only densities get past the first check, and their k is 0: the analysis'
    unit values are the state's own."""
    if not an.density:
        raise ValueError("classify expects a density operator")

    # realignment above one or a negative partial transpose proves
    # entanglement, so no product mixture exists.  Otherwise the mixture is
    # tried first: a validated one and a witness above one cannot both
    # exist, and on separable states the mixture skips the witness search
    realign_low = an.realignment_lower
    if realign_low <= 1.0 + PINCH_TOL:
        mixture, rounds = an.mixture  # (None, 0) when the partial transpose rules it out
        if mixture is not None and abs(mixture.weight - 1.0) <= PINCH_TOL:
            return Classification(
                verdict="Separable",
                certificate=mixture,
                detection_value=None,
                message=f"weight-one product mixture found in {rounds} rounds",
            )

    # no rank-one witness exceeds realignment (_Analysis.lower): at or below
    # one the search cannot pass 1 + PINCH_TOL, so it is not started
    q, c = an.witness if realign_low > 1.0 else (realign_low, None)
    if q > 1.0 + PINCH_TOL:
        cert = witness_from_vector(c)
        detection = witness_value(an.op, cert.vector)
        if detection > 1.0 + 1e-9:
            return Classification(
                verdict="Entangled",
                certificate=cert,
                detection_value=float(detection),
                message=f"witness expectation {detection:.12g} exceeds 1",
            )

    # without a rank-one witness the verdict stays Undecided
    if realign_low > 1.0 + PINCH_TOL:
        message = (f"realignment bound {realign_low:.12g} proves entanglement "
                   "but no witness certificate was found")
    elif an.npt:
        message = "partial transpose is not PSD, so no product mixture exists"
    else:
        message = "no certificate within budget"

    bounds = an.bounds(include_robustness=False)
    return Classification(verdict="Undecided", certificate=bounds, bounds=bounds, message=message)


# ---------------------------------------------------------------------------
# partial transpose oracle (test plumbing, decisive only at 2x2 and 2x3)


@dataclass(frozen=True)
class PPTResult:
    min_eigenvalue: float
    is_ppt: bool
    decisive: bool
    verdict: str  # "separable" | "entangled" | "inconclusive"


def ppt_oracle(op: BipartiteOperator) -> PPTResult:
    """Minimum eigenvalue of the partial transpose and the PPT verdict.

    At 2x2 and 2x3 shapes PPT is equivalent to separability and the
    verdict is exact ground truth; at larger shapes only "NPT implies
    entangled" is asserted.
    """
    w = np.linalg.eigvalsh(partial_transpose(op, "j"))
    min_eig = float(w.min())
    is_ppt = min_eig >= -1e-10 * float(np.abs(w).max())  # relative: scale-free
    decisive = {op.shape.dh, op.shape.dj} in ({2}, {2, 3}) and op.shape.total <= 6
    if not is_ppt:
        verdict = "entangled"
    elif decisive:
        verdict = "separable"
    else:
        verdict = "inconclusive"
    return PPTResult(min_eig, is_ppt, decisive, verdict)


# ---------------------------------------------------------------------------
# state gallery


def max_entangled(d: int) -> BipartiteOperator:
    """Maximally entangled state on d x d; its projective norm is d."""
    v = max_entangled_vector(d)
    return v.projector()


def max_entangled_vector(d: int) -> BipartiteVector:
    if d < 1:
        raise ValueError("dimension must be positive")
    m = np.eye(d, dtype=complex) / np.sqrt(d)
    return BipartiteVector(BipartiteShape(d, d), m.reshape(-1))


def product_state(rho: np.ndarray, sigma: np.ndarray) -> BipartiteOperator:
    """rho (x) sigma; each factor, as a (d, 1) operator, must pass :attr:`_Analysis.density`."""
    if not all(_Analysis(BipartiteOperator(BipartiteShape(len(f), 1), f)).density
               for f in (rho, sigma)):
        raise ValueError("product_state factors must be density matrices")
    return kron(rho, sigma)


def pure_with_schmidt(coeffs, shape: BipartiteShape | None = None) -> BipartiteVector:
    """Pure state with the given Schmidt coefficients on the diagonal basis.

    Coefficients must be positive and l2-normalized.
    """
    a = np.asarray(coeffs, dtype=float)
    if a.size == 0 or (a <= 0).any():
        raise ValueError("Schmidt coefficients must be strictly positive")
    if abs(float(a @ a) - 1.0) > 1e-8:
        raise ValueError("Schmidt coefficients must be l2-normalized")
    a = np.sort(a)[::-1]
    s = a.size
    if shape is None:
        shape = BipartiteShape(s, s)
    if shape.m < s:
        raise ValueError(f"shape {shape} cannot host Schmidt rank {s}")
    m = np.zeros((shape.dh, shape.dj), dtype=complex)
    m[np.arange(s), np.arange(s)] = a
    return BipartiteVector(shape, m.reshape(-1))


def random_separable(shape: BipartiteShape, k: int, seed: int):
    """Random mixture of k product densities plus its construction certificate."""
    if k < 1:
        raise ValueError("need at least one product component")
    rng = rng_from_seed(seed)
    hshape = BipartiteShape(shape.dh, 1)
    jshape = BipartiteShape(shape.dj, 1)
    p = rng.dirichlet(np.ones(k))
    terms = []
    for i in range(k):
        rho = random_density(hshape, rng).matrix
        sig = random_density(jshape, rng).matrix
        terms.append((float(p[i]), rho, sig))
    # the running sum in term order, not dec.reconstruct()'s contraction: it pins
    # the state's bits, from which tests and the benchmark build their inputs
    mat = sum((t * np.kron(rho, sig) for t, rho, sig in terms),
              np.zeros((shape.total, shape.total), dtype=complex))
    return BipartiteOperator(shape, mat), SignedDecomposition(terms, shape)


def isotropic(p: float, d: int) -> BipartiteOperator:
    """p |Phi_d><Phi_d| + (1-p) I / d^2; PPT (hence separable) iff p <= 1/(d+1)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("mixing parameter must lie in [0, 1]")
    phi = max_entangled(d).matrix
    mat = p * phi + (1.0 - p) * np.eye(d * d) / (d * d)
    return BipartiteOperator(BipartiteShape(d, d), mat)
