"""Dense complex linear algebra over a bipartite tensor-product space.

Shapes, tensor products, traces, spectral/SVD factorizations, Schmidt
decomposition, realignment and the partial transpose for operators and
vectors on H (x) J.  The composite index convention is row-major throughout:
the basis vector e_i (x) f_k sits at flat index ``i * d_j + k``, which is
exactly the ordering produced by ``numpy.kron``.  Schmidt pairs of vectors
and of operators share one phase rule (:func:`_fix_phases`); the product
ascent of :mod:`crossnorm.bounds` reuses it for its lead starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Tolerances, relative to input scale.
EPS_TRACE = 1e-10
EPS_HERM = 1e-10
EPS_PSD = 1e-9
SCHMIDT_CUTOFF = 1e-12


class ShapeError(ValueError):
    """Array dimensions do not match the declared bipartite shape."""


@dataclass(frozen=True)
class BipartiteShape:
    """Dimensions (d_h, d_j) of the two tensor factors."""

    dh: int
    dj: int

    def __post_init__(self):
        if self.dh < 1 or self.dj < 1:
            raise ShapeError(f"factor dimensions must be >= 1, got ({self.dh}, {self.dj})")

    @property
    def total(self) -> int:
        return self.dh * self.dj

    @property
    def m(self) -> int:
        """min(d_h, d_j): caps the Schmidt rank and the projective norm of states."""
        return min(self.dh, self.dj)


@dataclass(frozen=True, eq=False)
class BipartiteVector:
    """Vector on H (x) J with entries[i * d_j + k] = <e_i (x) f_k | v>."""

    shape: BipartiteShape
    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex).reshape(-1)
        if arr.size != self.shape.total:
            raise ShapeError(
                f"vector of length {arr.size} does not fit shape "
                f"({self.shape.dh}, {self.shape.dj})"
            )
        object.__setattr__(self, "entries", arr)

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def normalized(self) -> "BipartiteVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return BipartiteVector(self.shape, self.entries / n)

    def as_matrix(self) -> np.ndarray:
        """d_h x d_j coefficient matrix M with v = sum_ik M[i,k] e_i (x) f_k."""
        return self.entries.reshape(self.shape.dh, self.shape.dj)

    def projector(self) -> "BipartiteOperator":
        """Rank-one operator |v><v|."""
        return BipartiteOperator(self.shape, np.outer(self.entries, self.entries.conj()))


@dataclass(frozen=True, eq=False)
class BipartiteOperator:
    """Dense square operator on H (x) J, same composite index convention."""

    shape: BipartiteShape
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        n = self.shape.total
        if mat.shape != (n, n):
            raise ShapeError(
                f"matrix of shape {mat.shape} does not fit bipartite shape "
                f"({self.shape.dh}, {self.shape.dj})"
            )
        object.__setattr__(self, "matrix", mat)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def dagger(self) -> "BipartiteOperator":
        return BipartiteOperator(self.shape, self.matrix.conj().T)

    def scale(self) -> float:
        """Magnitude used to make tolerance checks relative: the largest |entry|."""
        return float(np.abs(self.matrix).max(initial=0.0))

    def is_hermitian(self, tol: float = EPS_HERM) -> bool:
        return bool(np.abs(self.matrix - self.matrix.conj().T).max() <= tol * self.scale())

    def is_psd(self, tol: float = EPS_PSD) -> bool:
        if not self.is_hermitian(max(tol, EPS_HERM)):
            return False
        w = np.linalg.eigvalsh((self.matrix + self.matrix.conj().T) / 2)
        return bool(w.min(initial=0.0) >= -tol * self.scale())

    def is_density(self, tol_trace: float = EPS_TRACE, tol_psd: float = EPS_PSD) -> bool:
        # the trace target is absolute, so its tolerance is too
        return self.is_psd(tol_psd) and abs(self.trace() - 1.0) <= tol_trace


@dataclass(frozen=True, eq=False)
class SchmidtForm:
    """Schmidt data of a bipartite vector: v = sum_l a_l (phi_l (x) psi_l).

    Coefficients are strictly positive and descending; left/right vectors are
    orthonormal systems stored as rows of (rank, d) arrays.
    """

    coefficients: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    shape: BipartiteShape

    @property
    def rank(self) -> int:
        return int(self.coefficients.size)

    def reconstruct(self) -> BipartiteVector:
        acc = np.zeros(self.shape.total, dtype=complex)
        for a, phi, psi in zip(self.coefficients, self.left_vectors, self.right_vectors):
            acc += a * np.kron(phi, psi)
        return BipartiteVector(self.shape, acc)


@dataclass(frozen=True, eq=False)
class OperatorSchmidtForm:
    """SVD of the realigned operator: op = sum_k sigma_k (G_k (x) H_k).

    G_k and H_k are Hilbert-Schmidt orthonormal families on H and J.
    """

    singular_values: np.ndarray
    left_ops: list = field(default_factory=list)
    right_ops: list = field(default_factory=list)
    shape: BipartiteShape = None

    @property
    def rank(self) -> int:
        return int(self.singular_values.size)

    def reconstruct(self) -> BipartiteOperator:
        n = self.shape.total
        acc = np.zeros((n, n), dtype=complex)
        for s, g, h in zip(self.singular_values, self.left_ops, self.right_ops):
            acc += s * np.kron(g, h)
        return BipartiteOperator(self.shape, acc)


# ---------------------------------------------------------------------------
# basic norms


def trace_norm(op) -> float:
    """Trace norm tr|S|: the sum of singular values of a square matrix.

    Equals |tr(S)| precisely when some phase multiple of S is positive
    semidefinite; for Hermitian S it is the sum of |eigenvalues|.
    """
    return nuclear_norm(_square(op))


def operator_norm(op) -> float:
    """Largest singular value sup{||S psi|| : ||psi|| = 1}."""
    mat = _square(op)
    if mat.size == 0:
        return 0.0
    return float(np.linalg.svd(mat, compute_uv=False).max())


def nuclear_norm(mat) -> float:
    """Sum of singular values of an arbitrary (possibly rectangular) matrix."""
    mat = np.asarray(mat, dtype=complex)
    if mat.size == 0:
        return 0.0
    return float(np.linalg.svd(mat, compute_uv=False).sum())


def outward(value: float, n: int, up: bool) -> float:
    """A bound computed on an n-dimensional operator, moved up (``up``) or down
    by 4 n eps relative, capped at 1e-12: a cover for its rounding error."""
    margin = min(4 * n * np.finfo(float).eps, 1e-12) * abs(value)
    return float(value + margin if up else value - margin)


def scaled_outward(value: float, n: int, k: int, up: bool) -> float:
    """outward(value, n, up) times 2^k, still outward.  A product that
    overflows reads inf for an upper bound and the largest float for a lower
    one; ldexp rounds to nearest among the subnormals, so a product there
    that fell inward steps one ulp out."""
    value = outward(value, n, up)
    with np.errstate(over="ignore"):
        out = float(np.ldexp(value, k))
    if np.isinf(out) and np.isfinite(value):
        return out if (out > 0) == up else float(np.copysign(np.finfo(float).max, out))
    back = np.ldexp(out, -k)
    if abs(out) < np.finfo(float).tiny and (back < value if up else back > value):
        return float(np.nextafter(out, np.inf if up else -np.inf))
    return out


def unit_scale(mat) -> tuple:
    """(mat / 2^k, k, ||mat / 2^k||_1), k the integer nearest log2 ||mat||_1
    (0 for the zero matrix): bounds are computed on the unit operator and
    scaled back by :func:`scaled_outward`.  An exact ldexp first takes the
    largest |re| or |im| to [1/2, 1), so no 2^k is formed and no step
    overflows; ldexp(unit, k) is mat bit for bit, but for entries that go
    subnormal at unit scale.  The SVD that picks k gives the trace norm too."""
    parts = np.ascontiguousarray(mat, dtype=complex).view(float)
    top = np.abs(parts).max(initial=0.0)
    if not np.isfinite(top):
        raise ValueError("operator has non-finite entries")
    if top == 0.0:
        return parts.view(complex).copy(), 0, 0.0
    e = int(np.frexp(top)[1])
    parts = np.ldexp(parts, -e)
    tn = nuclear_norm(parts.view(complex))
    shift = round(float(np.log2(tn)))
    return np.ldexp(parts, -shift, out=parts).view(complex), e + shift, float(np.ldexp(tn, -shift))


def _square(op) -> np.ndarray:
    mat = np.asarray(getattr(op, "matrix", op), dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {mat.shape}")
    return mat


# ---------------------------------------------------------------------------
# tensor bookkeeping


def kron(a, b, shape: BipartiteShape | None = None) -> BipartiteOperator:
    """Tensor product a (x) b as a BipartiteOperator.

    Under the composite index convention (a (x) b)(phi (x) psi) =
    (a phi) (x) (b psi), and the trace norm is multiplicative across the
    product.

    Parameters
    ----------
    a, b : array_like
        Square matrices acting on H and J respectively.
    shape : BipartiteShape, optional
        Declared shape; must match the factor dimensions when given.
    """
    a = _square(a)
    b = _square(b)
    inferred = BipartiteShape(a.shape[0], b.shape[0])
    if shape is not None and shape != inferred:
        raise ShapeError(f"factors of shape {a.shape}/{b.shape} do not match declared {shape}")
    return BipartiteOperator(inferred, np.kron(a, b))


def partial_trace(op: BipartiteOperator, side: str = "j") -> np.ndarray:
    """Trace out one factor; ``side`` names the factor that is removed.

    ``side="j"`` returns the operator on H (tr_J), ``side="h"`` the operator
    on J.  The full trace is preserved.
    """
    dh, dj = op.shape.dh, op.shape.dj
    t = op.matrix.reshape(dh, dj, dh, dj)
    if side == "j":
        return np.einsum("ikjk->ij", t)
    if side == "h":
        return np.einsum("ikil->kl", t)
    raise ValueError(f"side must be 'h' or 'j', got {side!r}")


def partial_transpose(op: BipartiteOperator, side: str = "j") -> np.ndarray:
    """Transpose one tensor factor; both conventions share a spectrum."""
    dh, dj = op.shape.dh, op.shape.dj
    t = op.matrix.reshape(dh, dj, dh, dj)
    if side == "j":
        return t.transpose(0, 3, 2, 1).reshape(dh * dj, dh * dj)
    if side == "h":
        return t.transpose(2, 1, 0, 3).reshape(dh * dj, dh * dj)
    raise ValueError(f"side must be 'h' or 'j', got {side!r}")


def realign(op: BipartiteOperator) -> np.ndarray:
    """Realignment map: entry (i*d_h + j, k*d_j + l) is <e_i f_k|op|e_j f_l>.

    The realignment of a simple tensor A (x) B is the rank-one outer product
    of the row-vectorizations of A and B; the trace norm of the realigned
    matrix lower-bounds the projective norm.
    """
    dh, dj = op.shape.dh, op.shape.dj
    return op.matrix.reshape(dh, dj, dh, dj).transpose(0, 2, 1, 3).reshape(dh * dh, dj * dj)


# ---------------------------------------------------------------------------
# factorizations


def schmidt_decompose(v: BipartiteVector, cutoff: float = SCHMIDT_CUTOFF) -> SchmidtForm:
    """Schmidt decomposition v = sum_l a_l (phi_l (x) psi_l).

    Coefficients are returned in descending order; entries below
    ``cutoff`` relative to the largest coefficient are dropped.  Each left
    vector's largest-magnitude entry is made real positive, with the phase
    absorbed into the matching right vector, so the factorization is
    reproducible.

    Raises
    ------
    ValueError
        If ``v`` is the zero vector.
    """
    if v.norm() == 0.0:
        raise ValueError("Schmidt decomposition of the zero vector is undefined")
    u, s, vh = np.linalg.svd(v.as_matrix(), full_matrices=False)
    keep = s > cutoff * s[0]
    left, right = _fix_phases(u[:, keep].T, vh[keep, :])  # psi_l[k] = Vh[l, k]: no conjugation
    return SchmidtForm(s[keep], left, right, v.shape)


def _fix_phases(left: np.ndarray, right: np.ndarray) -> tuple:
    """Rotate each row pair so the largest-|.| entry of the ``left`` row is
    real positive, its phase moved to the ``right`` row; a row pair whose
    pivot is zero stays.  The phase divides by hypot(re, im), as a complex
    scalar's abs() computes it (np.abs of an array can differ by an ulp)."""
    pivot = left[np.arange(len(left)), np.argmax(np.abs(left), axis=1)]
    mag = np.hypot(pivot.real, pivot.imag)
    ph = np.divide(pivot, mag, out=np.ones_like(pivot), where=mag > 0.0)
    return left * ph.conj()[:, None], right * ph[:, None]


def operator_schmidt(op: BipartiteOperator, cutoff: float = SCHMIDT_CUTOFF) -> OperatorSchmidtForm:
    """Operator Schmidt form from the SVD of the realigned matrix.

    Returns sigma_k with Hilbert-Schmidt orthonormal factors G_k, H_k such
    that op = sum_k sigma_k (G_k (x) H_k); the sigma_k equal the singular
    values of realign(op).
    """
    dh, dj = op.shape.dh, op.shape.dj
    u, s, vh = np.linalg.svd(realign(op), full_matrices=False)
    keep = s > (cutoff * s[0] if s.size and s[0] > 0.0 else 0.0)
    gs, hs = _fix_phases(u[:, keep].T, vh[keep, :])
    return OperatorSchmidtForm(s[keep], list(gs.reshape(-1, dh, dh)), list(hs.reshape(-1, dj, dj)),
                               op.shape)


def eigh_blocks(mat: np.ndarray, rel_tol: float = 1e-9):
    """Eigendecomposition with eigenvalues grouped into degenerate blocks.

    Returns (eigenvalues descending by value, eigenvectors as columns,
    list of index slices; eigenvalues within ``rel_tol`` relative to the
    overall scale share a block).
    """
    w, u = np.linalg.eigh((mat + mat.conj().T) / 2)
    order = np.argsort(-w)
    w, u = w[order], u[:, order]
    return w, u, equal_runs(w, rel_tol)


def equal_runs(values: np.ndarray, rel_tol: float = 1e-9) -> list:
    """Index slices of the runs of a sorted array whose entries lie within
    ``rel_tol``, relative to the largest |entry|, of the run's first."""
    scale = max(float(np.abs(values).max(initial=0.0)), 1e-300)
    runs, start = [], 0
    for i in range(1, values.size + 1):
        if i == values.size or abs(values[i] - values[start]) > rel_tol * scale:
            runs.append(slice(start, i))
            start = i
    return runs


# ---------------------------------------------------------------------------
# seeded random constructions


def rng_from_seed(seed: int) -> np.random.Generator:
    """The package-wide generator family (PCG64); seed is mandatory."""
    return np.random.default_rng(int(seed))


def random_pure(shape: BipartiteShape, seed) -> BipartiteVector:
    """Haar-like random unit vector on H (x) J, deterministic per seed."""
    rng = seed if isinstance(seed, np.random.Generator) else rng_from_seed(seed)
    z = rng.standard_normal(shape.total) + 1j * rng.standard_normal(shape.total)
    return BipartiteVector(shape, z / np.linalg.norm(z))


def random_density(shape: BipartiteShape, seed) -> BipartiteOperator:
    """Ginibre density matrix G G^* / tr(G G^*), deterministic per seed."""
    rng = seed if isinstance(seed, np.random.Generator) else rng_from_seed(seed)
    n = shape.total
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return BipartiteOperator(shape, m / np.trace(m).real)


# ---------------------------------------------------------------------------
# JSON interchange: {"shape":{"dh":..,"dj":..},"kind":"operator"|"vector",
#                    "data":[[re,im],...]} with row-major flattening


def complex_to_pairs(arr: np.ndarray) -> list:
    flat = np.asarray(arr, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def pairs_to_complex(pairs) -> np.ndarray:
    return np.array([complex(p[0], p[1]) for p in pairs], dtype=complex)


def to_state_dict(obj) -> dict:
    """Serialize a BipartiteVector or BipartiteOperator to the wire format."""
    if isinstance(obj, BipartiteVector):
        kind, data = "vector", obj.entries
    elif isinstance(obj, BipartiteOperator):
        kind, data = "operator", obj.matrix
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return {
        "shape": {"dh": obj.shape.dh, "dj": obj.shape.dj},
        "kind": kind,
        "data": complex_to_pairs(data),
    }


def from_state_dict(d: dict):
    """Inverse of :func:`to_state_dict`; raises ValueError on malformed input."""
    try:
        shape = BipartiteShape(int(d["shape"]["dh"]), int(d["shape"]["dj"]))
        kind = d["kind"]
        data = pairs_to_complex(d["data"])
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed state dictionary: {exc}") from exc
    if not np.isfinite(data).all():
        raise ValueError("state data contains NaN or infinite entries")
    n = shape.total
    if kind == "vector":
        return BipartiteVector(shape, data)
    if kind == "operator":
        if data.size != n * n:
            raise ShapeError(f"operator data of length {data.size}, expected {n * n}")
        return BipartiteOperator(shape, data.reshape(n, n))
    raise ValueError(f"unknown kind {kind!r}")
