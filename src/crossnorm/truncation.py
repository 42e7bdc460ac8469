"""Finite truncations of the infinite-dimensional divergence phenomena.

Block families carry a block-diagonal operator D_N = sum_{l<=N} w_l D_l
with D_l maximally entangled on H (x) J_l over disjoint J index ranges.
Lower bounds on the projective norm of D_N are evaluated blockwise, so the
growth can be followed far beyond the sizes where the dense matrix fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import _Analysis
from .core import BipartiteOperator, BipartiteShape, BipartiteVector, scaled_outward
from .core import schmidt_decompose
from .gnorm import SeeSawConfig

DENSE_CUTOFF = 512


@dataclass(frozen=True)
class BlockFamily:
    """Weighted maximally entangled blocks on disjoint J index ranges.

    ``levels[l-1] = (w_l, m_l)``: weight and block dimension of level l.
    The truncation to N levels lives on H of dimension max_{l<=N} m_l and
    J of dimension sum_{l<=N} m_l.
    """

    levels: tuple

    def __post_init__(self):
        levels = tuple((float(w), int(m)) for w, m in self.levels)
        if not levels:
            raise ValueError("a block family needs at least one level")
        if any(w <= 0 or m < 1 for w, m in levels):
            raise ValueError("weights must be positive and block dimensions >= 1")
        if sum(w for w, _ in levels) > 1.0 + 1e-12:
            raise ValueError("level weights must sum to at most 1")
        object.__setattr__(self, "levels", levels)

    def __len__(self) -> int:
        return len(self.levels)

    def shape(self, n: int) -> BipartiteShape:
        self._check_n(n)
        dh = max(m for _, m in self.levels[:n])
        dj = sum(m for _, m in self.levels[:n])
        return BipartiteShape(dh, dj)

    def offsets(self, n: int) -> list:
        offs, acc = [], 0
        for _, m in self.levels[:n]:
            offs.append(acc)
            acc += m
        return offs

    def _check_n(self, n: int):
        if not 1 <= n <= len(self.levels):
            raise ValueError(f"N must lie in [1, {len(self.levels)}], got {n}")

    def block_vector(self, l: int, n: int) -> BipartiteVector:
        """Normalized maximally entangled vector of level l inside the
        N-level truncation."""
        self._check_n(n)
        if not 1 <= l <= n:
            raise ValueError(f"level must lie in [1, {n}]")
        shape = self.shape(n)
        off = self.offsets(n)[l - 1]
        _, m = self.levels[l - 1]
        vec = np.zeros(shape.total, dtype=complex)
        for i in range(m):
            vec[i * shape.dj + off + i] = 1.0 / np.sqrt(m)
        return BipartiteVector(shape, vec)

    def dense_operator(self, n: int) -> BipartiteOperator:
        """Materialize D_N; refused above the dense cutoff."""
        self._check_n(n)
        shape = self.shape(n)
        if shape.total > DENSE_CUTOFF:
            raise ValueError(
                f"total dimension {shape.total} exceeds the dense cutoff {DENSE_CUTOFF}; "
                "only blockwise bounds are offered at this size"
            )
        acc = np.zeros((shape.total, shape.total), dtype=complex)
        for l in range(1, n + 1):
            w, _ = self.levels[l - 1]
            omega = self.block_vector(l, n).entries
            acc += w * np.outer(omega, omega.conj())
        return BipartiteOperator(shape, acc)


def paper_preset(n_levels: int = 3) -> BlockFamily:
    """Blocks w_l = 2^-l, m_l = 2^(2l): the weighted family whose truncated
    projective norms grow like (2^(N+1) - 2) / N."""
    return BlockFamily(tuple((2.0**-l, 4**l) for l in range(1, n_levels + 1)))


PAPER_PRESET = paper_preset(3)


def blockwise_witness_value(family: BlockFamily, n: int, c: BipartiteVector) -> float:
    """q(c) = sum_l w_l |<Omega_l, c>|^2 / a_1(c)^2 without forming D_N.

    Each block is rank one, so the expectation of the rank-one witness
    against D_N reduces to overlaps with the block vectors.
    """
    shape = family.shape(n)
    if c.shape != shape:
        raise ValueError(f"certificate shape {c.shape} does not match truncation {shape}")
    total = 0.0
    offs = family.offsets(n)
    for l in range(1, n + 1):
        w, m = family.levels[l - 1]
        idx = np.arange(m) * shape.dj + offs[l - 1] + np.arange(m)
        overlap = c.entries[idx].sum() / np.sqrt(m)
        total += w * abs(overlap) ** 2
    a1 = float(np.linalg.svd(c.as_matrix(), compute_uv=False)[0])
    return float(total / a1**2)


@dataclass(eq=False)
class DivergenceBound:
    n: int
    lemosd_bound: float
    witness_bound: float
    value: float
    best_block: int
    certificate: BipartiteVector
    certificate_value: float  # blockwise re-evaluation of the certificate


def divergent_lower_bound(family: BlockFamily, n: int) -> DivergenceBound:
    """Certified lower bounds on ||D_N||_pi, evaluated blockwise.

    Two routes: averaging the per-block norms over the N mutually
    orthogonal J-blocks gives (1/N) sum_l w_l m_l; compressing onto the
    best single block gives max_l w_l m_l, witnessed by the flat Schmidt
    sum over that block.  Neither forms the full matrix.
    """
    family._check_n(n)
    products = [w * m for w, m in family.levels[:n]]
    lemosd = sum(products) / n
    best_block = int(np.argmax(products)) + 1
    witness = products[best_block - 1]

    _, m = family.levels[best_block - 1]
    cert = BipartiteVector(
        family.shape(n), np.sqrt(m) * family.block_vector(best_block, n).entries
    )
    cert_value = blockwise_witness_value(family, n, cert)
    return DivergenceBound(
        n=n,
        lemosd_bound=float(lemosd),
        witness_bound=float(witness),
        value=float(max(lemosd, witness)),
        best_block=best_block,
        certificate=cert,
        certificate_value=cert_value,
    )


def truncated_l2_not_l1(n: int, rule=None):
    """N-term truncation of the square-summable, not absolutely summable law.

    Coefficients a_l proportional to rule(l) (default 1/l), l2-normalized
    over the truncation.  Returns the pure state and the certified witness
    lower bound (sum_l a_l)^2, which grows without limit in N whenever the
    plain sum of the law diverges.
    """
    if n < 1:
        raise ValueError("truncation length must be >= 1")
    law = rule if rule is not None else (lambda l: 1.0 / l)
    a = np.array([law(l) for l in range(1, n + 1)], dtype=float)
    if (a <= 0).any():
        raise ValueError("coefficient law must be strictly positive")
    a = a / np.linalg.norm(a)
    a = np.sort(a)[::-1]
    shape = BipartiteShape(n, n)
    m = np.zeros((n, n), dtype=complex)
    m[np.arange(n), np.arange(n)] = a
    v = BipartiteVector(shape, m.reshape(-1))
    bound = float(a.sum() ** 2)
    return v, bound


def mixing_lower_bound(p: float, v: BipartiteVector, d0, n: int) -> float:
    """Certified lower bound p (sum_{l<=N} a_l)^2 + (1-p) tr(D_0 E_N) for
    the mixture p |v><v| + (1-p) D_0.

    ``d0`` may be a BipartiteOperator (evaluated as a vector sandwich, no
    large matrices), the string "maximally_mixed", or None, in which case
    the nonnegative background term is dropped.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("mixing parameter must lie in (0, 1]")
    sf = schmidt_decompose(v)
    if not 1 <= n <= sf.rank:
        raise ValueError(f"N must lie in [1, srank={sf.rank}], got {n}")
    a = sf.coefficients[:n]
    pure_term = float(a.sum() ** 2)
    if p == 1.0 or d0 is None:
        return p * pure_term

    c = np.zeros(v.shape.total, dtype=complex)
    for l in range(n):
        c += np.kron(sf.left_vectors[l], sf.right_vectors[l])
    if isinstance(d0, str):
        if d0 != "maximally_mixed":
            raise ValueError(f"unknown background spec {d0!r}")
        background = n / v.shape.total  # tr(E_N) / dim
    else:
        if d0.shape != v.shape:
            raise ValueError("background state shape does not match the pure state")
        background = float((c.conj() @ (d0.matrix @ c)).real)
    return p * pure_term + (1.0 - p) * background


def divergence_sweep(family: BlockFamily, ns, config=None) -> list:
    """Rows (N, lemosd_bound, witness_bound, dense_pi_lower) for a CSV sweep.

    The dense column is blank when the truncation exceeds the dense cutoff;
    otherwise it is the ``pi_lower`` of :func:`pi_bounds`, from the lower
    providers alone: the trace norm and realignment, no witness search.
    """
    rows = []
    for n in ns:
        b = divergent_lower_bound(family, n)
        dense = ""
        if family.shape(n).total <= DENSE_CUTOFF:
            cfg = config if config is not None else SeeSawConfig(seed=0, restarts=4, max_iters=60)
            an = _Analysis(family.dense_operator(n), cfg)  # k = -1 at N = 1: trace 1/2
            dense = scaled_outward(an.lower[0], an.op.shape.total, an.k, up=False)
        rows.append(
            {
                "N": n,
                "lemosd_bound": b.lemosd_bound,
                "witness_bound": b.witness_bound,
                "dense_pi_lower": dense,
            }
        )
    return rows
