"""Re-checks that turn each crossnorm output into result rows.

A row records one result: its brackets, the methods that won them, the
verdict, and ``problems``.  Any problem makes the row a failed result.  A
problem is ``severe`` unless it is a bracket inverted by no more than
``ROUNDING`` (relative), the few-ULP inversions that pinched brackets show
today; a severe problem means a wrong answer and makes the whole run incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from crossnorm.bounds import (
    PINCH_TOL,
    VALIDATE_TOL,
    NormBounds,
    SignedDecomposition,
    StandardDecomposition,
    upper_bound_realignment,
    upper_bound_spectral,
    validate_decomposition,
    witness_value,
)
from crossnorm.core import (
    BipartiteOperator,
    BipartiteShape,
    BipartiteVector,
    from_state_dict,
    pairs_to_complex,
)
from crossnorm.separability import isotropic

ROUNDING = 1e-12
PAPER_DIVERGENCE = {1: (2.0, 2.0), 2: (3.0, 4.0), 3: (14.0 / 3.0, 8.0)}


def make_row(**fields) -> dict:
    row = {"pi_lower": None, "pi_upper": None, "h_lower": None, "h_upper": None,
           "methods": {}, "verdict": None, "problems": []}
    row.update(fields)
    return row


def add_problem(row: dict, message: str, severe: bool = True):
    row["problems"].append({"message": message, "severe": severe})


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_bracket(row: dict, lower, upper, what: str):
    """lower <= upper in floating point, with no tolerance."""
    if lower is None or upper is None or math.isnan(lower) or math.isnan(upper):
        return
    if lower > upper:
        severe = lower - upper > ROUNDING * max(1.0, abs(upper))
        add_problem(row, f"{what} bracket inverted: {lower!r} > {upper!r}", severe)


# ---------------------------------------------------------------------------
# partial transpose cross-check


def ppt_decisive(shape: BipartiteShape) -> bool:
    """PPT is equivalent to separability at 2x2 and 2x3."""
    return sorted((shape.dh, shape.dj)) in ([2, 2], [2, 3])


def is_ppt(op: BipartiteOperator) -> bool:
    dh, dj = op.shape.dh, op.shape.dj
    pt = op.matrix.reshape(dh, dj, dh, dj).transpose(0, 3, 2, 1).reshape(dh * dj, dh * dj)
    w = np.linalg.eigvalsh((pt + pt.conj().T) / 2)
    return bool(w.min() >= -1e-10 * max(float(np.abs(w).max()), 1.0))


def check_ppt(row: dict, op: BipartiteOperator):
    verdict = row["verdict"]
    if verdict not in ("Separable", "Entangled") or not ppt_decisive(op.shape):
        return
    ppt = is_ppt(op)
    if verdict == "Separable" and not ppt:
        add_problem(row, "Separable verdict on an NPT state")
    if verdict == "Entangled" and ppt:
        add_problem(row, "Entangled verdict on a PPT state")


def bracket_verdict(op: BipartiteOperator, lower: float, upper: float):
    """ECNC verdict a projective-norm bracket of a density implies."""
    if not op.is_density():
        return None
    if lower > 1.0 + PINCH_TOL:
        return "Entangled"
    if upper <= 1.0 + PINCH_TOL:
        return "Separable"
    return "Undecided"


# ---------------------------------------------------------------------------
# pi_bounds certificates


def _rank_one_value(op: BipartiteOperator, c: BipartiteVector, use_abs: bool) -> float:
    if not use_abs:
        return witness_value(op, c)
    a1 = float(np.linalg.svd(c.as_matrix(), compute_uv=False)[0])
    return float(abs(c.entries.conj() @ (op.matrix @ c.entries)) / a1**2)


def _check_lower(row, op, nb: NormBounds):
    if nb.methods.get("pi_lower") != "witness":
        return  # trace norm and realignment carry no certificate object
    cert = nb.certificates.get("pi_lower")
    if not isinstance(cert, BipartiteVector):
        add_problem(row, "witness lower bound without a certificate vector")
        return
    q = _rank_one_value(op, cert, use_abs=nb.indirect or not op.is_psd())
    if q < nb.pi_lower - VALIDATE_TOL * max(1.0, abs(nb.pi_lower)):
        add_problem(row, f"witness certificate re-evaluates to {q!r} < pi_lower {nb.pi_lower!r}")


def _check_decomposition(row, op, value, dec, what: str, hermitian: bool, factor=1.0):
    if dec is None:
        add_problem(row, f"{what} has no certificate")
        return
    rep = validate_decomposition(op, dec)
    ok = rep.certifies_h_upper if hermitian else rep.certifies_pi_upper
    if not ok:
        add_problem(row, f"{what} certificate rejected: {'; '.join(rep.messages) or rep.kind}")
    elif factor * rep.weight > value + VALIDATE_TOL * max(1.0, abs(value)):
        add_problem(row, f"{what} {value!r} below its certificate weight {factor * rep.weight!r}")


def _check_indirect_upper(row, op, nb: NormBounds):
    """Rebuild the Hermitian-split upper bound from validated decompositions."""
    mat = op.matrix
    total = 0.0
    for part in ((mat + mat.conj().T) / 2, (mat - mat.conj().T) / 2j):
        hop = BipartiteOperator(op.shape, part)
        weights = []
        for provider in (upper_bound_spectral, upper_bound_realignment):
            _, dec = provider(hop)
            rep = validate_decomposition(hop, dec)
            if rep.valid:
                weights.append(rep.weight)
        if not weights:
            add_problem(row, "no valid decomposition of a Hermitian part")
            return
        total += min(weights)
    if total > nb.pi_upper + VALIDATE_TOL * max(1.0, nb.pi_upper):
        add_problem(row, f"indirect pi_upper {nb.pi_upper!r} below its certificates' {total!r}")


def check_bounds(row: dict, op: BipartiteOperator, nb: NormBounds):
    check_bracket(row, nb.pi_lower, nb.pi_upper, "pi")
    check_bracket(row, nb.h_lower, nb.h_upper, "h")
    _check_lower(row, op, nb)
    if nb.indirect:
        _check_indirect_upper(row, op, nb)
        return
    _check_decomposition(row, op, nb.pi_upper, nb.certificates.get("pi_upper"), "pi_upper", False)
    method = nb.methods.get("h_upper")
    cert = nb.certificates.get("h_upper")
    if method == "twice_pi_upper":
        _check_decomposition(row, op, nb.h_upper, cert, "h_upper", False, factor=2.0)
    else:
        _check_decomposition(row, op, nb.h_upper, cert, "h_upper", True)


def _finite(x):
    return None if x is None or math.isnan(x) else float(x)


def bounds_row(op: BipartiteOperator, nb: NormBounds) -> dict:
    row = make_row(pi_lower=nb.pi_lower, pi_upper=nb.pi_upper, h_lower=_finite(nb.h_lower),
                   h_upper=_finite(nb.h_upper), methods=dict(nb.methods),
                   verdict=bracket_verdict(op, nb.pi_lower, nb.pi_upper))
    check_bounds(row, op, nb)
    check_ppt(row, op)
    return row


def bounds_fingerprint(nb: NormBounds):
    return (repr(nb.pi_lower), repr(nb.pi_upper), repr(nb.h_lower), repr(nb.h_upper),
            tuple(sorted(nb.methods.items())))


# ---------------------------------------------------------------------------
# classify


def classify_row(op: BipartiteOperator, cls) -> dict:
    row = make_row(verdict=cls.verdict)
    cert = cls.certificate
    if cls.verdict == "Separable":
        rep = validate_decomposition(op, cert)
        row.update(pi_lower=float(op.trace().real), pi_upper=rep.weight,
                   h_lower=float(op.trace().real), h_upper=rep.weight,
                   methods={"pi_upper": "separable_fit"})
        if not (rep.valid and rep.positive and abs(rep.weight - 1.0) <= PINCH_TOL):
            add_problem(row, "Separable certificate is not a valid weight-one product mixture: "
                        + "; ".join(rep.messages))
    elif cls.verdict == "Entangled":
        q = witness_value(op, cert.vector)
        row.update(pi_lower=q, methods={"pi_lower": cert.construction})
        if not q > 1.0:
            add_problem(row, f"Entangled witness re-evaluates to {q!r} <= 1")
        if cert.g_norm_certified_upper != 1.0:
            add_problem(row, "Entangled witness is not normalized to injective norm one")
    else:
        nb = cls.bounds
        row.update(pi_lower=nb.pi_lower, pi_upper=nb.pi_upper, h_lower=_finite(nb.h_lower),
                   h_upper=_finite(nb.h_upper), methods=dict(nb.methods))
        check_bounds(row, op, nb)
    check_ppt(row, op)
    return row


def classify_fingerprint(cls):
    nb = bounds_fingerprint(cls.bounds) if cls.bounds is not None else None
    return (cls.verdict, repr(cls.detection_value), cls.message, nb)


# ---------------------------------------------------------------------------
# CLI reports


def _csv(data: bytes) -> list:
    return list(csv.DictReader(io.StringIO(data.decode())))


def isotropic_sweep_rows(data: bytes, d: int) -> list:
    rows = []
    for rec in _csv(data):
        p = float(rec["p"])
        row = make_row(pi_lower=float(rec["pi_lower"]), pi_upper=float(rec["pi_upper"]),
                       verdict=rec["verdict"], point=f"p={rec['p']}")
        check_bracket(row, row["pi_lower"], row["pi_upper"], "pi")
        check_ppt(row, isotropic(p, d))
        rows.append(row)
    return rows


def divergence_rows(data: bytes) -> list:
    rows = []
    for rec in _csv(data):
        n = int(rec["N"])
        lemosd, witness = float(rec["lemosd_bound"]), float(rec["witness_bound"])
        row = make_row(point=f"N={n}", lemosd_bound=lemosd, witness_bound=witness,
                       dense_pi_lower=rec["dense_pi_lower"])
        want = PAPER_DIVERGENCE.get(n, (math.nan, math.nan))
        if not (_close(lemosd, want[0], ROUNDING) and _close(witness, want[1], ROUNDING)):
            add_problem(row, f"divergence N={n}: ({lemosd!r}, {witness!r}), paper {want}")
        rows.append(row)
    return rows


def witness_row(data: bytes, coeffs, n: int) -> dict:
    res = json.loads(data)["results"]
    expect = float(sum(sorted(coeffs, reverse=True)[:n]) ** 2)
    got = res["expectation_on_input"]
    row = make_row(pi_lower=got, methods={"pi_lower": res["construction"]})
    if not _close(got, expect, VALIDATE_TOL):
        add_problem(row, f"witness expectation {got!r} differs from (sum a_l)^2 = {expect!r}")
    check_bracket(row, res["g_norm_seesaw_lower"], res["g_norm_certified_upper"], "witness g")
    if res["w1"] != (abs(got) > 1.0):
        add_problem(row, "witness detection flag w1 contradicts its expectation")
    return row


def gnorm_row(op: BipartiteOperator, data: bytes) -> dict:
    rep = json.loads(data)
    g = rep["results"]["g_norm"]
    row = make_row(g_lower=g["lower"], g_upper=g["upper"], converged=g["converged"])
    check_bracket(row, g["lower"], g["upper"], "g")
    c = rep["certificates"]
    phi, psi, eta, chi = (pairs_to_complex(c[k]) for k in ("phi", "psi", "eta", "chi"))
    attained = abs(np.kron(phi, psi).conj() @ (op.matrix @ np.kron(eta, chi)))
    if attained < g["lower"] - VALIDATE_TOL * max(1.0, g["lower"]):
        add_problem(row, f"g-norm lower {g['lower']!r} not attained by its vectors ({attained!r})")
    opnorm = float(np.linalg.svd(op.matrix, compute_uv=False)[0])
    if not _close(opnorm, g["upper"], VALIDATE_TOL):
        add_problem(row, f"g-norm upper {g['upper']!r} is not the operator norm {opnorm!r}")
    return row


def _decomposition_from_dict(d: dict):
    shape = BipartiteShape(d["shape"]["dh"], d["shape"]["dj"])

    def h(pairs):
        return pairs_to_complex(pairs).reshape(shape.dh, shape.dh)

    def j(pairs):
        return pairs_to_complex(pairs).reshape(shape.dj, shape.dj)

    if d["kind"] == "standard":
        return StandardDecomposition([(t["r"], h(t["x"]), j(t["y"])) for t in d["terms"]], shape)
    return SignedDecomposition([(t["t"], h(t["rho"]), j(t["sigma"])) for t in d["terms"]], shape)


def bounds_report_row(op: BipartiteOperator, data: bytes) -> dict:
    """Re-check a ``crossnorm bounds`` JSON report against its input state."""
    rep = json.loads(data)
    res, certs = rep["results"], rep.get("certificates", {})
    parsed = {}
    for name, cert in certs.items():
        parsed[name] = from_state_dict(cert) if "kind" in cert and "data" in cert \
            else _decomposition_from_dict(cert)
    nan = float("nan")
    nb = NormBounds(
        pi_lower=res["pi_lower"], pi_upper=res["pi_upper"],
        h_lower=nan if res["h_lower"] is None else res["h_lower"],
        h_upper=nan if res["h_upper"] is None else res["h_upper"],
        methods=res["methods"], certificates=parsed, indirect=res["indirect"],
    )
    return bounds_row(op, nb)
