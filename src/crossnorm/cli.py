"""Command line front end.

Reads operators/vectors from the JSON state format, runs bounds /
classification / witness / injective-norm / truncation-lab computations and
emits JSON reports or CSV sweeps.  Exit codes: 0 success, 1 invalid input,
2 internal failure.  Reports are byte-identical for identical invocations
with the same --seed once --no-timestamp is passed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from functools import cache
from pathlib import Path

import numpy as np

from .bounds import _Analysis, pi_bounds
from .core import (
    BipartiteOperator,
    BipartiteVector,
    ShapeError,
    from_state_dict,
    to_state_dict,
)
from .gnorm import SeeSawConfig, g_norm_seesaw
from .separability import (
    _classify,
    build_witness_EN,
    classify,
    isotropic,
    max_entangled,
    ppt_oracle,
    product_state,
    pure_with_schmidt,
    random_separable,
    witness_check,
)
from .truncation import divergence_sweep, paper_preset

SCHEMA = "crossnorm/1"


class InputError(ValueError):
    """User input problem: maps to exit code 1."""


def load_state(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: malformed JSON: {exc.msg}") from exc
    try:
        return from_state_dict(data)
    except (ValueError, ShapeError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _as_operator(state) -> BipartiteOperator:
    if isinstance(state, BipartiteOperator):
        return state
    return state.projector()


def _digest(state, path: str) -> dict:
    d = {"path": path, "shape": {"dh": state.shape.dh, "dj": state.shape.dj}}
    if isinstance(state, BipartiteOperator):
        tr = state.trace()
        d.update(kind="operator", trace=[tr.real, tr.imag], hermitian=state.is_hermitian())
    else:
        d.update(kind="vector", norm=state.norm())
    return d


def _config(args) -> SeeSawConfig:
    if args.seed is None:
        raise InputError("--seed is required for randomized computations")
    return SeeSawConfig(
        seed=args.seed, restarts=args.restarts, max_iters=args.max_iters, tol=args.tol
    )


def _report(args, computation: str, input_digest: dict, results: dict,
            certificates: dict | None = None, t0: float | None = None) -> dict:
    rep = {
        "schema": SCHEMA,
        "computation": computation,
        "input": input_digest,
        "config": {
            "seed": args.seed,
            "restarts": args.restarts,
            "max_iters": args.max_iters,
            "tol": args.tol,
        },
        "results": results,
    }
    if certificates:
        rep["certificates"] = certificates
    if not args.no_timestamp:
        rep["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        if t0 is not None:
            rep["wall_time_s"] = time.perf_counter() - t0
    return rep


def _emit(args, report: dict):
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.json_out:
        Path(args.json_out).write_text(text + "\n")
    else:
        print(text)


def _certificate_dicts(bounds) -> dict:
    certs = {}
    for name, cert in bounds.certificates.items():
        if cert is None:
            continue
        if isinstance(cert, BipartiteVector):
            certs[name] = to_state_dict(cert)
        elif hasattr(cert, "to_dict"):
            certs[name] = cert.to_dict()
    return certs


def _run_on_state(args, computation: str, compute, load=load_state) -> int:
    """Load the state at ``args.path`` with ``load``, run ``compute(state,
    config)`` for its (results, certificates) and emit the report."""
    t0 = time.perf_counter()
    state = load(args.path)
    cfg = _config(args)
    results, certs = compute(state, cfg)
    _emit(args, _report(args, computation, _digest(state, args.path), results, certs, t0))
    return 0


def cmd_bounds(args) -> int:
    def compute(state, cfg):
        nb = pi_bounds(_as_operator(state), cfg, include_robustness=not args.no_robustness)
        return nb.to_dict(), _certificate_dicts(nb)

    return _run_on_state(args, "bounds", compute)


def cmd_classify(args) -> int:
    return _run_on_state(args, "classify",
                         lambda state, cfg: (classify(_as_operator(state), cfg).to_dict(), None))


def cmd_gnorm(args) -> int:
    def compute(state, cfg):
        est = g_norm_seesaw(_as_operator(state), cfg)
        results = {
            "g_norm": {
                "lower": est.lower_bound,
                "upper": est.upper_bound,
                "converged": est.converged,
            },
            "iterations_used": est.iterations_used,
            "best_restart": est.best_restart,
            "polish_steps": est.polish_steps,
            "finish_restarts": est.finish_restarts,
            "finish_steps": est.finish_steps,
        }
        vectors = {"phi": est.phi, "psi": est.psi, "eta": est.eta, "chi": est.chi}
        return results, {k: [[z.real, z.imag] for z in v] for k, v in vectors.items()}

    return _run_on_state(args, "gnorm", compute)


def _load_vector(path: str) -> BipartiteVector:
    """The vector state at ``path``, or a pure operator's: PSD by its analysis, top eigenvalue
    lam > 0, every other at most 1e-10 lam; its vector u_top sqrt(lam) keeps the input's norm."""
    state = load_state(path)
    if isinstance(state, BipartiteOperator):
        an = _Analysis(state)
        w, u, _ = an.eig
        if not (an.psd and w[0] > 0 and w[1:].max(initial=0.0) <= 1e-10 * w[0]):
            raise InputError("witness construction needs a vector state or a pure operator")
        state = BipartiteVector(state.shape, u[:, 0] * np.sqrt(np.ldexp(w[0], an.k)))
    return state


def cmd_witness(args) -> int:
    def compute(state, cfg):
        wit = build_witness_EN(state.normalized(), args.N)
        check = witness_check(wit, state.normalized().projector(), cfg)
        if args.witness_out:
            Path(args.witness_out).write_text(
                json.dumps(to_state_dict(wit.operator), indent=2, sort_keys=True) + "\n"
            )
        results = {
            "construction": wit.construction,
            "g_norm_certified_upper": wit.g_norm_certified_upper,
            "g_norm_seesaw_lower": check.g_norm_seesaw_lower,
            "operator_norm": check.operator_norm,
            "expectation_on_input": check.expectation,
            "w1": check.w1,
            "w2": check.w2,
        }
        return results, {"witness": wit.to_dict()}

    return _run_on_state(args, "witness", compute, load=_load_vector)


def cmd_gallery(args) -> int:
    name = args.name
    if name == "max-entangled":
        state = max_entangled(_require(args.d, "--d"))
    elif name == "pure-schmidt":
        coeffs = [float(x) for x in _require(args.coeffs, "--coeffs").split(",")]
        state = pure_with_schmidt(coeffs)
    elif name == "isotropic":
        state = isotropic(_require(args.p, "--p"), _require(args.d, "--d"))
    elif name == "random-separable":
        if args.seed is None:
            raise InputError("--seed is required for random-separable")
        from .core import BipartiteShape

        shape = BipartiteShape(_require(args.dh, "--dh"), _require(args.dj, "--dj"))
        state, _ = random_separable(shape, args.atoms, args.seed)
    elif name == "product":
        rho = _as_operator(load_state(_require(args.rho, "--rho")))
        sig = _as_operator(load_state(_require(args.sigma, "--sigma")))
        state = product_state(rho.matrix, sig.matrix)
    elif name == "divergent":
        state = paper_preset(args.levels).dense_operator(args.levels)
    else:
        raise InputError(f"unknown gallery state {name!r}")
    out = _require(args.out, "--out")
    Path(out).write_text(json.dumps(to_state_dict(state), indent=2, sort_keys=True) + "\n")
    return 0


def _require(value, flag: str):
    if value is None:
        raise InputError(f"{flag} is required for this invocation")
    return value


def _parse_grid(spec: str) -> list:
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise InputError(f"grid must be start:stop:step, got {spec!r}") from exc
    if step <= 0:
        raise InputError("grid step must be positive")
    out, x = [], start
    while x <= stop + 1e-12:
        out.append(round(x, 12))
        x += step
    if not out:
        raise InputError(f"grid is empty: {spec!r} starts above its stop")
    return out


def cmd_sweep(args) -> int:
    out = _require(args.csv_out, "--csv-out")
    if args.family == "isotropic":
        cfg = _config(args)  # the divergence sweep runs no search and reads no seed
        d = _require(args.d, "--d")
        rows = []
        for p in _parse_grid(_require(args.p, "--p")):
            op = isotropic(p, d)
            an = _Analysis(op, cfg)  # one see-saw for all columns; a density's k is 0
            cls = _classify(an)  # Undecided carries its bounds; a found mixture counts in an.bounds
            nb = cls.bounds or an.bounds(include_robustness=False)
            rows.append(
                {
                    "p": p,
                    "witness_lower": an.reported(an.witness[0], up=False),
                    "pi_lower": nb.pi_lower,
                    "pi_upper": nb.pi_upper,
                    "verdict": cls.verdict,
                    "ppt_min_eigenvalue": ppt_oracle(op).min_eigenvalue,
                }
            )
        _write_csv(out, rows, ["p", "witness_lower", "pi_lower", "pi_upper",
                               "verdict", "ppt_min_eigenvalue"])
    elif args.family == "divergence":
        family = paper_preset(args.levels)
        rows = divergence_sweep(family, range(1, args.levels + 1))
        _write_csv(out, rows, ["N", "lemosd_bound", "witness_bound", "dense_pi_lower"])
    else:
        raise InputError(f"unknown sweep family {args.family!r}")
    return 0


def _write_csv(path: str, rows: list, header: list):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossnorm",
        description="Certified projective/Hermitian/injective norm bounds and "
        "separability classification for bipartite operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (required for randomized paths)")
        p.add_argument("--restarts", type=int, default=32)
        p.add_argument("--max-iters", type=int, default=500)
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--json-out", default=None)
        p.add_argument("--no-timestamp", action="store_true")

    p = sub.add_parser("bounds", help="projective and Hermitian norm bounds")
    p.add_argument("path")
    p.add_argument("--no-robustness", action="store_true",
                   help="skip the separable-decomposition search")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("classify", help="ECNC separability verdict")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gnorm", help="injective norm via see-saw")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=cmd_gnorm)

    p = sub.add_parser("witness", help="build the flat Schmidt-sum witness E_N")
    p.add_argument("path")
    p.add_argument("N", type=int)
    p.add_argument("--witness-out", default=None)
    common(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("gallery", help="write a generator state to a file")
    p.add_argument("name", choices=["max-entangled", "pure-schmidt", "isotropic",
                                    "random-separable", "product", "divergent"])
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--dh", type=int, default=None)
    p.add_argument("--dj", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--coeffs", default=None)
    p.add_argument("--atoms", type=int, default=5)
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--rho", default=None)
    p.add_argument("--sigma", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gallery)

    p = sub.add_parser("sweep", help="parameter sweeps to CSV")
    p.add_argument("family", choices=["isotropic", "divergence"])
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--p", default=None, help="grid start:stop:step")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--csv-out", default=None)
    common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`'s tree, built once per process: parsing reads it
    and leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except Exception as exc:
        # invalid input raises ValueError; LinAlgError subclasses it but is internal
        if isinstance(exc, ValueError) and not isinstance(exc, np.linalg.LinAlgError):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
