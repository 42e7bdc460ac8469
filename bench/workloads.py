"""Inputs and calls of the two benchmark workloads.

Every workload is a fixed list of cases.  A case is one closed-loop call
into crossnorm plus the code that turns its output into result rows.  The
base states are pinned (gallery states and Ginibre densities drawn from
fixed seeds); the workload seed picks a local-unitary frame for every
seeded state and seeds ``SeeSawConfig``.  Local unitaries preserve every
norm, the PPT property and separability, so each seed gives new matrices
of the same difficulty, and figures from different seeds compare.
Gallery states stay in their standard frame: the maximally entangled and
maximally mixed states invert their brackets by a few ULP, and that known
defect must show on every seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from crossnorm import bounds, cli, core, separability
from crossnorm.core import BipartiteOperator, BipartiteShape, BipartiteVector
from crossnorm.gnorm import SeeSawConfig

@dataclass
class Case:
    """One timed call and the rows its output yields."""

    name: str
    kind: str
    shape: str
    call: Callable[[], object]
    rows: Callable[[object], list]
    fingerprint: Callable[[object], object]


def _shape(s: BipartiteShape) -> str:
    return f"{s.dh}x{s.dj}"


def _haar(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _local_frame(rng: np.random.Generator, shape: BipartiteShape) -> np.ndarray:
    return np.kron(_haar(rng, shape.dh), _haar(rng, shape.dj))


def rotate(op: BipartiteOperator, rng: np.random.Generator) -> BipartiteOperator:
    u = _local_frame(rng, op.shape)
    return BipartiteOperator(op.shape, u @ op.matrix @ u.conj().T)


def rotate_vector(v: BipartiteVector, rng: np.random.Generator) -> BipartiteVector:
    return BipartiteVector(v.shape, _local_frame(rng, v.shape) @ v.entries)


def _ginibre(shape: BipartiteShape, base_seed: int) -> BipartiteOperator:
    return core.random_density(shape, base_seed)


def _nonhermitian(n: int, base_seed: int) -> BipartiteOperator:
    rng = core.rng_from_seed(base_seed)
    m = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    return BipartiteOperator(BipartiteShape(n, n), m / np.linalg.norm(m))


def _maximally_mixed(d: int) -> BipartiteOperator:
    return BipartiteOperator(BipartiteShape(d, d), np.eye(d * d, dtype=complex) / (d * d))


# ---------------------------------------------------------------------------
# bounds / robustness: pi_bounds per operator


def _pi_bounds_case(name, kind, op, cfg, include_robustness) -> Case:
    def call():
        return bounds.pi_bounds(op, cfg, include_robustness=include_robustness)

    return Case(
        name=name, kind=kind, shape=_shape(op.shape), call=call,
        rows=lambda nb: [checks.bounds_row(op, nb)],
        fingerprint=checks.bounds_fingerprint,
    )


def _bounds_inputs(rng, tiny: bool) -> list:
    """(name, kind, operator) for the bounds workload."""
    if tiny:
        return [("max-entangled-2", "max-entangled", separability.max_entangled(2)),
                ("ginibre-2x2", "ginibre", rotate(_ginibre(BipartiteShape(2, 2), 7), rng))]
    out = []
    for d in (2, 3, 4):
        out.append((f"max-entangled-{d}", "max-entangled", separability.max_entangled(d)))
        out.append((f"max-mixed-{d}", "max-mixed", _maximally_mixed(d)))
    out.append(("isotropic-3-p0.2", "isotropic", separability.isotropic(0.2, 3)))
    out.append(("isotropic-3-p0.5", "isotropic", separability.isotropic(0.5, 3)))
    pure = separability.pure_with_schmidt([0.8, 0.5, np.sqrt(0.11)])
    out.append(("pure-schmidt-3", "pure-schmidt", pure.projector()))
    for dh, dj in ((2, 2), (2, 3), (3, 3), (4, 4), (5, 5)):
        op = rotate(_ginibre(BipartiteShape(dh, dj), 7), rng)
        out.append((f"ginibre-{dh}x{dj}", "ginibre", op))
    out.append(("nonhermitian-3x3", "nonhermitian", rotate(_nonhermitian(3, 3), rng)))
    return out


def _bounds(seed, tiny, workdir) -> list:
    rng = np.random.default_rng(seed)
    cfg = SeeSawConfig(seed=seed)
    return [_pi_bounds_case(n, k, op, cfg, False) for n, k, op in _bounds_inputs(rng, tiny)]


def _robustness(seed, tiny, workdir) -> list:
    rng = np.random.default_rng(seed)
    cfg = SeeSawConfig(seed=seed)
    items = [("isotropic-2-p0.6", "isotropic", separability.isotropic(0.6, 2))]
    if tiny:
        sep, _ = separability.random_separable(BipartiteShape(2, 2), 6, 11)
        items.append(("separable-2x2", "random-separable", rotate(sep, rng)))
    else:
        # The NPT 2x2 Ginibre density runs phase 2 (the LP).  NPT 2x3 densities
        # are left out: each takes 7-10 s, too long to time several times in a run.
        items.append(("ginibre-2x2", "ginibre", rotate(_ginibre(BipartiteShape(2, 2), 7), rng)))
        sep, _ = separability.random_separable(BipartiteShape(3, 3), 4, 11)
        items.append(("separable-3x3", "random-separable", rotate(sep, rng)))
    return [_pi_bounds_case(f"robustness-{n}", k, op, cfg, True) for n, k, op in items]


# ---------------------------------------------------------------------------
# classify


def _classify(seed, tiny, workdir) -> list:
    rng = np.random.default_rng(seed)
    cfg = SeeSawConfig(seed=seed)
    two_qubit = BipartiteShape(2, 2)
    items = []
    stream = core.rng_from_seed(7)
    for i in range(1 if tiny else 8):
        op = rotate(core.random_density(two_qubit, stream), rng)
        items.append((f"ginibre-2x2-{i}", "ginibre", op))
    items.append(("isotropic-2-p0.5", "isotropic", separability.isotropic(0.5, 2)))
    if not tiny:
        # No 4x4 mixture: one classify call on it takes 4-5 s, half of a pass,
        # too long to time several times in a run.
        for (dh, dj), k in (((2, 2), 6), ((3, 3), 4)):
            sep, _ = separability.random_separable(BipartiteShape(dh, dj), k, 11)
            items.append((f"separable-{dh}x{dj}", "random-separable", rotate(sep, rng)))
        # Ginibre densities whose searches both fail: they end Undecided
        for (dh, dj), base in (((2, 3), 100), ((2, 3), 101), ((3, 3), 202)):
            op = rotate(_ginibre(BipartiteShape(dh, dj), base), rng)
            items.append((f"ginibre-{dh}x{dj}-s{base}", "ginibre", op))
        items.append(("isotropic-2-p0.25", "isotropic", separability.isotropic(0.25, 2)))
        items.append(("isotropic-3-p0.2", "isotropic", separability.isotropic(0.2, 3)))
        items.append(("isotropic-3-p0.4", "isotropic", separability.isotropic(0.4, 3)))

    def case(name, kind, op):
        return Case(
            name=name, kind=kind, shape=_shape(op.shape),
            call=lambda: separability.classify(op, cfg),
            rows=lambda cls: [checks.classify_row(op, cls)],
            fingerprint=checks.classify_fingerprint,
        )

    return [case(*item) for item in items]


# ---------------------------------------------------------------------------
# cli_lab: in-process crossnorm.cli.main on files in a work directory


def _write_state(path: Path, state):
    path.write_text(json.dumps(core.to_state_dict(state)))


def _cli_case(name, kind, shape, argv, outputs, rows) -> Case:
    """``outputs`` are the files the call writes; the fingerprint is their bytes."""

    def call():
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"crossnorm {' '.join(argv)} exited {code}")
        return {p.name: p.read_bytes() for p in outputs}

    return Case(name=name, kind=kind, shape=shape, call=call, rows=rows,
                fingerprint=lambda out: tuple(sorted(out.items())))


def _cli_lab(seed, tiny, workdir) -> list:
    rng = np.random.default_rng(seed)
    wd = Path(workdir)
    common = ["--seed", str(seed), "--no-timestamp"]
    cases = []

    # p = 0:1:0.05 in four calls: the grid points are independent, and calls
    # of about a second each let every one be timed several times in a run
    grids = ["0:1:0.5"] if tiny else ["0:0.2:0.05", "0.25:0.45:0.05", "0.5:0.7:0.05",
                                      "0.75:1:0.05"]
    for grid in grids:
        iso_csv = wd / f"isotropic-{grid.split(':')[0]}.csv"
        cases.append(_cli_case(
            f"sweep-isotropic-p{grid}", "isotropic", "2x2",
            ["sweep", "isotropic", "--d", "2", "--p", grid, "--csv-out", str(iso_csv)] + common,
            [iso_csv], lambda out, name=iso_csv.name: checks.isotropic_sweep_rows(out[name], 2)))

    levels = 1 if tiny else 3
    div_csv = wd / "divergence.csv"
    cases.append(_cli_case(
        "sweep-divergence", "divergence", f"levels={levels}",
        ["sweep", "divergence", "--levels", str(levels), "--csv-out", str(div_csv)] + common,
        [div_csv], lambda out: checks.divergence_rows(out["divergence.csv"])))

    coeff_sets = [[0.8, 0.6]] if tiny else [[0.8, 0.6], [0.8, 0.5, np.sqrt(0.11)],
                                              [0.6, 0.5, 0.5, np.sqrt(0.14)]]
    for i, coeffs in enumerate(coeff_sets):
        vec = rotate_vector(separability.pure_with_schmidt(coeffs), rng)
        src = wd / f"pure-{i}.json"
        _write_state(src, vec)
        for n in range(1, len(coeffs) + 1):
            out = wd / f"witness-{i}-{n}.json"
            cases.append(_cli_case(
                f"witness-{i}-N{n}", "pure-schmidt", _shape(vec.shape),
                ["witness", str(src), str(n), "--json-out", str(out)] + common, [out],
                lambda o, out=out, coeffs=coeffs, n=n: [
                    checks.witness_row(o[out.name], coeffs, n)]))

    for n in ((3,) if tiny else (3, 4, 5)):
        op = rotate(_nonhermitian(n, 5), rng)
        src = wd / f"operator-{n}.json"
        _write_state(src, op)
        out = wd / f"gnorm-{n}.json"
        cases.append(_cli_case(
            f"gnorm-{n}x{n}", "nonhermitian", f"{n}x{n}",
            ["gnorm", str(src), "--json-out", str(out)] + common, [out],
            lambda o, out=out, op=op: [checks.gnorm_row(op, o[out.name])]))

    rho = rotate(_ginibre(BipartiteShape(2, 3), 3), rng)
    src = wd / "density.json"
    _write_state(src, rho)
    out = wd / "bounds.json"
    cases.append(_cli_case(
        "bounds-roundtrip", "ginibre", "2x3",
        ["bounds", str(src), "--no-robustness", "--json-out", str(out)] + common, [out],
        lambda o: [checks.bounds_report_row(rho, o[out.name])]))
    return cases


# Two workloads of two case sets each.  Every call is timed several times in
# a run and a run is long, so that each case's fastest call likely misses the
# slow spells of a shared machine; four workloads would leave each run too
# short for that.  ``bounds`` calls
# pi_bounds directly, with and without the robustness LP; ``lab`` runs
# classify and the CLI, the only callers of gnorm and truncation.
_BUILDERS = {
    "bounds": (_bounds, _robustness),
    "lab": (_classify, _cli_lab),
}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int, tiny: bool, workdir) -> list:
    """The cases of ``workload``; the CLI cases write their input files to ``workdir``."""
    return [case for builder in _BUILDERS[workload] for case in builder(seed, tiny, workdir)]
