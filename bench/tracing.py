"""Spans around crossnorm's public functions, set from outside the library.

``instrument`` replaces every module attribute that names a public
crossnorm function (and a few foreign kernels the library calls) with a
wrapper that records a span, then restores the originals.  A wrapper sets
on the attribute the caller looks up, so ``from .core import x`` imports
are traced as well.  Spans are only recorded inside a top-level call
opened with ``Tracer.call``; the re-checks run outside any call and add
nothing.  NumPy's ``eigh`` and ``svd`` are counted, not spanned: they run
hundreds of thousands of times per pass.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
from array import array
from collections import Counter
from time import perf_counter as _clock

import numpy as np

import crossnorm
from crossnorm import bounds, cli, core, gnorm, separability, truncation

MODULES = (core, gnorm, bounds, separability, truncation, cli)
METHODS = ((core.BipartiteOperator, "is_psd", "core.is_psd"),
           (truncation.BlockFamily, "dense_operator", "truncation.dense_operator"))
FOREIGN_SPANS = ((bounds, "nnls", "bounds.nnls"), (bounds, "linprog", "bounds.linprog"))
FOREIGN_COUNTS = ((np.linalg, "eigh", "numpy.eigh.calls"), (np.linalg, "svd", "numpy.svd.calls"))


class Tracer:
    """In-memory spans: name, start, end, parent span and top-level call."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.root = array("i")
        self._stack: list[list] = []  # [span index, start, time covered by children]
        self._depth: Counter = Counter()
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @property
    def active(self) -> bool:
        return bool(self._stack)

    def open(self, name: str, now: float):
        idx = len(self.start)
        parent = self._stack[-1][0] if self._stack else -1
        self.name.append(self._id(name))
        self.start.append(now)
        self.end.append(now)
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else idx)
        self._stack.append([idx, now, 0.0])
        self._depth[name] += 1

    def close(self, name: str, now: float):
        idx, start, covered = self._stack.pop()
        self.end[idx] = now
        duration = now - start
        if self._stack:
            self._stack[-1][2] += duration
        self._depth[name] -= 1
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        if self._depth[name] == 0:  # inclusive time of the outermost occurrence only
            st[1] += duration
        st[2] += duration - covered

    @contextlib.contextmanager
    def call(self, name: str):
        """A top-level span: one timed call of the workload."""
        self.open(name, _clock())
        try:
            yield
        finally:
            self.close(name, _clock())

    def top_level_durations(self) -> list:
        return [self.end[i] - self.start[i] for i in range(len(self.start)) if self.parent[i] < 0]

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            root=np.frombuffer(self.root, dtype=np.int32),
        )


# ---------------------------------------------------------------------------
# what some layers report about their own outcome


def _pi_bounds_outcome(tr: Tracer, nb):
    tr.counts["bounds.witness_lower_wins"] += nb.methods.get("pi_lower") == "witness"
    tr.counts["bounds.robustness_wins"] += nb.methods.get("h_upper") == "robustness"


def _separable_fit_outcome(tr: Tracer, out):
    dec, rounds = out
    tr.counts["bounds.separable_fit.rounds"] += rounds
    tr.counts["bounds.separable_fit.ok"] += dec is not None


def _robustness_outcome(tr: Tracer, rb):
    tr.counts["bounds.robustness_upper.rounds"] += rb.rounds_used
    tr.counts["bounds.robustness_upper.ok"] += bool(rb.success)


def _gnorm_outcome(tr: Tracer, est):
    tr.counts["gnorm.g_norm_seesaw.half_steps"] += sum(len(h) for h in est.histories)
    tr.counts["gnorm.g_norm_seesaw.converged"] += bool(est.converged)
    lo, hi = est.lower_bound, est.upper_bound
    if lo > 0:
        tr.counts["gnorm.g_norm_seesaw.gap_sum"] += (hi - lo) / lo


def _classify_outcome(tr: Tracer, cls):
    tr.counts[f"separability.classify.verdict.{cls.verdict}"] += 1


OUTCOMES = {
    "bounds.pi_bounds": _pi_bounds_outcome,
    "bounds.separable_fit": _separable_fit_outcome,
    "bounds.robustness_upper": _robustness_outcome,
    "gnorm.g_norm_seesaw": _gnorm_outcome,
    "separability.classify": _classify_outcome,
}


def _span_wrapper(tr: Tracer, name: str, fn):
    outcome = OUTCOMES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        tr.open(name, _clock())
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.close(name, _clock())
        if outcome is not None:
            outcome(tr, out)
        return out

    return wrapper


def _count_wrapper(tr: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tr.active:
            tr.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _public_functions(module):
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, value in vars(module).items():
        if not attr.startswith("_") and inspect.isfunction(value) \
                and value.__module__ == module.__name__:
            yield value, f"{short}.{attr}"


@contextlib.contextmanager
def instrument(tr: Tracer):
    """Wrap crossnorm's public functions for the duration of the block."""
    wrappers = {}
    for module in MODULES:
        for fn, name in _public_functions(module):
            wrappers[fn] = _span_wrapper(tr, name, fn)
    for owner, attr, name in FOREIGN_SPANS:
        fn = getattr(owner, attr)
        wrappers[fn] = _span_wrapper(tr, name, fn)

    patched = []  # (owner, attr, original)

    def patch(owner, attr, new):
        patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        for module in MODULES + (crossnorm,):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    patch(module, attr, wrappers[value])
        for cls, attr, name in METHODS:
            patch(cls, attr, _span_wrapper(tr, name, getattr(cls, attr)))
        for owner, attr, name in FOREIGN_COUNTS:
            patch(owner, attr, _count_wrapper(tr, name, getattr(owner, attr)))
        yield tr
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def _timed(name: str, *which: str) -> list:
    units = {"calls": "count", "s": "s", "self_s": "s"}
    return [(f"{name}.{w}", units[w]) for w in which]


LAYER_METRICS = (
    _timed("bounds.pi_bounds", "calls", "s", "self_s")
    + _timed("bounds.lower_bound_witness", "calls", "s")
    + [("bounds.witness_lower_wins_frac", "frac")]
    + _timed("bounds.upper_bound_spectral", "s")
    + _timed("bounds.hermitian_upper", "s")
    + _timed("bounds.upper_bound_realignment", "s")
    + _timed("bounds.lower_bound_realignment", "s")
    + _timed("core.eigh_blocks", "calls", "s")
    + _timed("bounds.separable_fit", "calls", "s")
    + [("bounds.separable_fit.rounds", "count"), ("bounds.separable_fit.ok_frac", "frac")]
    + _timed("bounds.nnls", "calls", "s")
    + _timed("bounds.robustness_upper", "calls", "s")
    + [("bounds.robustness_upper.rounds", "count"), ("bounds.robustness_upper.ok_frac", "frac"),
       ("bounds.robustness_wins_frac", "frac")]
    + _timed("bounds.linprog", "calls", "s")
    + _timed("gnorm.g_norm_seesaw", "calls", "s")
    + [("gnorm.g_norm_seesaw.half_steps", "count"),
       ("gnorm.g_norm_seesaw.converged_frac", "frac"), ("gnorm.g_norm_seesaw.gap", "ratio")]
    + _timed("separability.classify", "calls", "s", "self_s")
    + [(f"separability.classify.verdict.{v}", "count")
       for v in ("Separable", "Entangled", "Undecided")]
    + _timed("separability.witness_check", "s")
    + _timed("truncation.divergence_sweep", "s")
    + _timed("truncation.divergent_lower_bound", "s")
    + _timed("truncation.dense_operator", "s")
    + _timed("cli.main", "calls", "s", "self_s")
    + _timed("cli.load_state", "s")
    + _timed("core.schmidt_decompose", "calls", "s")
    + _timed("core.operator_schmidt", "calls", "s")
    + _timed("core.trace_norm", "calls", "s")
    + [("core.realign.calls", "count"), ("core.is_psd.calls", "count"),
       ("numpy.eigh.calls", "count"), ("numpy.svd.calls", "count"),
       ("trace.wall_s", "s"), ("trace.overhead_s", "s")]
)


# share metric: (count, span whose calls are the base)
RATIOS = {
    "bounds.witness_lower_wins_frac": ("bounds.witness_lower_wins", "bounds.pi_bounds"),
    "bounds.robustness_wins_frac": ("bounds.robustness_wins", "bounds.pi_bounds"),
    "bounds.separable_fit.ok_frac": ("bounds.separable_fit.ok", "bounds.separable_fit"),
    "bounds.robustness_upper.ok_frac": ("bounds.robustness_upper.ok", "bounds.robustness_upper"),
    "gnorm.g_norm_seesaw.converged_frac": ("gnorm.g_norm_seesaw.converged", "gnorm.g_norm_seesaw"),
    "gnorm.g_norm_seesaw.gap": ("gnorm.g_norm_seesaw.gap_sum", "gnorm.g_norm_seesaw"),
}
SPAN_STATS = {"calls": 0, "s": 1, "self_s": 2}


def layer_values(tr: Tracer) -> dict:
    """Every LAYER_METRICS value except the trace.* ones, from one traced pass.

    A layer that did no work reads 0, and so does a share of zero attempts;
    the base of each share is reported beside it.
    """
    out = {}
    for metric, _unit in LAYER_METRICS:
        name, which = metric.rsplit(".", 1)
        if metric.startswith("trace."):
            continue
        if metric in RATIOS:
            count, base = RATIOS[metric]
            calls = tr.stats.get(base, [0])[0]
            out[metric] = tr.counts[count] / calls if calls else 0.0
        elif which in SPAN_STATS and name in tr.stats:
            out[metric] = tr.stats[name][SPAN_STATS[which]]
        else:
            out[metric] = tr.counts[metric]
    return out
