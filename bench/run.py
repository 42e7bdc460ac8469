"""crossnorm benchmark: one workload, one closed-loop caller, outputs re-checked.

Run from the root of a checkout:

    python3 bench/run.py --workload bounds --seed 1 --seconds 50 --trace 0

The run imports crossnorm from ``src/`` next to this directory, builds the
workload's inputs from ``--seed``, then calls the library one case at a
time, in turn, until ``--seconds`` have elapsed and every case has run.
Each case's first output is re-checked (``checks.py``); later calls must
repeat it exactly.  ``--trace 1`` adds one pass with every public
crossnorm function wrapped (``tracing.py``) and reports per-layer numbers
instead of the end-to-end ones.  The last line of standard output is one
JSON object; the full record, one row per result, goes to ``bench/out/``.
The traced seed-1 records of the first baseline are kept in ``bench/results/``.
"""

from __future__ import annotations

import os
import sys
import time

T0 = time.perf_counter()

# Pinned before NumPy loads: one BLAS thread, single-process closed loop.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_SAMPLES = 5  # this process plus four fresh interpreters
TAIL_LEVEL = 0.9
REFERENCE_SIZES = (4, 6, 9, 16)
REFERENCE_ROUNDS = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["bounds", "lab"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="a few inputs per workload, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and build the inputs, then print the time taken")
    return p.parse_args(argv)


def import_crossnorm():
    """Put this checkout's src/ first on the path; refuse any other crossnorm."""
    if not (SRC / "crossnorm" / "__init__.py").is_file():
        raise SystemExit(f"error: no crossnorm sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import crossnorm

    if Path(crossnorm.__file__).resolve().parent != (SRC / "crossnorm").resolve():
        raise SystemExit(f"error: imported crossnorm from {crossnorm.__file__}, not {SRC}")
    return crossnorm


def _workdir(args) -> Path:
    path = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def setup_probe(args) -> float:
    """Seconds from interpreter start-up to built inputs, in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def percentile(values: list, level: float) -> float:
    """Nearest-rank percentile: a value that was measured, never a blend."""
    ordered = sorted(values)
    return ordered[max(math.ceil(level * len(ordered)) - 1, 0)]


class Reference:
    """A fixed computation shaped like crossnorm's inner loop, to time the machine.

    Small Hermitian ``eigh`` and ``svd`` calls with Python glue between them,
    on matrices drawn once from a fixed seed.  Nothing in it depends on the
    workload, the seed or crossnorm, so only the machine changes its time.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.linalg = np.linalg
        self.mats = []
        for n in REFERENCE_SIZES:
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            self.mats.append(z + z.conj().T)

    def time(self) -> float:
        t = time.perf_counter()
        acc = 0.0
        for _ in range(REFERENCE_ROUNDS):
            for m in self.mats:
                w, v = self.linalg.eigh(m)
                s = self.linalg.svd(v @ m, compute_uv=False)
                acc += float(s[0]) + sum(float(x) for x in w)
        return time.perf_counter() - t


def run_passes(cases, seconds: float):
    """Closed loop, one call at a time, over the cases in turn.

    Stops after the call during which ``seconds`` run out, but not before
    every case has been called once.  The reference computation runs before
    the first call and after every call, and each call's time is also taken
    in units of the mean of the two reference times around it.  Returns the
    first output of every case (an exception stands in for the output of a
    call that raised), every case's call times in seconds and in reference
    units, every reference time and the names of cases whose output changed
    between calls.
    """
    first, fingerprints = [], []
    times = [[] for _ in cases]
    ratios = [[] for _ in cases]
    unstable = set()
    reference = Reference()
    refs = [reference.time()]
    start = time.perf_counter()
    n = 0
    while n < len(cases) or time.perf_counter() - start < seconds:
        i = n % len(cases)
        case = cases[i]
        t = time.perf_counter()
        try:
            out = case.call()
        except Exception as exc:  # a failed result, reported with the others
            out = exc
        dt = time.perf_counter() - t
        refs.append(reference.time())
        times[i].append(dt)
        ratios[i].append(dt / ((refs[-2] + refs[-1]) / 2))
        fp = repr(out) if isinstance(out, Exception) else case.fingerprint(out)
        if n < len(cases):
            first.append(out)
            fingerprints.append(fp)
        elif fp != fingerprints[i]:
            unstable.add(case.name)
        n += 1
    return first, times, ratios, refs, unstable


def traced_pass(cases, tracer):
    import tracing

    t_pass = time.perf_counter()
    with tracing.instrument(tracer):
        for case in cases:
            with tracer.call("call"):
                try:
                    case.call()
                except Exception:  # already counted as a failed result
                    pass
    return time.perf_counter() - t_pass


def result_rows(args, cases, outputs, times, unstable) -> list:
    import checks

    rows = []
    for case, out, ts in zip(cases, outputs, times):
        if isinstance(out, Exception):
            case_rows = [checks.make_row()]
            checks.add_problem(case_rows[0], f"call raised {type(out).__name__}: {out}")
        else:
            try:
                case_rows = case.rows(out)
            except Exception as exc:  # an output the checks cannot read is a wrong output
                case_rows = [checks.make_row()]
                checks.add_problem(case_rows[0], f"output unreadable: {type(exc).__name__}: {exc}")
        for row in case_rows:
            if case.name in unstable:
                checks.add_problem(row, "output differs between calls with one seed")
            row.update(workload=args.workload, case=case.name, kind=case.kind,
                       shape=case.shape, call_s=statistics.median(ts))
        rows.extend(case_rows)
    return rows


def _mean_gap(rows, lo_key, hi_key):
    gaps = [(r[hi_key] - r[lo_key]) / r[lo_key] for r in rows
            if r.get(lo_key) is not None and r.get(hi_key) is not None and r[lo_key] > 0]
    return statistics.fmean(gaps) if gaps else float("nan")


def pass_time(times) -> float:
    """Time of one pass over the cases, each at its fastest call.

    Where the cores are shared, other processes can make a call up to twice
    as slow, for seconds or for minutes at a time; they never speed one up.
    The fastest of a case's calls is the one least disturbed.  Taken in
    reference units, a call is also cleared of a slow spell that lasts the
    whole run, because the spell slows the reference computation next to
    it as well.  On one 2-CPU machine, ten runs spread about three times
    less in reference units than in seconds.
    """
    return sum(min(ts) for ts in times)


def end_to_end(rows, ratios, setup_samples) -> dict:
    verdicts = [r["verdict"] for r in rows if r["verdict"] is not None]
    decided = sum(v in ("Separable", "Entangled") for v in verdicts)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_ref": (pass_time(ratios), "ref"),
        "pi_gap": (_mean_gap(rows, "pi_lower", "pi_upper"), "ratio"),
        "h_gap": (_mean_gap(rows, "h_lower", "h_upper"), "ratio"),
        "decided_frac": (decided / len(verdicts) if verdicts else float("nan"), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def seconds_metrics(times, refs) -> dict:
    """The pass, reference and call times in seconds: printed, not gated.

    In seconds the pass time follows the machine's slow spells, and across
    ten seeds it spreads about as widely as the largest bound allowed.  The
    call figures are a median and a p90 over the cases, each at its median
    over its calls: the cases differ in size by a factor of 100, so these
    follow whichever case sits at the percentile.
    """
    cases = [statistics.median(ts) for ts in times]
    return {"wall_s": pass_time(times), "reference_s": statistics.median(refs),
            "call_s_p50": statistics.median(cases), "call_s_tail": percentile(cases, TAIL_LEVEL)}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_crossnorm()
    import workloads

    workdir = _workdir(args)
    try:
        cases = workloads.build(args.workload, args.seed, args.tiny, workdir)
        setup_here = time.perf_counter() - T0
        if args.setup_probe:
            print(repr(setup_here))
            return 0
        return measure(args, cases, setup_here)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, cases, setup_here: float) -> int:
    import tracing

    setup_samples = [setup_here] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    outputs, times, ratios, refs, unstable = run_passes(cases, args.seconds)
    rows = result_rows(args, cases, outputs, times, unstable)
    metrics = end_to_end(rows, ratios, setup_samples)
    in_seconds = seconds_metrics(times, refs)

    failed = [r for r in rows if r["problems"]]
    severe = [r for r in failed if any(p["severe"] for p in r["problems"])]
    correct = not severe
    n_calls = sum(len(ts) for ts in times)
    above = sum(1 for ts in times if statistics.median(ts) > in_seconds["call_s_tail"])

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    passes = min(len(ts) for ts in times)
    record = {"environment": environment(args), "passes": passes, "call_times_s": times,
              "call_times_ref": ratios, "reference_times_s": refs,
              "setup_samples_s": setup_samples, "calls": n_calls,
              "call_s_tail_level": TAIL_LEVEL, "cases_above_tail": above,
              "attempted": len(rows), "failed": len(failed), "correct": correct,
              "end_to_end": {k: v for k, (v, _) in metrics.items()}, "seconds": in_seconds,
              "rows": rows}

    print(f"crossnorm bench: {json.dumps(record['environment'], sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:>16} {value:.6g} {unit}")
    for name, value in in_seconds.items():
        print(f"{name:>16} {value:.6g} s")
    print(f"{'':>16} over {len(cases)} case medians of {passes}+ calls each ({n_calls} calls); "
          f"tail is p{round(TAIL_LEVEL * 100)}, {above} cases above it")
    print(f"{'failed_frac':>16} {len(failed) / len(rows):.6g} frac "
          f"({len(failed)} of {len(rows)} results; {len(severe)} wrong beyond rounding)")
    for r in failed:
        print(f"  failed {r['case']} {r.get('point', '')}: "
              + "; ".join(p["message"] for p in r["problems"]))
    if unstable:
        print(f"  not deterministic: {sorted(unstable)}")

    if args.trace:
        tracer = tracing.Tracer()
        traced_wall = traced_pass(cases, tracer)
        values = tracing.layer_values(tracer)
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - in_seconds["wall_s"]
        units = dict(tracing.LAYER_METRICS)
        reported = {k: {"value": values[k], "unit": units[k]} for k, _ in tracing.LAYER_METRICS}
        record["per_layer"] = {k: v["value"] for k, v in reported.items()}
        record["functions"] = {n: {"calls": c, "s": s, "self_s": ss}
                               for n, (c, s, ss) in sorted(tracer.stats.items())}
        record["top_level_s"] = sum(tracer.top_level_durations())
        record["self_s_total"] = sum(ss for _, _, ss in tracer.stats.values())
        spans = OUT_DIR / f"{stem}-spans.npz"
        tracer.save(spans)
        record["spans"] = {"file": spans.name, "count": len(tracer.start)}
        for name, v in reported.items():
            print(f"{name:>40} {v['value']:.6g} {v['unit']}")
    else:
        reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(rows), "failed": len(failed),
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
