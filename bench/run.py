"""Benchmark of the qheis toolkit: one workload, one seed, one result line.

    python3 bench/run.py --workload recover --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the benchmark imports qheis from
its ``src`` directory and nowhere else.  A run

1. starts a fresh interpreter several times, each importing qheis and
   generating the workload's inputs, and reports the median as setup_s;
2. runs the first item once, untimed, so lazy set-up and first-call
   effects stay out of the timed region;
3. runs a fixed list of items one after another (a closed loop with one
   client), sized so that it lasts about ``--seconds`` on the machine the
   nominal item costs were measured on, and grades every output.

Times are normalised by the reference kernel of ``speed.py``, timed around
every probe and item.  With ``--trace 1`` the loop instead runs each item
untraced and then traced, after one traced run of the first item that is
the reference for the exact-count self-check; the result line then carries
the per-layer metrics, and the spans go to ``.benchout/`` in the checkout.
The last line of standard output is the JSON result; the line before it is
a JSON record of the run (environment, raw times, failed checks).
"""

import os

# Single-threaded BLAS, fixed before numpy is first imported here or in a
# child interpreter.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402  (bench/ is on sys.path as the script's directory)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".benchout"

SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60
#: No item starts once the loop has run this many times its nominal length,
#: so that a much slower commit still ends in time.  The times are then
#: scaled up to the whole list; the counts of a traced run are not.
LOOP_CAP = 2.5

# A fresh interpreter that imports qheis and generates the inputs: set-up.
PROBE = (
    "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import qheis, workloads; "
    "workloads.make_inputs(sys.argv[3], int(sys.argv[4]), int(sys.argv[5]))"
)

END_TO_END = {"wall_ref_s": "s", "item_ref_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_qheis():
    """Import qheis from this checkout's src, refusing any other copy."""
    if not (SRC / "qheis" / "__init__.py").is_file():
        raise SystemExit(f"error: no qheis sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qheis

    if Path(qheis.__file__).resolve().parent != SRC / "qheis":
        raise SystemExit(f"error: imported qheis from {qheis.__file__}, not from {SRC}")


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, argv):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "argv": argv,
    }


def probe_setup(workload, seed, count, importtime):
    """Fresh set-ups: (normalised median, raw median, import qheis, scipy part).

    The reference kernel runs before the first probe and after each one.
    With importtime the last two are medians from ``-X importtime``, else None.
    """
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += ["-c", PROBE, str(SRC), str(BENCH), workload, str(seed), str(count)]
    walls, refs, qheis_s, optimize_s = [], [speed.measure()], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        refs.append(speed.measure())
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr[-2000:]}")
        if importtime:
            total, scipy_part = import_times(proc.stderr)
            qheis_s.append(total)
            optimize_s.append(scipy_part)
    median = statistics.median
    imports = (median(qheis_s), median(optimize_s)) if importtime else (None, None)
    return (median(speed.normalise(walls, refs)), median(walls)) + imports


def import_times(stderr):
    """(import qheis, scipy part of it) in seconds from ``-X importtime`` output.

    qheis imports scipy only for ``scipy.optimize``, and ``from scipy import
    optimize`` leaves no line of its own, so the scipy part is the self time
    of every scipy module imported before ``qheis`` finishes.
    """
    scipy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        own, cumulative, package = line[len("import time:"):].split("|")
        package = package.strip()
        if package == "scipy" or package.startswith("scipy."):
            scipy_us += int(own)
        elif package == "qheis":
            return int(cumulative) * 1e-6, scipy_us * 1e-6
    raise ValueError("no import time recorded for qheis")


class Runner:
    """Runs and grades items, collecting every check and error of the run."""

    def __init__(self, workloads, name):
        self.workloads = workloads
        self.name = name
        self.checks = []
        self.errors = []

    def __call__(self, item):
        """Wall seconds of one item; its output is graded afterwards."""
        t0 = time.perf_counter()
        try:
            output = self.workloads.run_item(self.name, item)
        except Exception:  # a failing item is a result, not the end of the run
            seconds = time.perf_counter() - t0
            self.errors.append(traceback.format_exc())
            self.checks.append(("item-raised", float("nan"), 0.0))
            return seconds
        seconds = time.perf_counter() - t0
        self.checks.extend(self.workloads.grade(self.name, item, output))
        return seconds


def closed_loop(step, items, budget_s):
    """Run `step` on each item in turn; returns (step results, kernel times).

    The reference kernel runs before the first item and after each one.
    No further item starts once the loop has run `budget_s` seconds.
    """
    gc.collect()
    results, refs = [], [speed.measure()]
    start = time.perf_counter()
    for item in items:
        results.append(step(item))
        refs.append(speed.measure())
        if time.perf_counter() - start > budget_s:
            break
    return results, refs


def traced_metrics(tracer, traced_s, untraced_s, import_s, optimize_s):
    """Per-layer metrics from the spans and counts of the traced items."""
    from tracer import HESS_BYTES_PER_POINT

    layer_self, inclusive = tracer.times()
    c = tracer.counts()
    points = c["jets.points_value"] + c["jets.points_jet"]
    search_s = inclusive.get("quadrature.minimize_quotient", 0.0)
    mc_s = inclusive.get("quadrature.integrate_mc", 0.0)
    metrics = {
        "trace.wall_s": (traced_s, "s"),
        "trace.overhead_pct": (100.0 * (traced_s / untraced_s - 1.0), "%"),
        "jets.calls": (c["jets.calls"], "count"),
        "jets.points_value": (c["jets.points_value"], "count"),
        "jets.points_jet": (c["jets.points_jet"], "count"),
        "jets.self_s": (layer_self["jets"], "s"),
        "jets.us_per_point": (1e6 * layer_self["jets"] / points if points else 0.0, "us"),
        "jets.hess_bytes": (points * HESS_BYTES_PER_POINT, "B"),
        "quadrature.levels": (c["quadrature.levels"], "count"),
        "quadrature.nodes": (c["quadrature.nodes"], "count"),
        "quadrature.self_s": (layer_self["quadrature"], "s"),
        "quadrature.mc_samples": (c["quadrature.mc_samples"], "count"),
        "quadrature.mc_s_per_1e5": (
            1e5 * mc_s / c["quadrature.mc_samples"] if c["quadrature.mc_samples"] else 0.0, "s"),
        "quadrature.search_nfev": (c["quadrature.search_nfev"], "count"),
        "quadrature.search_restarts": (c["quadrature.search_restarts"], "count"),
        "quadrature.search_s_per_eval": (
            search_s / c["quadrature.search_nfev"] if c["quadrature.search_nfev"] else 0.0, "s"),
    }
    for layer in ("frame", "conformal", "extremals"):
        metrics[f"{layer}.calls"] = (c[f"{layer}.calls"], "count")
        metrics[f"{layer}.points"] = (c[f"{layer}.points"], "count")
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
    metrics["quaternions.calls"] = (c["quaternions.calls"], "count")
    metrics["quaternions.self_s"] = (layer_self["quaternions"], "s")
    for suite in ("frames", "conformal", "extremal", "cayley", "qmatrix"):
        metrics[f"audit.{suite}_s"] = (inclusive.get(f"audit.run_suite:{suite}", 0.0), "s")
    metrics["audit.checks"] = (c["audit.checks"], "count")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.import_scipy_optimize_s"] = (optimize_s, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    import_qheis()
    import workloads

    if args.workload not in workloads.NAMES:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {', '.join(workloads.NAMES)}")
    name = args.workload
    count = workloads.item_count(name, args.seconds)
    setup_s, setup_raw_s, import_s, optimize_s = probe_setup(
        name, args.seed, count, bool(args.trace))
    items = workloads.make_inputs(name, args.seed, count)

    run = Runner(workloads, name)
    budget_s = LOOP_CAP * workloads.NOMINAL_ITEM_S[name] * len(items)
    # Warm-up: the first item once, untimed and graded like the rest.
    warmup_s = run(items[0])
    record = {
        "env": environment(args, argv),
        "items": len(items),
        "setup_raw_s": setup_raw_s,
        "warmup": {"items": 1, "seconds": warmup_s,
                   "handling": "first item run once, untimed, before the timed loop"},
    }

    if not args.trace:
        times, refs = closed_loop(run, items, budget_s)
        scale = len(items) / len(times)
        normalised = speed.normalise(times, refs)
        record.update(items_run=len(times), item_s=times, kernel_s=refs,
                      wall_s=sum(times) * scale,
                      item_s_p50=statistics.median(times))
        metrics = {
            "wall_ref_s": sum(normalised) * scale,
            "item_ref_s_p50": statistics.median(normalised),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    else:
        import numpy as np
        from tracer import Tracer

        tracer = Tracer()
        first_counts = []

        def paired(item):
            """The item untraced, then traced: the pair cancels slow drifts of the machine."""
            untraced = run(item)
            tracer.install()
            try:
                traced = run(item)
            finally:
                tracer.uninstall()
            if not first_counts:
                first_counts.append(tracer.counts())
            return untraced, traced

        tracer.install()
        try:
            run(items[0])
        finally:
            tracer.uninstall()
        reference = tracer.counts()
        tracer.reset()
        pairs, _ = closed_loop(paired, items, 2 * budget_s)
        repeat = first_counts[0] == reference
        run.checks.append(("exact-counts-repeat", 0.0 if repeat else float("nan"), 0.0))
        untraced_s, traced_s = (sum(column) for column in zip(*pairs))
        record.update(items_run=len(pairs), item_s=pairs)
        record["count_reference"] = reference
        metrics = traced_metrics(tracer, traced_s, untraced_s, import_s, optimize_s)
        OUT.mkdir(exist_ok=True)
        np.savez_compressed(OUT / f"trace-{name}-seed{args.seed}.npz", **tracer.span_arrays())

    checks, errors = run.checks, run.errors
    failed = [c for c in checks if not workloads.passed(c[1], c[2])]
    record["failed_checks"] = [(check, repr(residual), tol) for check, residual, tol in failed]
    record["failed_ratio"] = len(failed) / len(checks)
    record["errors"] = errors
    for text in errors:
        print(text, file=sys.stderr)
    print(json.dumps(record, default=float))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
