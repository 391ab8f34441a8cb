"""otsc benchmark: one workload, one seed, a fixed time, one JSON result line.

    python3 perfbench/run.py --workload fit-small --seed 1 --seconds 25 --trace 0

The run sets itself up several times (dataset generation, CSV round trip,
checkpoint, warm-up) and reports the median as ``setup_s``. It then repeats
fixed rounds of the workload's work for ``--seconds`` seconds, in a closed
loop from one caller, checking every output. Between rounds it times a
reference loop (``speed.py``) and scales each round's times by the machine's
speed at that moment; the unscaled times are in the run record too.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``; with ``--trace 1`` the per-layer metrics, from rounds that
alternate untraced and traced so that their difference is the tracing
overhead. The lines before it are a readable summary and the run record
(environment, commit, seed, workload and why it exists).

Exits 2 without a result when the ``otsc`` sources are not in ``src/`` next
to this directory, and 1 when set-up fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("fit-small", "fit-large", "ot-solve", "eval-baselines")
SETUP_REPS = 3

# end-to-end metric -> unit; times are scaled to the reference loop's speed
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; 0 runs the fewest rounds a result needs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes instead of the benchmark sizes")
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, also write the spans as JSON lines here")
    return parser.parse_args(argv)


def _blas_threads() -> int:
    """Pin BLAS to one thread through the environment, before numpy loads.

    One thread is at most nproc on any machine. On the 2-core machine the
    bounds were set on, a second OpenBLAS thread made the B=1024 step slower
    (the products there have an inner dimension of 2) and its timing noisier.
    """
    threads = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _why(workload: str) -> str:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return ""
    return next((w["why"] for w in spec.get("workloads", []) if w["name"] == workload), "")


def _environment(threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def main(argv=None) -> int:
    args = _parse_args(argv)
    threads = _blas_threads()

    import_start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import otsc
        import speed
        import tracing
        import workloads
    except ImportError as err:
        print(f"error: cannot import the otsc sources under {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    if not Path(otsc.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: otsc was imported from {otsc.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - import_start

    workload = workloads.make(args.workload, tiny=args.tiny)
    tracer = tracing.Tracer() if args.trace else None
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = _set_up(workload, args.seed, workdir, tracer, speed)
        rounds = _measure(workload, args.seconds, tracer, speed, setup["ref"])
    except Exception as err:
        print(f"error: {args.workload} failed outside its checked operations: {err!r}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    op_ms = [1000.0 * s for s in workload.rec.op_s]
    untraced = rounds[False]
    if tracer:
        metrics = _per_layer(tracer, rounds, op_ms)
        units = tracing.PER_LAYER
        if args.spans:
            tracer.dump(args.spans)
    else:
        # set-up is scaled by the machine speed measured while setting up
        setup_ref = statistics.median(setup["ref"][:SETUP_REPS])
        setup_scale = speed.factor(workload.reference, setup_ref, setup_ref)
        scaled_ms = [op_ms[i] * f for _, f, a, b in untraced for i in range(a, b)]
        metrics = {
            "setup_s": (import_s + statistics.median(setup["rep_s"])) * setup_scale,
            "wall_s": statistics.median(r[0] * r[1] for r in untraced),
            "op_ms_p50": _percentile(scaled_ms, 50),
            "op_ms_p90": _percentile(scaled_ms, 90),
            "ops_per_s": workload.rec.attempted / sum(r[0] * r[1] for r in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    every_round = rounds[False] + rounds[True]
    unscaled = {
        "setup_s": (import_s + statistics.median(setup["rep_s"]), "s"),
        "wall_s": (statistics.median(r[0] for r in untraced), "s"),
        "op_ms_p50": (_percentile(op_ms, 50), "ms"),
        "op_ms_p90": (_percentile(op_ms, 90), "ms"),
        "ops_per_s": (workload.rec.attempted / sum(r[0] for r in every_round), "1/s"),
        "reference_ms": (1000.0 * statistics.median(setup["ref"]), "ms"),
        **workload.summary(),
    }
    record = {
        "workload": args.workload,
        "why": _why(args.workload),
        "op": workload.op_name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "commit": _git_commit(),
        "environment": _environment(threads),
        "loop": "closed, 1 caller",
        "rounds": {"untraced": len(untraced), "traced": len(rounds[True])},
        "setup_reps_s": setup["rep_s"],
        "import_s": import_s,
        "unscaled": {name: value for name, (value, _) in unscaled.items()},
        "errors": workload.rec.errors,
    }
    _print_summary(args, workload, tracer, metrics, units, unscaled)
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": workload.rec.failed == 0 and workload.rec.attempted > 0,
        "attempted": workload.rec.attempted,
        "failed": workload.rec.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def _set_up(workload, seed, workdir, tracer, speed) -> dict:
    """Prepare the workload SETUP_REPS times, timing each repetition.

    ``ref`` collects the reference-loop times taken after each repetition;
    the measuring loop goes on appending to it. The first set-up runs cold,
    so no reference is taken before it.
    """
    ref, rep_s = [], []
    if tracer:
        tracer.install()
    try:
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            workload.prepare(seed, workdir)
            rep_s.append(time.perf_counter() - start)
            ref.append(speed.reference_seconds(workload.reference))
    finally:
        if tracer:
            tracer.uninstall()
    workload.rec = type(workload.rec)()  # drop the warm-up operations
    return {"ref": ref, "rep_s": rep_s}


def _measure(workload, seconds, tracer, speed, ref) -> dict:
    """Run rounds until ``seconds`` have passed; with a tracer, odd rounds are traced.

    Returns ``{traced: [(seconds, speed factor, first op, end op), ...]}``.
    """
    rounds = {False: [], True: []}
    min_rounds = 2 if tracer else 1
    begin = time.perf_counter()
    index = 0
    while True:
        traced = bool(tracer) and index % 2 == 1
        first = len(workload.rec.op_s)
        if traced:
            tracer.run = index
            tracer.install()
        start = time.perf_counter()
        try:
            workload.run_round(index)
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        ref.append(speed.reference_seconds(workload.reference))
        scale = speed.factor(workload.reference, ref[-2], ref[-1])
        rounds[traced].append((elapsed, scale, first, len(workload.rec.op_s)))
        index += 1
        if time.perf_counter() - begin >= seconds and index >= min_rounds:
            return rounds


def _per_layer(tracer, rounds, op_ms) -> dict:
    """Layer metrics of the traced rounds plus the tracing overhead."""
    traced_ops = [op_ms[i] for _, _, a, b in rounds[True] for i in range(a, b)]
    untraced_ops = [op_ms[i] for _, _, a, b in rounds[False] for i in range(a, b)]
    metrics = tracer.layer_metrics(len(traced_ops))
    metrics["trace.op_ms"] = statistics.fmean(traced_ops)
    metrics["trace.untraced_op_ms"] = statistics.fmean(untraced_ops)
    metrics["trace.overhead_s"] = (statistics.median(r[0] for r in rounds[True])
                                   - statistics.median(r[0] for r in rounds[False]))
    return metrics


def _print_summary(args, workload, tracer, metrics, units, unscaled) -> None:
    rec = workload.rec
    print(f"otsc benchmark: {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"ops_attempted {rec.attempted} ({workload.op_name}s), ops_failed {rec.failed}")
    heading = "per layer, as timed" if tracer else "end to end, scaled to the reference loop"
    for title, rows in ((heading, {n: (v, units[n]) for n, v in metrics.items()}),
                        ("as timed, unscaled", unscaled)):
        print(f" {title}:")
        for name, (value, unit) in rows.items():
            print(f"  {name:<46} {value:12.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
