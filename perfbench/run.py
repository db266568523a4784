"""ADA-GP training benchmark: BP vs ADA-GP vs data-parallel ADA-GP.

Run from the repository root:

    python3 perfbench/run.py --workload adagp-resnet50 --seed 0 --seconds 20 --trace 0

``--trace 0`` measures whole untraced fits until ``--seconds`` of fit
time has passed (at least one fit), then times the set-up in fresh
processes, and reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced fit and reports the per-layer metrics.  Every
fit is checked; a fit that breaks a check reports its batches as
failed.  ``--workload all`` runs every workload in its own process and
prints them side by side with the measured-vs-modelled speedup line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with
the environment stamp and the accuracy curve is written under
``.perfbench_out/`` (and the spans of a traced fit, as JSONL).  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PINNED_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_VARS = PINNED_THREAD_VARS + (
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "OMP_PROC_BIND",
    "OMP_WAIT_POLICY",
)

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no repro package under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))
# One BLAS/OpenMP thread per process, set before NumPy loads and
# inherited by the set-up probes and the data-parallel workers: two
# training processes with a full thread pool each oversubscribe the
# cores, and multi-threaded BLAS made serial runs noisier without making
# them faster (README.md, sizing findings).
for _var in PINNED_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import measure  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    BACKEND,
    DATASET,
    EPOCHS,
    MODEL,
    WORKLOADS,
    build,
    slot_schedule,
)


def fit_once(name: str, seed: int, traced: bool = False) -> measure.FitRun:
    """Build ``name`` from ``seed`` and run one checked, timed fit."""
    workload = build(name, seed)
    try:
        trace = spans.Trace(workload) if traced else None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            clock = measure.BatchClock(
                comm=workload.comm,
                counters=trace.conv_counters if trace else None,
                warnings=caught,
                recorder=trace.recorder if trace else None,
            )
            workload.engine.add_callback(clock)
            train = None
            if trace:
                train = lambda: trace.recorder.iterate(  # noqa: E731
                    "data.next", workload.train_batches()
                )
            history, error = None, ""
            start = time.perf_counter()
            try:
                history = workload.fit(train)
            except Exception as err:  # a crashed fit is reported, not raised
                traceback.print_exc(file=sys.stderr)
                error = f"{type(err).__name__}: {err}"
            seconds = time.perf_counter() - start
        if trace:
            trace.finish()
        comm = workload.comm.totals() if workload.comm is not None else {}
    finally:
        workload.close()
    return measure.FitRun(name, seconds, history, clock, comm, error, trace)


def setup_probe(name: str, seed: int) -> float:
    """Seconds from a fresh process's start to its ``fit()`` entry."""
    command = [sys.executable, __file__, "--setup-probe", "--workload", name]
    start = time.monotonic()
    done = subprocess.run(
        command + ["--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.split()[-1]) - start


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def src_digest() -> str:
    """SHA-256 over ``src/``'s Python files: the code measured, also in
    checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(name: str, seed: int) -> dict:
    """The stamp every result carries; never compare across stamps."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "cores": os.cpu_count(),
        "backend": BACKEND,
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def untraced(args) -> tuple[list, dict]:
    runs = [fit_once(args.workload, args.seed)]
    # Read after the first fit: later fits in the same process and the
    # set-up probes would raise it with memory that is not the workload's.
    rss = measure.peak_rss_mb()
    while not runs[-1].error and sum(run.seconds for run in runs) < args.seconds:
        runs.append(fit_once(args.workload, args.seed))
    problems = [p for run in runs for p in measure.check_fit(run)]
    problems += measure.check_repeat(runs)
    if any(run.error for run in runs):
        return runs, {"problems": problems, "metrics": None}
    setups = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    metrics = measure.end_to_end(runs, setups, rss)
    return runs, {"problems": problems, "metrics": metrics, "setup_s": setups}


def traced(args) -> tuple[list, dict]:
    runs = [fit_once(args.workload, args.seed)]
    if not runs[0].error:
        runs.append(fit_once(args.workload, args.seed, traced=True))
    problems = [p for run in runs for p in measure.check_fit(run)]
    problems += measure.check_repeat(runs)
    if any(run.error for run in runs):
        return runs, {"problems": problems, "metrics": None}
    metrics = measure.per_layer(runs[0], runs[1])
    error = metrics["obs.reconcile_error"]["value"]
    if error > measure.RECONCILE_BUDGET:
        problems.append(f"trace does not reconcile with engine.train_batch: {error:.2%}")
    OUT.mkdir(exist_ok=True)
    runs[1].trace.recorder.write_jsonl(
        OUT / f"{args.workload}.seed{args.seed}.spans.jsonl"
    )
    return runs, {"problems": problems, "metrics": metrics}


def run_one(args) -> int:
    runs, outcome = (traced if args.trace else untraced)(args)
    env = environment(args.workload, args.seed)
    problems, metrics = outcome["problems"], outcome["metrics"]
    attempted = len(runs) * measure.BATCHES_PER_FIT
    failed = attempted if problems else sum(run.failed for run in runs)
    first = runs[0].history
    record = {
        "env": env,
        "trace": args.trace,
        "seconds": args.seconds,
        "fits": [run.seconds for run in runs],
        "problems": problems,
        "val_acc_curve": list(first.val_metric) if first else None,
        "val_acc_final": first.val_metric[-1] if first else None,
        "best_metric": first.best_metric if first else None,
        "setup_s": outcome.get("setup_s"),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if first:
        print(
            f"{args.workload}: val_acc_final {first.val_metric[-1]:.2f} % "
            f"(best_metric {first.best_metric:.2f} %), curve "
            + " ".join(f"{v:.1f}" for v in first.val_metric)
        )
    for name, metric in (metrics or {}).items():
        print(f"{args.workload}  {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    print("perfbench-env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics or {},
    }
    print(json.dumps(result))
    return 0 if metrics is not None else 1


def run_all(args) -> int:
    """Every workload in its own process, side by side."""
    from repro.accel.calibrate import schedule_speedup
    from repro.core import phase_counts

    results = {}
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        command += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            results[name] = json.loads(lines[-1])
        except json.JSONDecodeError:
            results[name] = {"correct": False}
    for name, result in results.items():
        print(
            f"{name}: correct={result.get('correct')} "
            f"attempted={result.get('attempted')} failed={result.get('failed')}"
        )
    counts = phase_counts(slot_schedule(), EPOCHS, measure.BATCHES_PER_EPOCH)
    modelled = schedule_speedup(counts, MODEL, dataset=DATASET)
    bp, ada = (results[n].get("metrics", {}) for n in ("bp-resnet50", "adagp-resnet50"))
    if "fit_s" in bp and "fit_s" in ada:
        fit = bp["fit_s"]["value"] / ada["fit_s"]["value"]
        rate = ada["train_samples_per_s"]["value"] / bp["train_samples_per_s"]["value"]
        print(
            f"measured vs modelled (adagp-resnet50 over bp-resnet50): "
            f"fit_s {fit:.3f}x, train_samples_per_s {rate:.3f}x; "
            f"accel.calibrate.schedule_speedup {modelled:.3f}x"
        )
    else:
        print(f"modelled speedup (accel.calibrate.schedule_speedup): {modelled:.3f}x")
    print(
        json.dumps(
            {
                "correct": all(r.get("correct") for r in results.values()),
                "attempted": sum(r.get("attempted", 0) for r in results.values()),
                "failed": sum(r.get("failed", 0) for r in results.values()),
                "metrics": {n: r.get("metrics", {}) for n, r in results.items()},
            }
        )
    )
    return 0 if all(r.get("correct") for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        workload = build(args.workload, args.seed)
        print(repr(time.monotonic()), flush=True)
        workload.close()
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
