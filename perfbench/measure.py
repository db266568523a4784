"""Per-batch clock, per-run correctness checks and end-to-end metrics.

The fit loop is closed: the engine starts the next batch only after the
previous one returns, so a batch's wall time is the span between the
engine's ``on_batch_begin`` and ``on_batch_end`` callbacks.  An
operation is one training batch.  It fails when it raises, returns a
non-finite loss, or makes the data-parallel strategy retry, rebuild or
degrade.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core import Callback, Phase, phase_counts

from spans import TRAIN_BATCH, Trace, reconcile, span_totals
from workloads import BATCH, EPOCHS, NUM_TRAIN, slot_schedule

BATCHES_PER_EPOCH = -(-NUM_TRAIN // BATCH)
BATCHES_PER_FIT = EPOCHS * BATCHES_PER_EPOCH
_FAULT_KEYS = ("faults", "retries", "rebuilds")
#: Largest gap allowed between the trace and engine.train_batch totals.
RECONCILE_BUDGET = 0.01


@dataclass
class BatchRecord:
    slot: str  # "bp" or "gp": the ADA-GP schedule slot of the batch
    phase: Phase  # the phase the engine actually ran
    seconds: float
    loss: float
    grad_wire_bytes: float  # gradient bytes the batch put on the wire
    failed: bool
    counters: tuple = ()  # per-batch deltas of the caller's counters


class BatchClock(Callback):
    """Times every training batch and checks it as it completes.

    ``comm`` is the data-parallel ``CommStats`` (``None`` on serial
    runs); ``counters`` is an optional callable returning a tuple of
    cumulative counters whose per-batch deltas are kept; ``warnings``
    is the list a ``warnings.catch_warnings(record=True)`` block fills,
    so a ``repro.dist`` forfeit or degrade warning fails the batch it
    happened in.
    """

    def __init__(self, comm=None, counters=None, warnings=None, recorder=None):
        self.slots = slot_schedule()
        self.comm = comm
        self.counters = counters or tuple
        self.warnings = warnings if warnings is not None else []
        self.recorder = recorder
        self.batches: list[BatchRecord] = []

    def _comm(self) -> dict:
        return self.comm.totals() if self.comm is not None else {}

    def _dist_warnings(self) -> int:
        return sum(str(w.message).startswith("repro.dist:") for w in self.warnings)

    def on_batch_begin(self, engine, epoch, batch_index, phase):
        slot = "gp" if self.slots.phase_for(epoch, batch_index) is Phase.GP else "bp"
        if self.recorder is not None:
            self.recorder.slot = slot
        self._begin = (
            slot,
            self._comm(),
            self.counters(),
            self._dist_warnings(),
        )
        self._start = time.perf_counter()

    def on_batch_end(self, engine, epoch, batch_index, result):
        seconds = time.perf_counter() - self._start
        slot, comm0, counters0, warned = self._begin
        comm1 = self._comm()
        counters = tuple(b - a for a, b in zip(counters0, self.counters()))
        faulted = any(comm1.get(key, 0) != comm0.get(key, 0) for key in _FAULT_KEYS)
        wire = comm1.get("grad_wire_bytes", 0) - comm0.get("grad_wire_bytes", 0)
        loss = float(result.loss)
        failed = faulted or not math.isfinite(loss) or self._dist_warnings() > warned
        self.batches.append(
            BatchRecord(slot, result.phase, seconds, loss, wire, failed, counters)
        )
        if self.recorder is not None:
            self.recorder.slot = None


@dataclass
class FitRun:
    """One measured ``engine.fit`` of a workload."""

    workload: str
    seconds: float
    history: object
    clock: BatchClock
    comm_totals: dict
    error: str = ""
    trace: Optional[Trace] = None

    @property
    def failed(self) -> int:
        """Failed batches, counting every batch a crash never ran."""
        done = sum(1 for b in self.clock.batches if not b.failed)
        return BATCHES_PER_FIT - done


def check_fit(run: FitRun) -> list[str]:
    """Every way ``run`` breaks the benchmark's correctness rules."""
    if run.error:
        return [f"fit raised: {run.error}"]
    problems = []
    batches = run.clock.batches
    history = run.history
    if len(batches) != BATCHES_PER_FIT:
        problems.append(f"{len(batches)} batches ran, expected {BATCHES_PER_FIT}")
    if any(b.failed for b in batches):
        problems.append(f"{sum(b.failed for b in batches)} batches failed")
    series = {
        "train_loss": history.train_loss,
        "val_loss": history.val_loss,
        "val_metric": history.val_metric,
        "bp_batches": history.bp_batches,
        "gp_batches": history.gp_batches,
        "gp_fraction": history.gp_fraction,
    }
    adagp = run.workload != "bp-resnet50"
    if adagp:
        series["predictor_mape"] = history.predictor_mape
    for key, values in series.items():
        if len(values) != EPOCHS:
            problems.append(f"History.{key} has {len(values)} rows, expected {EPOCHS}")
    for key in ("train_loss", "val_loss", "val_metric"):
        if not all(math.isfinite(v) for v in series[key]):
            problems.append(f"History.{key} holds a non-finite value")
    if not all(0.0 <= v <= 100.0 for v in history.val_metric):
        problems.append("validation accuracy outside [0, 100]")
    if adagp:
        expected = phase_counts(slot_schedule(), EPOCHS, BATCHES_PER_EPOCH)
    else:
        expected = {Phase.WARMUP: 0, Phase.BP: BATCHES_PER_FIT, Phase.GP: 0}
    seen = Counter(b.phase for b in batches)
    for phase in Phase:
        if seen[phase] != expected[phase]:
            problems.append(
                f"{seen[phase]} {phase.value} batches, phase_counts says {expected[phase]}"
            )
    if sum(history.bp_batches) != expected[Phase.WARMUP] + expected[Phase.BP]:
        problems.append(f"History.bp_batches sums to {sum(history.bp_batches)}")
    if sum(history.gp_batches) != expected[Phase.GP]:
        problems.append(f"History.gp_batches sums to {sum(history.gp_batches)}")
    if run.comm_totals:
        for key in _FAULT_KEYS:
            if run.comm_totals[key]:
                problems.append(f"dist {key} = {run.comm_totals[key]}, expected 0")
        gp_bytes = sum(b.grad_wire_bytes for b in batches if b.phase is Phase.GP)
        if gp_bytes:
            problems.append(f"GP batches shipped {gp_bytes} gradient bytes")
        if run.comm_totals["gp_batches"] != expected[Phase.GP]:
            problems.append(f"dist saw {run.comm_totals['gp_batches']} GP batches")
    return problems


def check_repeat(runs: list[FitRun]) -> list[str]:
    """Fits of one seed must repeat their accuracy curve bit for bit."""
    curves = [run.history.val_metric for run in runs if not run.error]
    if any(curve != curves[0] for curve in curves[1:]):
        return ["repeated fits of one seed disagree on validation accuracy"]
    return []


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child
    (the data-parallel workers, once joined), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(runs: list[FitRun], setup_s: list[float], rss_mb: float) -> dict:
    """The end-to-end metrics of one untraced benchmark run.

    Step percentiles are taken per fit and the median across fits is
    reported: when the host runs one fit slower than the other, a
    percentile of the pooled steps lands in the gap between them.
    """

    def step_ms(slot: str, q: float) -> float:
        return statistics.median(
            float(np.percentile([b.seconds for b in run.clock.batches if b.slot == slot], q))
            * 1000.0
            for run in runs
        )

    batch_seconds = sum(b.seconds for run in runs for b in run.clock.batches)
    values = {
        "setup_s": (statistics.median(setup_s), "s"),
        "fit_s": (statistics.median(run.seconds for run in runs), "s"),
        "train_samples_per_s": (len(runs) * EPOCHS * NUM_TRAIN / batch_seconds, "samples/s"),
        "bp_step_ms_p50": (step_ms("bp", 50), "ms"),
        "bp_step_ms_p90": (step_ms("bp", 90), "ms"),
        "gp_step_ms_p50": (step_ms("gp", 50), "ms"),
        "gp_step_ms_p90": (step_ms("gp", 90), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer(untraced: FitRun, traced: FitRun) -> dict:
    """The per-layer metrics of one traced fit (plus its untraced twin).

    Times are per training batch of the slot named, or of the slot the
    layer runs in (backward, optimizer step and predictor training on
    ``bp`` slots; predict and apply on ``gp`` slots).  A layer that a
    workload bypasses reads 0.
    """
    totals = span_totals(traced.trace.recorder.spans)
    batches = traced.clock.batches
    count = {slot: sum(1 for b in batches if b.slot == slot) for slot in ("bp", "gp")}

    def spent(name, slot=None, root=TRAIN_BATCH, column=0):
        return sum(
            row[column]
            for (r, n, s), row in totals.items()
            if n == name and r == root and (slot is None or s == slot)
        )

    def per_batch_ms(name, slot=None, root=TRAIN_BATCH, column=0):
        batches = count[slot] if slot else sum(count.values())
        return spent(name, slot, root, column) / batches * 1000.0

    def conv(slot, column):
        return sum(b.counters[column] for b in batches if b.slot == slot) / count[slot]

    history = traced.history
    comm = traced.comm_totals
    wire = comm.get("grad_wire_bytes", 0)
    trace = traced.trace
    pool_acquires = trace.pool_hits + trace.pool_misses
    values = {
        "data.next_ms": (per_batch_ms("data.next", root="data.next"), "ms"),
        "nn.forward_ms.bp": (per_batch_ms("nn.forward", "bp"), "ms"),
        "nn.forward_ms.gp": (per_batch_ms("nn.forward", "gp"), "ms"),
        "nn.backward_ms": (per_batch_ms("nn.backward", "bp"), "ms"),
        "nn.optim_step_ms": (per_batch_ms("nn.optim_step", "bp"), "ms"),
        "nn.conv2d_forward_ms.bp": (conv("bp", 0) * 1000.0, "ms"),
        "nn.conv2d_forward_ms.gp": (conv("gp", 0) * 1000.0, "ms"),
        "nn.conv2d_backward_ms.bp": (conv("bp", 1) * 1000.0, "ms"),
        "nn.conv2d_backward_ms.gp": (conv("gp", 1) * 1000.0, "ms"),
        "nn.conv2d_calls.bp": (conv("bp", 2) + conv("bp", 3), "count"),
        "nn.conv2d_calls.gp": (conv("gp", 2) + conv("gp", 3), "count"),
        "nn.workspace_hit_ratio": (trace.pool_hits / max(pool_acquires, 1), "ratio"),
        "nn.workspace_acquires": (pool_acquires, "count"),
        "nn.fold_cache_hit_ratio": (trace.fold_hits / max(trace.fold_lookups, 1), "ratio"),
        "nn.fold_cache_lookups": (trace.fold_lookups, "count"),
        "engine.train_batch_ms.bp": (per_batch_ms(TRAIN_BATCH, "bp", column=1), "ms"),
        "engine.train_batch_ms.gp": (per_batch_ms(TRAIN_BATCH, "gp", column=1), "ms"),
        "engine.self_ms.bp": (per_batch_ms(TRAIN_BATCH, "bp"), "ms"),
        "engine.self_ms.gp": (per_batch_ms(TRAIN_BATCH, "gp"), "ms"),
        "engine.evaluate_ms": (
            spent("engine.evaluate", root="engine.evaluate", column=1) / EPOCHS * 1000.0,
            "ms",
        ),
        "predictor.train_ms": (per_batch_ms("predictor.train", "bp"), "ms"),
        "predictor.predict_ms": (per_batch_ms("predictor.predict", "gp"), "ms"),
        "predictor.predict_calls": (
            spent("predictor.predict", "gp", column=2) / count["gp"],
            "count",
        ),
        "predictor.apply_ms": (per_batch_ms("predictor.apply", "gp"), "ms"),
        "predictor.mape_final": (
            float(np.mean(list(history.predictor_mape[-1].values())))
            if history.predictor_mape
            else 0.0,
            "%",
        ),
        "schedule.gp_share": (history.gp_share, "ratio"),
        "dist.collect_wait_ms": (per_batch_ms("dist.collect"), "ms"),
        "dist.send_ms": (per_batch_ms("dist.send"), "ms"),
        "dist.encode_ms": (per_batch_ms("dist.encode", "bp"), "ms"),
        "dist.grad_wire_bytes_per_bp_batch": (
            wire / comm["bp_batches"] if comm else 0.0,
            "bytes",
        ),
        "dist.grad_wire_bytes": (wire, "bytes"),
        "dist.grad_dense_bytes": (comm.get("grad_dense_bytes", 0), "bytes"),
        "dist.compression_ratio": (
            comm["grad_dense_bytes"] / wire if wire else 0.0,
            "ratio",
        ),
        "dist.sync_bytes": (comm.get("sync_bytes", 0), "bytes"),
        "dist.gp_grad_wire_bytes": (
            sum(b.grad_wire_bytes for b in batches if b.phase is Phase.GP),
            "bytes",
        ),
        "dist.faults": (comm.get("faults", 0), "count"),
        "dist.retries": (comm.get("retries", 0), "count"),
        "dist.rebuilds": (comm.get("rebuilds", 0), "count"),
        "obs.trace_overhead": (traced.seconds / untraced.seconds - 1.0, "ratio"),
        "obs.fit_s_traced": (traced.seconds, "s"),
        "obs.fit_s_untraced": (untraced.seconds, "s"),
        "obs.reconcile_error": (
            reconcile(totals, sum(b.seconds for b in batches)),
            "ratio",
        ),
        "val_acc_final": (float(untraced.history.val_metric[-1]), "%"),
    }
    return {
        name: {"value": float(value), "unit": unit}
        for name, (value, unit) in values.items()
    }
