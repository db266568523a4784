"""In-memory spans for the traced run, opened from the benchmark's side.

:class:`Trace` replaces bound methods of a built workload — engine,
model, optimizer, predictor, codec and transport — with wrappers that
open a span around each call, and wraps the training-data iterator.
Nothing in ``src/`` changes.  A span records its name, start, end, the
span open when it started (its parent) and the schedule slot of the
training batch it ran in.  Spans stay in memory until the run ends.

A span's self time is its duration minus the part of it its children
cover.  Self times of every span under an ``engine.train_batch`` span
add up to that span's duration, which :func:`reconcile` checks.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from repro.dist import dp_strategy
from repro.nn.backend import get_backend
from repro.obs import MetricsRegistry, ProfilingBackend

TRAIN_BATCH = "engine.train_batch"
_END = object()


class SpanRecorder:
    """Nested spans on one thread: ``[name, start, end, parent, slot]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.slot = None  # set by the batch clock around each training batch
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.slot])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def wrap(self, owner, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        inner = getattr(owner, attr)

        def timed(*args, **kwargs):
            index = self.open(name)
            try:
                return inner(*args, **kwargs)
            finally:
                self.close(index)

        setattr(owner, attr, timed)

    def iterate(self, name: str, iterable):
        """Yield from ``iterable``, timing each wait for the next item."""
        iterator = iter(iterable)
        while True:
            index = self.open(name)
            try:
                item = next(iterator, _END)
            finally:
                self.close(index)
            if item is _END:
                self.spans.pop()  # the exhausted call waited for no batch
                return
            yield item

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, slot in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent}
                out.write(json.dumps({**row, "slot": slot}) + "\n")


class Trace:
    """What one traced fit records: spans, workspace-pool and fold-cache
    tallies, and per-op kernel time from ``repro.obs.ProfilingBackend``.

    Building it wraps the public calls of ``workload`` the per-layer
    metrics read and moves the engine onto a profiler around the
    ``fused`` singleton, whose workspace pool and fold caches it reads.
    """

    def __init__(self, workload) -> None:
        self.recorder = SpanRecorder()
        self.pool_hits = self.pool_misses = 0
        self.fold_hits = self.fold_lookups = 0
        engine = workload.engine
        model = engine.model
        fused = get_backend("fused")
        registry = MetricsRegistry()
        engine.backend = ProfilingBackend(fused, registry=registry)
        self._op_seconds = registry.counter("repro_backend_op_seconds")
        self._op_calls = registry.counter("repro_backend_op_calls")
        self._pool = fused.pool
        folds = [p.cache for p in fused.fold_pipeline().passes if p.cache is not None]

        # clear_caches resets the pool counters after every batch, so
        # they are read just before each reset.
        clear_caches = model.clear_caches

        def tally_pool():
            self.finish()
            return clear_caches()

        model.clear_caches = tally_pool

        evaluate = engine.evaluate

        def tally_folds(batches):
            hits = sum(c.hits for c in folds)
            lookups = sum(c.hits + c.misses for c in folds)
            try:
                return evaluate(batches)
            finally:
                self.fold_hits += sum(c.hits for c in folds) - hits
                self.fold_lookups += sum(c.hits + c.misses for c in folds) - lookups

        engine.evaluate = tally_folds

        wrap = self.recorder.wrap
        wrap(engine, "train_batch", TRAIN_BATCH)
        wrap(engine, "evaluate", "engine.evaluate")
        wrap(model, "forward", "nn.forward")
        wrap(model, "backward", "nn.backward")
        wrap(engine.optimizer, "step", "nn.optim_step")
        if engine.predictor is not None:
            wrap(engine.predictor, "train_step_many", "predictor.train")
            for attr in ("predict", "predict_many"):
                wrap(engine.predictor, attr, "predictor.predict")
            for attr in ("apply_gradient", "apply_gradients"):
                wrap(engine.gp_optimizer, attr, "predictor.apply")
        if workload.comm is not None:
            strategy = dp_strategy(engine)
            wrap(strategy.codec, "encode", "dist.encode")
            wrap(strategy.transport, "submit", "dist.send")
            wrap(strategy.transport, "collect", "dist.collect")

    def conv_counters(self) -> tuple:
        """Cumulative conv kernel (forward s, backward s, forward calls,
        backward calls) over the training phases."""
        return tuple(
            sum(counter.value(phase=phase, op=op) for phase in ("bp", "gp"))
            for counter in (self._op_seconds, self._op_calls)
            for op in ("conv2d_forward", "conv2d_backward")
        )

    def finish(self) -> None:
        """Fold the pool counters since the last reset into the tallies."""
        self.pool_hits += self._pool.hits
        self.pool_misses += self._pool.misses
        self._pool.reset_stats()


def span_totals(spans: list[list]) -> dict:
    """``(root name, name, slot) -> [self seconds, duration seconds,
    count]`` over every span, where the root is the outermost span
    enclosing it."""
    children: dict[int, list[int]] = defaultdict(list)
    roots: list[int] = []
    for index, (_name, _start, _end, parent, _slot) in enumerate(spans):
        roots.append(index if parent < 0 else roots[parent])
        if parent >= 0:
            children[parent].append(index)
    totals: dict[tuple, list] = defaultdict(lambda: [0.0, 0.0, 0])
    for index, (name, start, end, _parent, slot) in enumerate(spans):
        covered, cursor = 0.0, start
        for child in children[index]:
            lo, hi = max(spans[child][1], cursor), min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        row = totals[(spans[roots[index]][0], name, slot)]
        row[0] += end - start - covered
        row[1] += end - start
        row[2] += 1
    return totals


def reconcile(totals: dict, clock_seconds: float) -> float:
    """Largest relative gap between (a) the self times of everything
    under ``engine.train_batch`` and the ``engine.train_batch`` spans'
    total, and (b) those spans' total and the batch clock's total."""
    batch_total = sum(
        row[1] for (root, name, _), row in totals.items() if name == TRAIN_BATCH
    )
    self_total = sum(row[0] for (root, _, _), row in totals.items() if root == TRAIN_BATCH)
    return max(
        abs(self_total - batch_total) / batch_total,
        abs(clock_seconds - batch_total) / clock_seconds,
    )
