"""The three benchmark workloads: one task, three ways to train it.

Every workload trains ResNet50-mini on the cifar10-like preset with the
configuration of the repo's Table 1 (batch 32, ``MODEL_LR`` 0.1, the
``MINI_SCHEDULE`` phase ladder, 20 epochs over 512 training images) on
the ``fused`` backend.  Data, model init and shuffle use ``seed``,
``seed + 1`` and ``seed + 2``, as Table 1 does.

* ``bp-resnet50`` — plain backprop, the paper's baseline.  Predictor,
  schedule and ``dist`` changes must leave it unchanged.
* ``adagp-resnet50`` — ADA-GP with hooked Phase GP (§3.4): the paper's
  mechanism, carrying predictor, schedule and no-grad forward changes.
* ``ddp-adagp-resnet50`` — the same ADA-GP run over two ranks (the
  main process and one worker process) with the AdaComp codec; the only
  workload through ``dist``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core import HeuristicSchedule, TrainingEngine, adagp_engine, bp_engine
from repro.data import preset_split
from repro.dist import ddp_engine, dp_strategy, shutdown
from repro.experiments.table1_accuracy import MINI_SCHEDULE, MODEL_LR
from repro.models import build_mini
from repro.nn.losses import CrossEntropyLoss, accuracy

MODEL = "ResNet50"
DATASET = "Cifar10"
CLASSES = 10
NUM_TRAIN = 512
NUM_VAL = 256
BATCH = 32
EPOCHS = 20
BACKEND = "fused"
DDP_WORKERS = 2

WORKLOADS = ("bp-resnet50", "adagp-resnet50", "ddp-adagp-resnet50")


def slot_schedule() -> HeuristicSchedule:
    """The ADA-GP phase ladder every workload's batches are labelled by.

    On the ADA-GP workloads a batch's slot is the phase it runs.  On
    ``bp-resnet50`` every batch runs backprop, and its slot names the
    phase ADA-GP would have run at that position, so ``gp`` metrics there
    give the baseline cost of exactly the batches ADA-GP predicts.
    """
    return HeuristicSchedule(**MINI_SCHEDULE)


@dataclass
class Workload:
    """One built workload: engine plus the batch factories ``fit`` takes."""

    name: str
    engine: TrainingEngine
    train_batches: Callable
    val_batches: Callable

    @property
    def comm(self):
        """The data-parallel ``CommStats``, or ``None`` on serial runs."""
        return dp_strategy(self.engine).comm if self.name.startswith("ddp-") else None

    def fit(self, train_batches: Optional[Callable] = None):
        return self.engine.fit(
            train_batches or self.train_batches, self.val_batches, epochs=EPOCHS
        )

    def close(self) -> None:
        if self.name.startswith("ddp-"):
            shutdown(self.engine)


def build(name: str, seed: int) -> Workload:
    """Generate the inputs from ``seed`` and build the workload's engine."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    split = preset_split(DATASET, num_train=NUM_TRAIN, num_val=NUM_VAL, seed=seed)
    model = build_mini(MODEL, CLASSES, rng=np.random.default_rng(seed + 1))
    loss = CrossEntropyLoss()
    lr = MODEL_LR[MODEL]
    if name == "bp-resnet50":
        engine = bp_engine(model, loss, metric_fn=accuracy, lr=lr, backend=BACKEND)
    elif name == "adagp-resnet50":
        engine = adagp_engine(
            model, loss, metric_fn=accuracy, lr=lr, schedule=slot_schedule(), backend=BACKEND
        )
    else:
        engine = ddp_engine(
            model,
            loss,
            workers=DDP_WORKERS,
            transport="process",
            codec="adacomp",
            inner="adagp",
            metric_fn=accuracy,
            lr=lr,
            schedule=slot_schedule(),
            backend=BACKEND,
        )
    return Workload(
        name=name,
        engine=engine,
        train_batches=lambda: split.train.batches(
            BATCH, rng=np.random.default_rng(seed + 2)
        ),
        val_batches=lambda: split.val.batches(2 * BATCH, shuffle=False),
    )
