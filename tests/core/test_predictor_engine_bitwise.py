"""Engines train identically with the planned or the layer-by-layer predictor.

ResNet50-mini is built from residual blocks, the branching topology the
chain-only GP equivalence tests never touch.  Each engine below is fitted
twice on the same data and seed — once as shipped, once with
``LayerByLayerPredictor`` patched into the engine factories — and must
produce the same ``History`` and the same final ``state_dict``, bit for
bit.  The data-parallel case builds every rank's predictor through the
patched factory as well.
"""

import pickle

import numpy as np
import pytest

from repro.core import HeuristicSchedule, adagp_engine, dni_engine
from repro.core.engine import factories
from repro.data import synthetic_images
from repro.dist import ddp_engine, shutdown
from repro.models import build_mini
from repro.nn.losses import CrossEntropyLoss, accuracy
from tests.core.predictor_oracle import LayerByLayerPredictor

EPOCHS = 3
BACKEND = "fused"


def _split():
    return synthetic_images(10, 48, 16, image_size=16, seed=4)


def _schedule():
    return HeuristicSchedule(warmup_epochs=1, ladder=((1, (2, 1)),))


def _adagp(**kwargs):
    return adagp_engine(
        build_mini("ResNet50", 10, rng=np.random.default_rng(1)),
        CrossEntropyLoss(),
        lr=0.05,
        metric_fn=accuracy,
        schedule=_schedule(),
        backend=BACKEND,
        **kwargs,
    )


def _dni():
    return dni_engine(
        build_mini("ResNet50", 10, rng=np.random.default_rng(1)),
        CrossEntropyLoss(),
        lr=0.05,
        metric_fn=accuracy,
        backend=BACKEND,
    )


def _ddp():
    return ddp_engine(
        build_mini("ResNet50", 10, rng=np.random.default_rng(1)),
        CrossEntropyLoss(),
        workers=2,
        transport="local",
        inner="adagp",
        lr=0.05,
        metric_fn=accuracy,
        schedule=_schedule(),
        backend=BACKEND,
    )


ENGINES = {
    "adagp-hooked": _adagp,
    "adagp-batched-gp": lambda: _adagp(batched_gp=True),
    "dni": _dni,
    "ddp-local-adagp": _ddp,
}


def _fit(name):
    split = _split()
    engine = ENGINES[name]()
    try:
        history = engine.fit(
            lambda: split.train.batches(16, rng=np.random.default_rng(0)),
            lambda: split.val.batches(16, shuffle=False),
            EPOCHS,
        )
        return engine, history, engine.state_dict()
    finally:
        if name.startswith("ddp"):
            shutdown(engine)


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_fit_matches_layer_by_layer_predictor(name, monkeypatch):
    engine, history, state = _fit(name)
    assert type(engine.predictor) is factories.GradientPredictor
    if name != "dni":
        assert sum(history.gp_batches) > 0
    with monkeypatch.context() as patch:
        patch.setattr(factories, "GradientPredictor", LayerByLayerPredictor)
        oracle, oracle_history, oracle_state = _fit(name)
    assert type(oracle.predictor) is LayerByLayerPredictor
    assert history == oracle_history
    assert pickle.dumps(state) == pickle.dumps(oracle_state)
