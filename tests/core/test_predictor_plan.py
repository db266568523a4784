"""The planned predictor against its layer-by-layer reference.

``GradientPredictor`` runs Pool -> Conv3x3 -> ReLU -> Pool -> FC as
straight-line code over ``PredictorNetwork``'s parameters.  These tests
pin it to ``LayerByLayerPredictor`` (``predictor_oracle.py``), which runs
``PredictorNetwork.net`` one module at a time:

* on ``numpy`` and ``fused`` every entry point matches bitwise —
  predictions, per-layer (mse, mape), parameter gradients, Adam moments
  and parameters after a step, and the per-layer target scales;
* on ``native`` predictions match bitwise, while training may differ
  within the backend matrix's atol: the C 3x3 backward and the BLAS 1x1
  contraction the plan uses sum in different orders (DESIGN.md §4).

The reorganized input sizes cover every adaptive-pooling branch of the
front pool: 2-wide tiling (16 -> 8), wider tiling (24, 32 -> 8), the
identity (8 -> 8), overlapping windows (4, 2, 1 -> 8), non-square maps,
and Linear layers on 2-D and 3-D (sequence) activations.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import GradientPredictor
from repro.nn import functional as F
from repro.nn.backend import native_available, use_backend
from tests.core.predictor_oracle import LayerByLayerPredictor

BATCH = 3
# (H, W) of each conv layer's output: the predictor's reorganized input.
CONV_HW = [(16, 16), (24, 24), (32, 32), (8, 8), (4, 4), (2, 2), (1, 1), (12, 6), (5, 17)]
SEQ_LEN = 5
NATIVE_ATOL = 1e-5

BACKENDS = [
    "numpy",
    "fused",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_available(), reason="native kernels unavailable"
        ),
    ),
]


def _entries(seed=0):
    """(layer, output, weight_grad, bias_grad) across every pooling branch."""
    rng = np.random.default_rng(seed)
    entries = []
    for index, (height, width) in enumerate(CONV_HW):
        layer = nn.Conv2d(3, 4 + index, 3, padding=1, rng=rng)
        output = rng.standard_normal((BATCH, 4 + index, height, width)) * 3
        entries.append((layer, output.astype(np.float32)))
    linear = nn.Linear(7, 6, rng=rng)
    entries.append((linear, rng.standard_normal((BATCH, 6)).astype(np.float32)))
    seq = nn.Linear(5, 4, rng=rng)
    entries.append(
        (seq, rng.standard_normal((BATCH, SEQ_LEN, 4)).astype(np.float32))
    )
    return [
        (
            layer,
            output,
            (rng.standard_normal(layer.weight.shape) * 1e-2).astype(np.float32),
            (rng.standard_normal(layer.bias.shape) * 1e-2).astype(np.float32),
        )
        for layer, output in entries
    ]


def _pair(entries, **kwargs):
    """A planned predictor and its oracle, identically initialized."""
    max_row = max(layer.gradient_size() for layer, *_ in entries)
    return tuple(
        cls(max_row, rng=np.random.default_rng(7), **kwargs)
        for cls in (GradientPredictor, LayerByLayerPredictor)
    )


def _columns(entries):
    return tuple(list(column) for column in zip(*entries))


def _assert_same(actual, expected, exact):
    if exact:
        np.testing.assert_array_equal(actual, expected)
    else:
        np.testing.assert_allclose(actual, expected, atol=NATIVE_ATOL, rtol=1e-5)


def _assert_same_state(plan, oracle, exact):
    """Parameters, gradients, Adam moments and target scales agree."""
    for p_plan, p_oracle in zip(
        plan.network.parameters(), oracle.network.parameters()
    ):
        _assert_same(p_plan.data, p_oracle.data, exact)
        _assert_same(p_plan.grad, p_oracle.grad, exact)
        for moments in ("_m", "_v"):
            _assert_same(
                getattr(plan.optimizer, moments)[id(p_plan)],
                getattr(oracle.optimizer, moments)[id(p_oracle)],
                exact,
            )
        assert plan.optimizer._t[id(p_plan)] == oracle.optimizer._t[id(p_oracle)]
    assert plan._scales.keys() == oracle._scales.keys()
    for key, scale in oracle._scales.items():
        if exact:
            assert plan._scales[key] == scale
        else:
            assert plan._scales[key] == pytest.approx(scale, rel=1e-5)


def _set_scales(entries, *predictors):
    """Non-trivial per-layer target scales, so denormalize/clip runs."""
    for index, (layer, *_) in enumerate(entries):
        for predictor in predictors:
            predictor._scales[id(layer)] = 1e-3 * (index + 1)


@pytest.mark.parametrize("backend", BACKENDS)
class TestPredictBitwise:
    @pytest.mark.parametrize("normalize", [True, False])
    def test_predict_per_layer(self, backend, normalize):
        entries = _entries()
        plan, oracle = _pair(entries, normalize_targets=normalize)
        _set_scales(entries, plan, oracle)
        with use_backend(backend):
            for layer, output, *_ in entries:
                w_plan, b_plan = plan.predict(layer, output)
                w_oracle, b_oracle = oracle.predict(layer, output)
                np.testing.assert_array_equal(w_plan, w_oracle)
                np.testing.assert_array_equal(b_plan, b_oracle)

    def test_predict_many(self, backend):
        entries = _entries()
        plan, oracle = _pair(entries)
        _set_scales(entries, plan, oracle)
        layers, outputs, *_ = _columns(entries)
        with use_backend(backend):
            planned = plan.predict_many(layers, outputs)
            reference = oracle.predict_many(layers, outputs)
        for (w_plan, b_plan), (w_oracle, b_oracle) in zip(planned, reference):
            np.testing.assert_array_equal(w_plan, w_oracle)
            np.testing.assert_array_equal(b_plan, b_oracle)

    def test_predict_is_predict_many_of_one(self, backend):
        entries = _entries()
        plan, _ = _pair(entries)
        with use_backend(backend):
            for layer, output, *_ in entries:
                (w_many, b_many), = plan.predict_many([layer], [output])
                w_one, b_one = plan.predict(layer, output)
                np.testing.assert_array_equal(w_one, w_many)
                np.testing.assert_array_equal(b_one, b_many)


@pytest.mark.parametrize("backend", BACKENDS)
class TestTrainBitwise:
    ROUNDS = 3

    @pytest.mark.parametrize("normalize", [True, False])
    def test_train_step_per_layer(self, backend, normalize):
        entries = _entries()
        plan, oracle = _pair(entries, normalize_targets=normalize)
        exact = backend != "native"
        with use_backend(backend):
            for _ in range(self.ROUNDS):
                for layer, output, w_grad, b_grad in entries:
                    m_plan = plan.train_step(layer, output, w_grad, b_grad)
                    m_oracle = oracle.train_step(layer, output, w_grad, b_grad)
                    _assert_same(m_plan, m_oracle, exact)
                    _assert_same_state(plan, oracle, exact)

    @pytest.mark.parametrize("normalize", [True, False])
    def test_train_step_many(self, backend, normalize):
        entries = _entries()
        plan, oracle = _pair(entries, normalize_targets=normalize)
        exact = backend != "native"
        columns = _columns(entries)
        with use_backend(backend):
            for _ in range(self.ROUNDS):
                m_plan = plan.train_step_many(*columns)
                m_oracle = oracle.train_step_many(*columns)
                _assert_same(m_plan, m_oracle, exact)
                _assert_same_state(plan, oracle, exact)

    def test_first_step_metrics_bitwise(self, backend):
        """The forward is bitwise on every backend, so metrics reported
        before the first update are too."""
        entries = _entries()
        plan, oracle = _pair(entries)
        columns = _columns(entries)
        with use_backend(backend):
            assert plan.train_step_many(*columns) == oracle.train_step_many(
                *columns
            )

    def test_accumulates_without_update(self, backend):
        entries = _entries()
        plan, oracle = _pair(entries)
        exact = backend != "native"
        columns = _columns(entries)
        with use_backend(backend):
            plan.train_step_many(*columns, apply_update=False)
            oracle.train_step_many(*columns, apply_update=False)
        for p_plan, p_oracle in zip(
            plan.network.parameters(), oracle.network.parameters()
        ):
            np.testing.assert_array_equal(p_plan.data, p_oracle.data)
            _assert_same(p_plan.grad, p_oracle.grad, exact)
        assert plan.optimizer._m == {}


class TestPlan:
    def test_gather_index_is_im2col(self):
        """Gathering from the zero-padded map reproduces F.im2col."""
        plan, _ = _pair(_entries())
        trunk = plan._trunk()
        pooled = np.arange(1, 65, dtype=np.float32).reshape(1, 1, 8, 8)
        padded = np.pad(pooled[0, 0], 1)
        cols, out_h, out_w = F.im2col(pooled, 3, 1, 1)
        assert trunk.conv_hw == (out_h, out_w)
        np.testing.assert_array_equal(padded.reshape(-1)[trunk.gather], cols[0])

    def test_trunk_plan_built_once(self):
        entries = _entries()
        plan, _ = _pair(entries)
        layers, outputs, *_ = _columns(entries)
        plan.predict_many(layers, outputs)
        trunk = plan._trunk_plan
        plan.predict_many(layers, outputs)
        assert plan._trunk_plan is trunk

    def test_state_dict_keys_unchanged(self):
        entries = _entries()
        plan, oracle = _pair(entries)
        assert list(plan.network.state_dict()) == [
            "net.layers.1.weight",
            "net.layers.1.bias",
            "net.layers.5.weight",
            "net.layers.5.bias",
        ]
        assert plan.num_parameters() == oracle.num_parameters()

    def test_predict_leaves_network_caches_untouched(self):
        entries = _entries()
        plan, _ = _pair(entries)
        layer, output, *_ = entries[0]
        plan.predict(layer, output)
        conv = plan.network.net[1]
        assert conv._cache_ctx is None
