"""Layer-by-layer reference for :class:`GradientPredictor`.

``LayerByLayerPredictor`` runs the four predictor entry points through
``PredictorNetwork.net`` one module at a time — pooling, conv, ReLU,
pooling, flatten and FC each dispatched as a layer, with their own
forward caches and backward — the way the predictor executed before it
got its straight-line plan.  The plan path must match it bitwise
(``tests/core/test_predictor_plan.py``), and engines built with it must
train identically (``tests/core/test_predictor_engine_bitwise.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import nn
from repro.core import GradientPredictor, reorganize


class LayerByLayerPredictor(GradientPredictor):
    """The predictor with every entry point run layer by layer."""

    def _layer_forward(self, layers, outputs):
        """Front pool per layer, stack, then the rest of ``net``."""
        if len(layers) != len(outputs):
            raise ValueError(
                f"got {len(layers)} layers but {len(outputs)} activations"
            )
        if not layers:
            raise ValueError("batched predictor call received no layers")
        net = self.network.net
        pooled, slices, start = [], [], 0
        for layer, output in zip(layers, outputs):
            row = self._check_capacity(layer)
            units, _ = reorganize.gradient_rows(layer)
            reorganized = reorganize.reorganize_activations(layer, output)
            pooled.append(net.layers[0].forward(reorganized))
            slices.append((start, units, row))
            start += units
        x = np.concatenate(pooled, axis=0)
        for layer in net.layers[1:]:
            x = layer(x)
        return x, slices

    def predict(self, layer, output):
        row = self._check_capacity(layer)
        reorganized = reorganize.reorganize_activations(layer, output)
        with nn.no_grad():
            full = self.network(reorganized)
        rows = self._denormalize_rows(layer, full[:, :row])
        return reorganize.unflatten_gradients(layer, rows)

    def predict_many(self, layers, outputs):
        with nn.no_grad():
            full, slices = self._layer_forward(layers, outputs)
        results = []
        for layer, (start, units, row) in zip(layers, slices):
            rows = self._denormalize_rows(layer, full[start : start + units, :row])
            results.append(reorganize.unflatten_gradients(layer, rows))
        return results

    def train_step(
        self,
        layer,
        output,
        weight_grad,
        bias_grad: Optional[np.ndarray],
        apply_update: bool = True,
    ):
        row = self._check_capacity(layer)
        target_rows = reorganize.flatten_gradients(layer, weight_grad, bias_grad)
        if self.normalize_targets:
            self._update_scale(layer, target_rows)
        reorganized = reorganize.reorganize_activations(layer, output)
        full = self.network(reorganized)
        pred_rows = full[:, :row]
        mse, mape = self._prediction_metrics(layer, pred_rows, target_rows)
        grad_full = np.zeros_like(full)
        grad_full[:, :row] = self._loss_grad_rows(layer, pred_rows, target_rows)
        self.network.zero_grad()
        self.network.backward(grad_full)
        if apply_update:
            self.optimizer.step()
        return mse, mape

    def train_step_many(
        self, layers, outputs, weight_grads, bias_grads, apply_update: bool = True
    ):
        target_rows_list = []
        for layer, weight_grad, bias_grad in zip(layers, weight_grads, bias_grads):
            target_rows = reorganize.flatten_gradients(layer, weight_grad, bias_grad)
            if self.normalize_targets:
                self._update_scale(layer, target_rows)
            target_rows_list.append(target_rows)
        full, slices = self._layer_forward(layers, outputs)
        grad_full = np.zeros_like(full)
        metrics = []
        for layer, target_rows, (start, units, row) in zip(
            layers, target_rows_list, slices
        ):
            pred_rows = full[start : start + units, :row]
            metrics.append(self._prediction_metrics(layer, pred_rows, target_rows))
            grad_full[start : start + units, :row] = self._loss_grad_rows(
                layer, pred_rows, target_rows
            )
        self.network.zero_grad()
        grad = grad_full
        for layer in reversed(self.network.net.layers[1:]):
            grad = layer.backward(grad)
        if apply_update:
            self.optimizer.step()
        return metrics
