"""The ADA-GP predictor model.

A single small network shared by *all* layers of the DNN (paper
contribution 2).  Following §3.6, it is a stack of pooling layers and a
small Conv2d, followed by one fully connected layer sized for the
largest layer of the DNN model; smaller layers mask / truncate the FC
output to their own gradient-row size.

Input  : reorganized activations ``(out_ch, 1, H, W)``
Output : gradient rows ``(out_ch, max_row)`` masked to ``(out_ch, row)``

The paper trains the predictor with Adam (lr 1e-4) on the true
backpropagated gradients during Warm-Up and Phase BP.  Because raw
gradient magnitudes vary by orders of magnitude across layers and over
training, the predictor can optionally learn *normalized* targets
(per-layer running RMS scale, re-applied at prediction time); the paper
does not specify this detail and it defaults to on for robustness
(DESIGN.md §2).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.backend import current_backend
from ..nn.module import Module, PredictableMixin
from . import reorganize


class _TrunkPlan(NamedTuple):
    """Shape-independent part of the predictor's execution plan."""

    gather: np.ndarray  # (k*k, conv_h*conv_w) im2col offsets, padded map
    conv_hw: tuple[int, int]
    pool: F.AdaptivePoolPlan  # conv output -> final pool


class PredictorNetwork(Module):
    """Pool -> Conv -> ReLU -> Pool -> Flatten -> FC (paper Fig 6)."""

    def __init__(
        self,
        max_row: int,
        pool_size: int = 8,
        conv_channels: int = 4,
        final_pool: int = 4,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.max_row = max_row
        self.net = nn.Sequential(
            nn.AdaptiveAvgPool2d(pool_size),
            nn.Conv2d(1, conv_channels, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.AdaptiveAvgPool2d(final_pool),
            nn.Flatten(),
            nn.Linear(conv_channels * final_pool * final_pool, max_row, rng=rng),
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.net(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.net.backward(grad_out)


class GradientPredictor:
    """Predicts per-layer weight gradients from output activations.

    One instance serves every predictable layer of the model.  The
    latency of its forward pass is the ``alpha`` of the paper's timeline
    analysis (§3.7); the accelerator model derives alpha from this same
    architecture via :meth:`spec_alpha_ops`.
    """

    def __init__(
        self,
        max_row: int,
        lr: float = 1e-4,
        normalize_targets: bool = True,
        scale_momentum: float = 0.9,
        clip_sigma: float = 3.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if max_row <= 0:
            raise ValueError(f"max_row must be positive, got {max_row}")
        self.network = PredictorNetwork(max_row, rng=rng)
        self.optimizer = nn.Adam(self.network.parameters(), lr=lr)
        self.mse_loss = nn.MSELoss()
        self.normalize_targets = normalize_targets
        self.scale_momentum = scale_momentum
        # Predicted rows are clipped to +-clip_sigma * (per-layer running
        # RMS): the accelerator's update datapath saturates rather than
        # overflowing, and the clip breaks the "noisy prediction -> larger
        # gradients -> larger scale" feedback loop in long fp32 runs.
        self.clip_sigma = clip_sigma
        self._scales: dict[int, float] = {}
        self._trunk_plan: Optional[_TrunkPlan] = None  # built on first use

    # ------------------------------------------------------------------
    @classmethod
    def for_model(cls, model: Module, **kwargs) -> "GradientPredictor":
        """Size the FC layer for the largest layer of ``model`` (§3.6)."""
        layers = nn.predictable_layers(model)
        if not layers:
            raise ValueError("model has no ADA-GP-predictable layers")
        max_row = max(layer.gradient_size() for layer in layers)
        return cls(max_row=max_row, **kwargs)

    # ------------------------------------------------------------------
    def _scale_for(self, layer: PredictableMixin) -> float:
        return self._scales.get(id(layer), 1.0)

    def _update_scale(self, layer: PredictableMixin, rows: np.ndarray) -> None:
        rms = float(np.sqrt(np.mean(rows.astype(np.float64) ** 2))) or 1e-12
        key = id(layer)
        if key in self._scales:
            self._scales[key] = (
                self.scale_momentum * self._scales[key]
                + (1 - self.scale_momentum) * rms
            )
        else:
            self._scales[key] = rms

    # ------------------------------------------------------------------
    def _check_capacity(self, layer: PredictableMixin) -> int:
        row = layer.gradient_size()
        if row > self.network.max_row:
            raise ValueError(
                f"layer gradient row {row} exceeds predictor capacity "
                f"{self.network.max_row}; size the predictor with for_model()"
            )
        return row

    def _denormalize_rows(
        self, layer: PredictableMixin, rows: np.ndarray
    ) -> np.ndarray:
        if not self.normalize_targets:
            return rows
        scale = self._scale_for(layer)
        bound = self.clip_sigma * scale
        return np.clip(rows * scale, -bound, bound)

    # ------------------------------------------------------------------
    # Planned execution (DESIGN.md §4).  The network is fixed (paper
    # Fig 6) and tiny, so Module/Sequential dispatch would cost more than
    # its arithmetic.  Every entry point runs this one straight-line
    # forward and backward over the network's own parameters, bitwise
    # equal to running ``network.net`` layer by layer.  Pooled samples
    # from different layers stack along the sample axis into one trunk
    # pass, so a single-layer call is a stack of one.
    # ------------------------------------------------------------------
    def _trunk(self) -> _TrunkPlan:
        if self._trunk_plan is None:
            front, conv, _, pool, _, _ = self.network.net.layers
            height, width = front.output_size
            pad, kernel = conv.padding, conv.kernel_size
            out_h = F.conv_output_size(height, kernel, 1, pad)
            out_w = F.conv_output_size(width, kernel, 1, pad)
            ky, kx = np.divmod(np.arange(kernel * kernel), kernel)
            oy, ox = np.divmod(np.arange(out_h * out_w), out_w)
            # Flat offsets of every (tap, output position) pair into the
            # zero-padded (height + 2*pad, width + 2*pad) map.
            gather = (oy + ky[:, None]) * (width + 2 * pad) + ox + kx[:, None]
            self._trunk_plan = _TrunkPlan(
                gather,
                (out_h, out_w),
                F.adaptive_pool_plan((out_h, out_w), pool.output_size),
            )
        return self._trunk_plan

    def _reorganize(
        self, layers: list[PredictableMixin], outputs: list[np.ndarray]
    ) -> tuple[list[np.ndarray], list[tuple[int, int, int]]]:
        """Reorganized inputs plus per-layer ``(start, units, row)``
        slices into the stacked FC output."""
        if len(layers) != len(outputs):
            raise ValueError(
                f"got {len(layers)} layers but {len(outputs)} activations"
            )
        if not layers:
            raise ValueError("batched predictor call received no layers")
        inputs: list[np.ndarray] = []
        slices: list[tuple[int, int, int]] = []
        start = 0
        for layer, output in zip(layers, outputs):
            row = self._check_capacity(layer)
            units, _ = reorganize.gradient_rows(layer)
            inputs.append(reorganize.reorganize_activations(layer, output))
            slices.append((start, units, row))
            start += units
        return inputs, slices

    def _forward(self, inputs: list[np.ndarray], train: bool):
        """Stacked FC output ``(sum(units_i), max_row)`` for reorganized
        inputs, plus the backward cache when ``train``."""
        front, conv, _, _, _, fc = self.network.net.layers
        trunk = self._trunk()
        height, width = front.output_size
        pad = conv.padding
        total = sum(x.shape[0] for x in inputs)
        padded = np.zeros(
            (total, height + 2 * pad, width + 2 * pad),
            dtype=np.result_type(*inputs),
        )
        start = 0
        for x in inputs:
            stop = start + x.shape[0]
            pooled = F.adaptive_pool_plan(x.shape[2:], front.output_size).forward(x)
            padded[start:stop, pad : pad + height, pad : pad + width] = pooled[:, 0]
            start = stop
        # The 3x3 conv as a 1x1 conv over its gathered k*k columns: the
        # same GEMM on the same columns as the conv layer's im2col path.
        cols = np.take(padded.reshape(total, -1), trunk.gather, axis=1)
        weight = conv.weight.data.reshape(conv.out_channels, -1, 1, 1)
        backend = current_backend()
        conv_out, ctx = backend.conv2d_forward(
            cols.reshape(total, -1, *trunk.conv_hw), weight, conv.bias.data, 1, 0
        )
        if train:
            mask = conv_out > 0.0
            hidden = np.where(mask, conv_out, 0.0)
        else:
            ctx.release()
            hidden = np.maximum(conv_out, 0.0)
        trunk_out = trunk.pool.forward(hidden)
        flat = trunk_out.reshape(total, -1)
        full = backend.linear_forward(flat, fc.weight.data, fc.bias.data)
        if not train:
            return full, None
        return full, (ctx, weight, mask, trunk_out.shape, flat)

    def _backward(self, grad_full: np.ndarray, cache) -> None:
        """Accumulate FC and conv parameter gradients.  Nothing flows
        into the parameter-free front pool."""
        ctx, weight, mask, pooled_shape, flat = cache
        _, conv, _, _, _, fc = self.network.net.layers
        grad_flat, grad_w, grad_b = current_backend().linear_backward(
            flat, grad_full, fc.weight.data, with_bias=True
        )
        fc.weight.accumulate_grad(grad_w)
        fc.bias.accumulate_grad(grad_b)
        grad_hidden = self._trunk().pool.backward(grad_flat.reshape(pooled_shape))
        grad_conv = np.where(mask, grad_hidden, 0.0)
        # The conv backward runs on the backend that produced its context
        # (as Conv2d.backward does); its input gradient is discarded.
        _, grad_w, grad_b = ctx.backend.conv2d_backward(
            grad_conv, weight, ctx, with_bias=True
        )
        conv.weight.accumulate_grad(grad_w.reshape(conv.weight.shape))
        conv.bias.accumulate_grad(grad_b)

    # ------------------------------------------------------------------
    # The public entry points share private implementations instead of
    # calling one another, so a wrapper installed on one public method
    # (a tracing span) never nests inside another.
    def _predict(
        self, layers: list[PredictableMixin], outputs: list[np.ndarray]
    ) -> list[tuple[np.ndarray, Optional[np.ndarray]]]:
        inputs, slices = self._reorganize(layers, outputs)
        full, _ = self._forward(inputs, train=False)
        results = []
        for layer, (start, units, row) in zip(layers, slices):
            rows = self._denormalize_rows(layer, full[start : start + units, :row])
            results.append(reorganize.unflatten_gradients(layer, rows))
        return results

    def predict(
        self, layer: PredictableMixin, output: np.ndarray
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Predicted (weight_grad, bias_grad) for ``layer``.

        Prediction is forward-only — the predictor trains against true
        gradients elsewhere (:meth:`train_step`) — so it keeps no
        backward state.
        """
        return self._predict([layer], [output])[0]

    def predict_many(
        self, layers: list[PredictableMixin], outputs: list[np.ndarray]
    ) -> list[tuple[np.ndarray, Optional[np.ndarray]]]:
        """Batched :meth:`predict` over many layers in one trunk pass
        instead of ``len(layers)``; equivalent to per-layer calls up to
        the GEMM's summation order over the stacked rows."""
        return self._predict(layers, outputs)

    # ------------------------------------------------------------------
    def _prediction_metrics(
        self, layer: PredictableMixin, pred_rows: np.ndarray, target_rows: np.ndarray
    ) -> tuple[float, float]:
        """(mse, mape) in raw gradient units (float64 avoids fp32
        overflow on transiently exploding gradients)."""
        scale = self._scale_for(layer) if self.normalize_targets else 1.0
        raw_pred = pred_rows.astype(np.float64) * scale
        target64 = target_rows.astype(np.float64)
        mse = float(np.mean((raw_pred - target64) ** 2))
        mape = mean_absolute_percentage_error(target64, raw_pred)
        return mse, mape

    def _loss_grad_rows(
        self, layer: PredictableMixin, pred_rows: np.ndarray, target_rows: np.ndarray
    ) -> np.ndarray:
        """MSE gradient on (optionally normalized) targets."""
        scale = self._scale_for(layer) if self.normalize_targets else 1.0
        target_scaled = target_rows / scale if self.normalize_targets else target_rows
        _, grad_rows = self.mse_loss(pred_rows, target_scaled.astype(np.float32))
        return grad_rows

    def _train(
        self,
        layers: list[PredictableMixin],
        outputs: list[np.ndarray],
        weight_grads: list[np.ndarray],
        bias_grads: list[Optional[np.ndarray]],
        apply_update: bool,
    ) -> list[tuple[float, float]]:
        inputs, slices = self._reorganize(layers, outputs)
        target_rows_list = []
        for layer, weight_grad, bias_grad in zip(layers, weight_grads, bias_grads):
            target_rows = reorganize.flatten_gradients(layer, weight_grad, bias_grad)
            if self.normalize_targets:
                self._update_scale(layer, target_rows)
            target_rows_list.append(target_rows)
        full, cache = self._forward(inputs, train=True)
        grad_full = np.zeros_like(full)
        metrics: list[tuple[float, float]] = []
        for layer, target_rows, (start, units, row) in zip(
            layers, target_rows_list, slices
        ):
            pred_rows = full[start : start + units, :row]
            metrics.append(self._prediction_metrics(layer, pred_rows, target_rows))
            grad_full[start : start + units, :row] = self._loss_grad_rows(
                layer, pred_rows, target_rows
            )
        self.network.zero_grad()
        self._backward(grad_full, cache)
        if apply_update:
            self.optimizer.step()
        return metrics

    def train_step(
        self,
        layer: PredictableMixin,
        output: np.ndarray,
        weight_grad: np.ndarray,
        bias_grad: Optional[np.ndarray],
        apply_update: bool = True,
    ) -> tuple[float, float]:
        """One predictor update against true gradients.

        Returns ``(mse, mape)`` of the prediction *before* the update,
        in raw gradient units — these feed the paper's Fig 15 curves.
        ``apply_update=False`` accumulates gradients without stepping
        the optimizer (used by the equivalence tests).
        """
        return self._train(
            [layer], [output], [weight_grad], [bias_grad], apply_update
        )[0]

    def train_step_many(
        self,
        layers: list[PredictableMixin],
        outputs: list[np.ndarray],
        weight_grads: list[np.ndarray],
        bias_grads: list[Optional[np.ndarray]],
        apply_update: bool = True,
    ) -> list[tuple[float, float]]:
        """Batched :meth:`train_step`: one forward/backward/step for all
        layers of a batch instead of a per-layer Python loop.

        All layers' pooled activations are stacked into one trunk pass;
        the backward gradient is the per-layer MSE gradients laid into
        their slices, so the accumulated parameter gradient equals the
        *sum* of the per-layer gradients at the current weights (see
        ``tests/core/test_predictor_batched.py``).  The single combined
        Adam step replaces ``len(layers)`` sequential steps — same
        gradient signal, one optimizer trajectory; Fig-15 metrics are
        still reported per layer, *before* the update.
        """
        return self._train(layers, outputs, weight_grads, bias_grads, apply_update)

    # ------------------------------------------------------------------
    def num_parameters(self) -> int:
        """Trainable parameter count of the predictor network."""
        return self.network.num_parameters()


def mean_absolute_percentage_error(
    actual: np.ndarray, predicted: np.ndarray, eps: float = 1e-8
) -> float:
    """MAPE as defined in paper Eq. 1, with an epsilon guard.

    Expressed as a percentage of the mean absolute actual value to avoid
    division blow-ups on near-zero gradients (the paper plots values in
    the 0-2% range).
    """
    denom = float(np.mean(np.abs(actual))) + eps
    return float(np.mean(np.abs(actual - predicted)) / denom * 100.0)
