"""Verification suites: finite-difference gradient checks over every loss
variant, the maximum-likelihood equivalence of the softmax-aggregated
losses, and the reduction of the single-head constant-temperature case to
the plain ntxent baseline.

Every check calls ``losses.head_loss`` as training does: on raw
(C, B, d') head outputs, so the variant's input geometry (unit rows,
predictor branches over unit rows, or batch-standardized rows) is part of
what is checked, and with the same kind of ``temps`` argument, the
scheduled temperature or the temperature net. Each instance draws its
leaves per head and stacks them into two (C, B, d') leaves (a negative-
cosine instance has one row per head); the gradcheck cases and the
maximum-likelihood suite, whose oracle takes the same unit stacks as
``losses.nce_loss``, probe those stacked leaves.
The negative-cosine targets and the inputs of every adaptive temperature
are stop-gradient values, and ``finite_diff_check`` holds each at the
base point, which is exactly the function whose gradient the backward
pass computes (the temperature net's own parameters are still probed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import losses as L
from . import tensor as T
from .augment import AugPipeline, SyntheticSpec, generate_dataset
from .losses import LossConfig
from .nets import Mlp, MlpSpec
from .rng import SplitMix64, derive
from .tensor import Tensor, backward, finite_diff_check
from .train import ModelConfig, TrainConfig, reduction_check

GRADCHECK_TOL = 1e-4
EQUIV_TOL = 1e-8
D_PRIME = 8
N_NEG = 6                   # in-batch negatives per anchor
MLE_INSTANCES = 100


@dataclass
class CheckResult:
    name: str
    error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.error < self.tol


def _rand(stream: SplitMix64, shape) -> np.ndarray:
    n = int(np.prod(shape))
    return ((2.0 * stream.floats(n) - 1.0) * 2.0).reshape(shape)


def _pairs(stream: SplitMix64, heads: int, shape) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-head raw (a, b) two-view draws, head by head, a before b."""
    return [(_rand(stream, shape), _rand(stream, shape)) for _ in range(heads)]


def _stacked(pairs) -> list[Tensor]:
    """Per-head (a, b) draws as two (C, ...) leaves."""
    return [Tensor(np.stack(side)) for side in zip(*pairs)]


def _instance(seed: int, heads: int):
    """Random per-head raw (B, d') two-view draws plus a temperature net.
    With B = 4 each anchor has six in-batch negatives and each head 64
    probed coordinates."""
    temp_net = Mlp.init(MlpSpec((D_PRIME, D_PRIME)), derive(seed, "phi"))
    return _pairs(SplitMix64(seed), heads, (N_NEG // 2 + 1, D_PRIME)), temp_net


def _negcos_instance(seed: int, heads: int):
    """Two raw (C, 1, d') two-view leaves, drawn head by head, a ReLU
    predictor and a temperature net. The predictor's biases are drawn from
    the instance stream: with ``Mlp.init``'s zero biases, an input that
    turns every hidden unit off predicts exactly 0, which has no direction
    to normalize."""
    stream = SplitMix64(derive(seed, "simsiam", heads))
    predictor = Mlp.init(MlpSpec((D_PRIME, D_PRIME, D_PRIME)), derive(seed, "pred", heads))
    temp_net = Mlp.init(MlpSpec((D_PRIME, D_PRIME)), derive(seed, "phi", heads))
    leaves = _stacked(_pairs(stream, heads, (1, D_PRIME)))
    for bias in predictor.params[1::2]:
        bias.data = _rand(stream, bias.shape)
    return leaves, predictor, temp_net


def gradcheck_suite(seed: int = 2024) -> list[CheckResult]:
    """Finite-difference check of every loss variant at the configured
    grid: both aggregation modes, adaptive and constant temperatures,
    heads in {1, 3}, kappa in {1, 3}. The ntxent/infonce rows probe
    in-batch instances with ``N_NEG`` negatives per anchor."""
    results: list[CheckResult] = []

    def run(name, cfg, leaves, temp_net, predictor, probed):
        """Probe the raw ``leaves`` and ``probed`` through ``head_loss``; an
        adaptive ``cfg`` reads and probes ``temp_net``, the others tau = 0.5."""
        adaptive = cfg.temp_mode == "adaptive"
        temps = temp_net if adaptive else 0.5
        params = leaves + probed + (temp_net.params if adaptive else [])
        error = finite_diff_check(lambda: L.head_loss(cfg, *leaves, temps, predictor)[0].total(), params)
        results.append(CheckResult(name, error, GRADCHECK_TOL))

    # Single-head baselines at a constant temperature.
    leaves = _stacked(_instance(derive(seed, "base"), 1)[0])
    for variant in ("ntxent", "infonce"):
        cfg = LossConfig(variant=variant, family="baseline", heads=1, temp_mode="constant", tau0=0.5)
        run(f"baseline/{variant}", cfg, leaves, None, None, [])

    leaves, predictor, _ = _negcos_instance(derive(seed, "simsiam-base"), 1)
    cfg = LossConfig(variant="simsiam", family="baseline", heads=1, temp_mode="constant")
    run("baseline/simsiam", cfg, leaves, None, predictor, [])

    leaves = _stacked(_pairs(SplitMix64(derive(seed, "barlow-base")), 1, (N_NEG, D_PRIME)))
    cfg = LossConfig(variant="barlow", family="baseline", heads=1, lambd=0.5, temp_mode="constant")
    run("baseline/barlow", cfg, leaves, None, None, [])

    # Multi-head ntxent / infonce over the full grid.
    for variant in ("ntxent", "infonce"):
        for heads in (1, 3):
            draws, temp_net = _instance(derive(seed, variant, heads), heads)
            leaves = _stacked(draws)
            for temp_mode in ("constant", "adaptive"):
                for agg, kappa in (("topk", 1), ("topk", 3), ("softmax", 1)):
                    cfg = LossConfig(variant=variant, heads=heads, beta=0.7,
                                     temp_mode=temp_mode, tau0=0.5, neg_agg=agg, kappa=kappa)
                    label = f"multihead/{variant}/C{heads}/{temp_mode}/{agg}{kappa if agg == 'topk' else ''}"
                    run(label, cfg, leaves, temp_net, None, [])

    # Multi-head negative cosine: probe the raw leaves, the predictor and
    # the temperature net; the unit leaves are also the stop-gradient
    # targets, as in training.
    for heads in (1, 3):
        leaves, predictor, temp_net = _negcos_instance(seed, heads)
        for temp_mode in ("constant", "adaptive"):
            cfg = LossConfig(variant="simsiam", heads=heads, beta=0.7, temp_mode=temp_mode, tau0=0.5)
            run(f"multihead/simsiam/C{heads}/{temp_mode}", cfg, leaves, temp_net, predictor,
                predictor.params)

    # Multi-head cross-correlation, standardization included in the chain.
    for heads in (1, 3):
        temp_bt = Mlp.init(MlpSpec((N_NEG, N_NEG)), derive(seed, "phi-bt", heads))
        leaves = _stacked(_pairs(SplitMix64(derive(seed, "barlow", heads)), heads, (N_NEG, D_PRIME)))
        for temp_mode in ("constant", "adaptive"):
            cfg = LossConfig(variant="barlow", heads=heads, beta=0.7, lambd=0.5,
                             temp_mode=temp_mode, tau0=0.5)
            run(f"multihead/barlow/C{heads}/{temp_mode}", cfg, leaves, temp_bt, None, [])

    return results


def mle_equivalence_suite(seed: int = 515) -> list[CheckResult]:
    """Value and gradient agreement between the softmax-aggregated
    in-batch losses (beta = 1, adaptive temperatures on the live
    projections, as in training) and the naive Gaussian-ratio
    computation, up to the derived (d'/2) log(2 pi) constant per head,
    over ``MLE_INSTANCES`` instances per variant."""
    results: list[CheckResult] = []
    for variant in ("ntxent", "infonce"):
        max_val = 0.0
        max_grad = 0.0
        for i in range(MLE_INSTANCES):
            heads = 1 + (i % 2) * 2
            draws, temp_net = _instance(derive(seed, variant, i), heads)
            views = _stacked(draws)
            cfg = LossConfig(variant=variant, heads=heads, beta=1.0,
                             temp_mode="adaptive", neg_agg="softmax")
            leaves = views + temp_net.params

            loss = L.head_loss(cfg, *views, temp_net)[0].total()
            grads_loss = backward(loss, leaves)
            oracle = L.gaussian_ratio_loss(variant, [T.l2_normalize(v) for v in views],
                                           temp_net, cfg.bounds)
            grads_oracle = backward(oracle, leaves)

            expected = loss.item() + heads * (D_PRIME / 2.0) * math.log(2.0 * math.pi)
            max_val = max(max_val, abs(oracle.item() - expected) / max(1.0, abs(oracle.item())))
            for gl, go in zip(grads_loss, grads_oracle):
                rel = np.max(np.abs(gl - go) / np.maximum(1.0, np.abs(gl)))
                max_grad = max(max_grad, float(rel))
        results.append(CheckResult(f"mle/{variant}/value", max_val, EQUIV_TOL))
        results.append(CheckResult(f"mle/{variant}/grad", max_grad, EQUIV_TOL))
    return results


def reduction_suite(seed: int = 11) -> list[CheckResult]:
    """Single-head constant-temperature softmax run against the baseline
    implementation, comparing per-step gradients and constant-corrected
    loss values."""
    dataset = generate_dataset(SyntheticSpec(classes=4, per_class=40, size=8,
                                             channels=1, seed=derive(seed, "data")))
    report = reduction_check(
        dataset,
        ModelConfig(d=16, d_prime=8),
        TrainConfig(epochs=1, batch_size=16, lr=0.05, run_seed=seed),
        AugPipeline.prefix(2),
    )
    return [
        CheckResult("reduce/grad", report["max_grad_rel"], EQUIV_TOL),
        CheckResult("reduce/value", report["max_value_err"], EQUIV_TOL),
    ]
