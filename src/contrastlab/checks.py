"""Verification suites: finite-difference gradient checks over every loss
variant, the maximum-likelihood equivalence of the softmax-aggregated
losses, and the reduction of the single-head constant-temperature case to
the plain ntxent baseline.

Every check calls a batch loss as training does, with the same kind of
``temps`` argument: the scheduled temperature or the temperature net.
Each instance draws its leaves per head and stacks them on the graph
into the (C, B, d') inputs the batch losses take, so the maximum-
likelihood oracle, which loops over the heads, reads the same leaves.
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
from .nets import Mlp, MlpSpec, TempBounds
from .rng import SplitMix64, derive
from .tensor import Tensor, backward, finite_diff_check
from .train import ModelConfig, TrainConfig, reduction_check

GRADCHECK_TOL = 1e-4
EQUIV_TOL = 1e-8


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


def _instance(seed: int, heads: int, d_prime: int = 8, batch: int = 4):
    """Random per-head raw (B, d') two-view leaves plus a temperature net,
    all as probe-able parameters. With B = 4 each anchor has six in-batch
    negatives and each head 64 probed coordinates."""
    stream = SplitMix64(seed)
    views = [(Tensor(_rand(stream, (batch, d_prime))), Tensor(_rand(stream, (batch, d_prime))))
             for _ in range(heads)]
    temp_net = Mlp.init(MlpSpec((d_prime, d_prime)), derive(seed, "phi"))
    return views, temp_net


def _negcos_instance(seed: int, heads: int, d_prime: int):
    """Per-head raw (d',) two-view leaves, a ReLU predictor and a
    temperature net. The predictor's biases are drawn from the instance
    stream: with ``Mlp.init``'s zero biases, an input that turns every
    hidden unit off predicts exactly 0, which has no direction to
    normalize."""
    stream = SplitMix64(derive(seed, "simsiam", heads))
    predictor = Mlp.init(MlpSpec((d_prime, d_prime, d_prime)), derive(seed, "pred", heads))
    temp_net = Mlp.init(MlpSpec((d_prime, d_prime)), derive(seed, "phi", heads))
    raws = [(Tensor(_rand(stream, (d_prime,))), Tensor(_rand(stream, (d_prime,))))
            for _ in range(heads)]
    for bias in predictor.params[1::2]:
        bias.data = _rand(stream, bias.shape)
    return raws, predictor, temp_net


def _unit(views):
    """Per-head unit projections, on the graph."""
    return [(T.l2_normalize(a), T.l2_normalize(b)) for a, b in views]


def _stacks(per_head) -> tuple[Tensor, ...]:
    """Per-head tuples of (B, d') or (d',) tensors, (z_a, z_b) or
    negative-cosine branches, as the (C, B, d') stacks a batch loss takes,
    on the graph; a vector is a batch of one."""
    return tuple(T.concat([T.reshape(p, (1, p.size // p.shape[-1], p.shape[-1])) for p in side])
                 for side in zip(*per_head))


def gradcheck_suite(seed: int = 2024, d_prime: int = 8, n_neg: int = 6) -> list[CheckResult]:
    """Finite-difference check of every loss variant at the configured
    grid: both aggregation modes, adaptive and constant temperatures,
    heads in {1, 3}, kappa in {1, 3}. The ntxent/infonce rows probe
    in-batch instances with ``n_neg`` negatives per anchor (B = n_neg/2 + 1)."""
    bounds = TempBounds(1e-5, 2.0)
    batch = n_neg // 2 + 1
    results: list[CheckResult] = []

    def run(name, loss_fn, params):
        results.append(CheckResult(name, finite_diff_check(loss_fn, params), GRADCHECK_TOL))

    # Single-head baselines at a constant temperature.
    views, _ = _instance(derive(seed, "base"), 1, d_prime, batch)
    flat = [t for pair in views for t in pair]
    for variant in ("ntxent", "infonce"):
        cfg = LossConfig(variant=variant, family="baseline", heads=1, temp_mode="constant", tau0=0.5)
        run(f"baseline/{variant}", lambda cfg=cfg: L.nce_loss(cfg, _stacks(_unit(views)), 0.5)[0].total(),
            flat)

    stream = SplitMix64(derive(seed, "simsiam-base"))
    branch = tuple(Tensor(_rand(stream, (d_prime,))) for _ in range(4))   # live a, b; targets a, b
    cfg = LossConfig(variant="simsiam", family="baseline", heads=1, temp_mode="constant")
    run("baseline/simsiam", lambda: L.multihead_negcos(cfg, _stacks([branch]), 0.5)[0].total(),
        list(branch[:2]))

    stream = SplitMix64(derive(seed, "barlow-base"))
    raws = [Tensor(_rand(stream, (n_neg, d_prime))) for _ in range(2)]
    cfg = LossConfig(variant="barlow", family="baseline", heads=1, lambd=0.5, temp_mode="constant")
    run("baseline/barlow", lambda: L.multihead_cross_corr(
        cfg, tuple(L.batch_standardize(z) for z in _stacks([raws])), 0.5)[0].total(), raws)

    # Multi-head ntxent / infonce over the full grid.
    for variant in ("ntxent", "infonce"):
        for heads in (1, 3):
            views, temp_net = _instance(derive(seed, variant, heads), heads, d_prime, batch)
            flat = [t for pair in views for t in pair]
            for temp_mode in ("constant", "adaptive"):
                for agg, kappa in (("topk", 1), ("topk", 3), ("softmax", 1)):
                    cfg = LossConfig(variant=variant, heads=heads, beta=0.7,
                                     temp_mode=temp_mode, tau0=0.5, neg_agg=agg,
                                     kappa=kappa, bounds=bounds)
                    adaptive = temp_mode == "adaptive"
                    temps = temp_net if adaptive else 0.5
                    params = flat + (temp_net.params if adaptive else [])

                    def loss_fn(cfg=cfg, views=views, temps=temps):
                        return L.nce_loss(cfg, _stacks(_unit(views)), temps)[0].total()

                    label = f"multihead/{variant}/C{heads}/{temp_mode}/{agg}{kappa if agg == 'topk' else ''}"
                    run(label, loss_fn, params)

    # Multi-head negative cosine: probe the raw leaves, the predictor and
    # the temperature net; the raw leaves are also the stop-gradient
    # targets, as training passes (p(z_a), p(z_b), z_a, z_b).
    for heads in (1, 3):
        raws, predictor, temp_net = _negcos_instance(seed, heads, d_prime)
        flat = [t for pair in raws for t in pair]
        for temp_mode in ("constant", "adaptive"):
            cfg = LossConfig(variant="simsiam", heads=heads, beta=0.7,
                             temp_mode=temp_mode, tau0=0.5, bounds=bounds)
            adaptive = temp_mode == "adaptive"
            params = flat + predictor.params + (temp_net.params if adaptive else [])
            temps = temp_net if adaptive else 0.5

            def loss_fn(cfg=cfg, raws=raws, predictor=predictor, temps=temps):
                branches = [(predictor(a), predictor(b), a, b) for a, b in raws]
                return L.multihead_negcos(cfg, _stacks(branches), temps)[0].total()

            run(f"multihead/simsiam/C{heads}/{temp_mode}", loss_fn, params)

    # Multi-head cross-correlation, standardization included in the chain.
    for heads in (1, 3):
        stream = SplitMix64(derive(seed, "barlow", heads))
        temp_bt = Mlp.init(MlpSpec((n_neg, n_neg)), derive(seed, "phi-bt", heads))
        raws = [(Tensor(_rand(stream, (n_neg, d_prime))), Tensor(_rand(stream, (n_neg, d_prime))))
                for _ in range(heads)]
        flat = [t for pair in raws for t in pair]
        for temp_mode in ("constant", "adaptive"):
            cfg = LossConfig(variant="barlow", heads=heads, beta=0.7, lambd=0.5,
                             temp_mode=temp_mode, tau0=0.5, bounds=bounds)
            params = flat + (temp_bt.params if temp_mode == "adaptive" else [])
            temps = temp_bt if temp_mode == "adaptive" else 0.5

            def loss_fn(cfg=cfg, raws=raws, temps=temps):
                pairs = tuple(L.batch_standardize(z) for z in _stacks(raws))
                return L.multihead_cross_corr(cfg, pairs, temps)[0].total()

            run(f"multihead/barlow/C{heads}/{temp_mode}", loss_fn, params)

    return results


def mle_equivalence_suite(n_instances: int = 100, seed: int = 515,
                          d_prime: int = 8, n_neg: int = 6) -> list[CheckResult]:
    """Value and gradient agreement between the softmax-aggregated
    in-batch losses (beta = 1, adaptive temperatures on the live
    projections, as in training) and the naive Gaussian-ratio
    computation, up to the derived (d'/2) log(2 pi) constant per head."""
    bounds = TempBounds(1e-5, 2.0)
    results: list[CheckResult] = []
    for variant in ("ntxent", "infonce"):
        max_val = 0.0
        max_grad = 0.0
        for i in range(n_instances):
            heads = 1 + (i % 2) * 2
            views, temp_net = _instance(derive(seed, variant, i), heads, d_prime, n_neg // 2 + 1)
            cfg = LossConfig(variant=variant, heads=heads, beta=1.0,
                             temp_mode="adaptive", neg_agg="softmax", bounds=bounds)
            leaves = [t for pair in views for t in pair] + temp_net.params
            projections = _unit(views)

            loss = L.nce_loss(cfg, _stacks(projections), temp_net)[0].total()
            grads_loss = backward(loss, leaves)
            oracle = L.gaussian_ratio_loss(variant, projections, temp_net, bounds)
            grads_oracle = backward(oracle, leaves)

            expected = loss.item() + heads * (d_prime / 2.0) * math.log(2.0 * math.pi)
            max_val = max(max_val, abs(oracle.item() - expected) / max(1.0, abs(oracle.item())))
            for gl, go in zip(grads_loss, grads_oracle):
                rel = np.max(np.abs(gl - go) / np.maximum(1.0, np.abs(gl)))
                max_grad = max(max_grad, float(rel))
        results.append(CheckResult(f"mle/{variant}/value", max_val, EQUIV_TOL))
        results.append(CheckResult(f"mle/{variant}/grad", max_grad, EQUIV_TOL))
    return results


def reduction_suite(steps: int = 50, seed: int = 11) -> list[CheckResult]:
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
        steps=steps,
    )
    return [
        CheckResult("reduce/grad", report["max_grad_rel"], EQUIV_TOL),
        CheckResult("reduce/value", report["max_value_err"], EQUIV_TOL),
    ]
