"""The stacked heads against the per-head reference (``reference_heads``):
one forward pass and one loss call for all C heads give the reference's
loss terms, temperatures and parameter gradients bit for bit."""
import numpy as np
import pytest

from contrastlab.losses import LossConfig
from contrastlab.metrics import pair_similarities
from contrastlab.nets import ModelBundle, TempBounds
from contrastlab.rng import SplitMix64, derive
from contrastlab.tensor import Tensor, backward
from contrastlab.train import _batch_loss, temperature_for_step
from reference_heads import (reference_batch_loss, reference_heads, reference_pair_similarities,
                             stacked_grads)

BATCH, D_IN, D, D_PRIME = 4, 12, 8, 4

NCE_GRID = [(variant, heads, mode, agg, kappa)
            for variant in ("ntxent", "infonce") for heads in (1, 3)
            for mode in ("constant", "adaptive")
            for agg, kappa in (("topk", 1), ("topk", 3), ("softmax", 1))]
OTHER_GRID = [(variant, heads, mode) for variant in ("simsiam", "barlow") for heads in (1, 3)
              for mode in ("constant", "adaptive")]
BASELINE_GRID = [(variant, mode) for variant in ("ntxent", "infonce", "simsiam", "barlow")
                 for mode in ("constant", "cosine")]


def _draw(stream: SplitMix64, shape) -> np.ndarray:
    return (2.0 * stream.floats(int(np.prod(shape))) - 1.0).reshape(shape)


def _bundle(cfg: LossConfig, seed: int) -> ModelBundle:
    """A small bundle whose biases are drawn too, so that the stacked head
    biases take part in every comparison."""
    temp_width = None
    if cfg.temp_mode == "adaptive":
        temp_width = BATCH if cfg.variant == "barlow" else D_PRIME
    bundle = ModelBundle.build(D_IN, D, D_PRIME, cfg.heads, seed=seed,
                               with_predictor=cfg.variant == "simsiam", temp_width=temp_width)
    stream = SplitMix64(derive(seed, "biases"))
    for p in bundle.parameters():
        if p.data.ndim == 1 or p.shape[-2] == 1:
            p.data = 0.1 * _draw(stream, p.shape)
    return bundle


def _run(loss_fn, params):
    """Loss terms, temperatures, and each parameter's gradient by ``id``."""
    terms, temps = loss_fn()
    return terms, temps, dict(zip(map(id, params), backward(terms.total(), params)))


def _compare(cfg: LossConfig, seed: int, approximate=()):
    """Both paths on one batch. ``approximate`` names the networks that
    several stacked calls share (so the stacked gradient adds each call's
    head sum, where the reference adds head by head): their gradients are
    compared to 1e-12 instead of exactly."""
    bundle = _bundle(cfg, seed)
    heads = reference_heads(bundle.heads)
    stream = SplitMix64(derive(seed, "inputs"))
    xa, xb = (Tensor(_draw(stream, (BATCH, D_IN))) for _ in range(2))
    temps = (bundle.temp_net if cfg.temp_mode == "adaptive"
             else temperature_for_step(cfg, epoch=7))
    shared = {"encoder": bundle.encoder, "temp_net": bundle.temp_net,
              "predictor": bundle.predictor}
    shared = {name: net for name, net in shared.items() if net is not None}
    shared_params = [p for net in shared.values() for p in net.params]

    got, got_temps, got_g = _run(lambda: _batch_loss(bundle, cfg, xa, xb, temps),
                                 bundle.parameters())
    got_grads = {name: [got_g[id(p)] for p in net.params] for name, net in shared.items()}
    got_grads["heads"] = [got_g[id(p)] for p in bundle.heads.params]
    head_params = [p for h in heads for p in h.params]
    want, want_temps, want_g = _run(lambda: reference_batch_loss(bundle, heads, cfg, xa, xb, temps),
                                    shared_params + head_params)
    want_grads = {name: [want_g[id(p)] for p in net.params] for name, net in shared.items()}
    want_grads["heads"] = stacked_grads(heads, [want_g[id(p)] for p in head_params])

    for term in ("pos", "neg", "omega"):
        assert getattr(got, term).item() == getattr(want, term).item(), term
    assert got.total().item() == want.total().item()
    np.testing.assert_array_equal(got_temps.all_values, want_temps.all_values)
    np.testing.assert_array_equal(got_temps.positive, want_temps.positive)
    assert got_temps.positive.shape == want_temps.positive.shape
    for name, grads in got_grads.items():
        for g, w in zip(grads, want_grads[name]):
            assert g.shape == w.shape
            if name in approximate:
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-15, err_msg=name)
            else:
                np.testing.assert_array_equal(g, w, err_msg=name)
    assert any(np.abs(g).max() > 0 for g in got_grads["heads"])


@pytest.mark.parametrize("variant,heads,mode,agg,kappa", NCE_GRID)
def test_nce_matches_per_head_reference(variant, heads, mode, agg, kappa):
    cfg = LossConfig(variant=variant, heads=heads, beta=0.7, kappa=kappa, temp_mode=mode,
                     tau0=0.5, neg_agg=agg, bounds=TempBounds(1e-5, 2.0))
    _compare(cfg, derive(31, variant, heads, mode, agg, kappa))


@pytest.mark.parametrize("variant,heads,mode", OTHER_GRID)
def test_negcos_and_cross_corr_match_per_head_reference(variant, heads, mode):
    """The negative cosine calls the shared predictor on each view's stack
    and, when adaptive, the temperature net on four stacks; the adaptive
    cross-correlation calls the batch-width net on two. With C > 1 those
    gradients sum call by call instead of head by head (last-bit drift);
    every value and every other gradient is exact."""
    cfg = LossConfig(variant=variant, heads=heads, beta=0.7, lambd=0.5, temp_mode=mode,
                     tau0=0.5, bounds=TempBounds(1e-5, 2.0))
    approximate = ()
    if heads > 1 and variant == "simsiam":
        approximate = ("predictor", "temp_net")
    elif heads > 1 and mode == "adaptive":
        approximate = ("temp_net",)
    _compare(cfg, derive(32, variant, heads, mode), approximate)


@pytest.mark.parametrize("variant,mode", BASELINE_GRID)
def test_baseline_matches_per_head_reference(variant, mode):
    """The single-head baseline family of every variant, at ``tau0`` and
    at the cosine schedule's epoch-7 temperature (0.878, at the default
    tau_min, tau_max and period)."""
    cfg = LossConfig(variant=variant, family="baseline", heads=1, lambd=0.5, temp_mode=mode,
                     tau0=0.5, bounds=TempBounds(1e-5, 2.0))
    _compare(cfg, derive(34, variant, mode))


@pytest.mark.parametrize("heads", [1, 3])
def test_pair_similarities_match_per_head_reference(heads):
    bundle = _bundle(LossConfig(heads=heads), derive(33, heads))
    stream = SplitMix64(derive(33, "pairs", heads))
    pairs = _draw(stream, (2, 7, 2, 2, 3))
    np.testing.assert_array_equal(
        pair_similarities(bundle, pairs)[0],
        reference_pair_similarities(bundle.encoder, reference_heads(bundle.heads), pairs))
