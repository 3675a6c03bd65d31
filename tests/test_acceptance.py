"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line. The trend criteria pretrain twelve desk-scale models through a
shared fixture and dominate the runtime."""
import math
import time
import traceback
from pathlib import Path

import numpy as np
import pytest

from contrastlab import losses as L
from contrastlab import tensor as T
from contrastlab.augment import (AugPipeline, SyntheticSpec, generate_dataset, parse_pnm,
                                 write_pnm, PnmError)
from contrastlab.checks import gradcheck_suite, mle_equivalence_suite, reduction_suite
from contrastlab.losses import LossConfig
from contrastlab.nets import TempBounds
from contrastlab.rng import SplitMix64, derive
from contrastlab.tensor import Tensor, backward
from contrastlab.train import EvalConfig, ModelConfig, TrainConfig, pretrain
from reference_heads import stacks

BOUNDS = TempBounds(1e-5, 2.0)
BASELINE = LossConfig(variant="ntxent", family="baseline", heads=1,
                      temp_mode="constant", tau0=0.2)
MULTIHEAD = LossConfig(variant="ntxent", family="multihead", heads=3,
                       temp_mode="adaptive", neg_agg="softmax", beta=1.0, bounds=BOUNDS)
SEEDS = (1, 2, 3)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def trend_runs():
    """Desk-scale pretraining grid: {baseline, multihead} x augmentation
    prefixes {1, 5} x three seeds, on the synthetic 4-class dataset.

    A run that raises is kept with its error text and no result, so the
    grid always completes and every criterion reading that run fails
    naming it (see ``crashed_runs``)."""
    dataset = generate_dataset(SyntheticSpec())
    runs = {}
    for prefix in (1, 5):
        pipeline = AugPipeline.prefix(prefix)
        for method, loss_cfg in (("baseline", BASELINE), ("multihead", MULTIHEAD)):
            for seed in SEEDS:
                start = time.monotonic()
                result, error = None, None
                try:
                    result = pretrain(dataset, ModelConfig(), loss_cfg,
                                      TrainConfig(epochs=60, run_seed=seed),
                                      pipeline, EvalConfig())
                except Exception as err:  # recorded and reported by each criterion
                    frame = traceback.extract_tb(err.__traceback__)[-1]
                    error = (f"{type(err).__name__}: {err} "
                             f"(in {frame.name}, {Path(frame.filename).name}:{frame.lineno})")
                runs[(method, prefix, seed)] = {
                    "result": result,
                    "error": error,
                    "seconds": time.monotonic() - start,
                }
    return runs


def crashed_runs(criterion: str, trend_runs, keys) -> bool:
    """Report FAIL for ``criterion`` if any run it reads crashed; the
    failure line names every such run and its error."""
    crashed = [f"{key} raised {trend_runs[key]['error']}" for key in keys
               if trend_runs[key]["error"] is not None]
    if crashed:
        report(criterion, False, "crashed grid runs: " + "; ".join(crashed))
    return bool(crashed)


def _final_eval(run) -> tuple[float, float, float]:
    epoch, knn, probe, overlap = run["result"].eval_rows[-1].split(",")
    return float(knn), float(probe), float(overlap)


class TestCriterion1Gradients:
    def test_gradcheck_all_variants(self):
        start = time.monotonic()
        results = gradcheck_suite()
        elapsed = time.monotonic() - start
        worst = max(results, key=lambda r: r.error)
        ok = all(r.passed for r in results) and elapsed < 120.0
        report("criterion-1 gradcheck",
               ok, f"{len(results)} variants, worst {worst.name} = {worst.error:.2e} "
                   f"(tol 1e-4), runtime {elapsed:.0f}s < 120s")


class TestCriterion2PenaltyStationarity:
    def test_stationary_point_and_grid_argmin(self):
        details = []
        ok = True
        for d_prime in (2, 8, 64, 128):
            tau = Tensor(2.0 / d_prime)
            grad = abs(float(backward(L.temp_penalty(tau, d_prime), [tau])[0]))
            grid = np.arange(1e-3, 4.0 + 1e-9, 1e-3)
            values = L.temp_penalty(Tensor(grid), d_prime).data
            argmin = grid[np.argmin(values)]
            ok = ok and grad < 1e-10 and abs(argmin - 2.0 / d_prime) <= 1e-3 + 1e-12
            details.append(f"d'={d_prime}: |dOmega/dtau|={grad:.1e}, argmin={argmin:.4f}")
        report("criterion-2 penalty stationarity", ok, "; ".join(details))


class TestCriterion3MleEquivalence:
    def test_softmax_losses_match_oracle(self):
        results = mle_equivalence_suite()
        worst = max(results, key=lambda r: r.error)
        report("criterion-3 mle equivalence", all(r.passed for r in results),
               f"100 instances/variant, value+grad, worst {worst.name} = {worst.error:.2e} (tol 1e-8)")


class TestCriterion4Reduction:
    def test_fifty_step_reduction(self):
        results = reduction_suite()
        worst = max(results, key=lambda r: r.error)
        report("criterion-4 reduction to baseline", all(r.passed for r in results),
               f"50 steps, worst {worst.name} = {worst.error:.2e} (tol 1e-8)")


class TestCriterion5StopGradient:
    def test_exact_zero_gradient_with_nonzero_sensitivity(self):
        stream = SplitMix64(derive(2025, "sg"))
        mk = lambda: Tensor(((2 * stream.floats(8) - 1) * 2).reshape(8))
        live_a, live_b, tgt_a, tgt_b = mk(), mk(), mk(), mk()
        cfg = LossConfig(variant="simsiam", heads=1, beta=0.5,
                         temp_mode="constant", tau0=0.5)
        leaves = [live_a, live_b, tgt_a, tgt_b]
        loss = L.multihead_negcos(cfg, stacks([(live_a, live_b, tgt_a, tgt_b)]), 0.5)[0].total()
        _, _, g_tgt_a, g_tgt_b = backward(loss, leaves)
        analytic_zero = (np.all(g_tgt_a == 0.0) and np.all(g_tgt_b == 0.0))

        def value():
            return L.multihead_negcos(cfg, stacks([(live_a, live_b, tgt_a, tgt_b)]),
                                      0.5)[0].total().item()

        sensitivities = []
        h = 1e-5
        for tgt in (tgt_a, tgt_b):
            for i in range(tgt.size):
                saved = tgt.data[i]
                tgt.data[i] = saved + h
                up = value()
                tgt.data[i] = saved - h
                down = value()
                tgt.data[i] = saved
                sensitivities.append(abs(up - down) / (2 * h))
        min_sens = min(max(sensitivities[:8]), max(sensitivities[8:]))
        ok = analytic_zero and min_sens > 1e-4
        report("criterion-5 stop-gradient", ok,
               f"analytic grads exactly zero: {analytic_zero}; "
               f"finite-difference sensitivity per branch >= {min_sens:.2e}")


class TestCriterion6TemperatureBounds:
    def test_full_adaptive_run_stays_inside(self, trend_runs):
        crashed_runs("criterion-6 temperature bounds", trend_runs,
                     [("multihead", 5, seed) for seed in SEEDS])
        lo, hi = math.inf, -math.inf
        for seed in SEEDS:
            for row in trend_runs[("multihead", 5, seed)]["result"].train_rows:
                parts = row.split(",")
                lo = min(lo, float(parts[6]))
                hi = max(hi, float(parts[8]))
        eta, iota = 1e-5, 2.0
        ok = eta < lo and hi < eta + iota
        report("criterion-6 temperature bounds", ok,
               f"logged min {lo:.3e} > {eta}, max {hi:.6f} < {eta + iota} over 3 full runs")


class TestCriterion7SeparabilityTrend:
    def test_adaptive_multihead_separates_better(self, trend_runs):
        # reads every run: the runtime bound covers the whole grid
        crashed_runs("criterion-7 separability trend", trend_runs, list(trend_runs))
        wins = 0
        base_overlaps, multi_overlaps = [], []
        details = []
        for seed in SEEDS:
            _, _, base = _final_eval(trend_runs[("baseline", 5, seed)])
            _, _, multi = _final_eval(trend_runs[("multihead", 5, seed)])
            base_overlaps.append(base)
            multi_overlaps.append(multi)
            wins += int(multi < base)
            details.append(f"seed{seed}: {multi:.3f} vs {base:.3f}")
        mean_ok = np.mean(multi_overlaps) < np.mean(base_overlaps)
        runtime_ok = all(run["seconds"] < 1800 for run in trend_runs.values())
        ok = wins >= 2 and mean_ok and runtime_ok
        report("criterion-7 separability trend", ok,
               f"multihead vs baseline overlap {'; '.join(details)}; "
               f"wins {wins}/3, means {np.mean(multi_overlaps):.3f} vs "
               f"{np.mean(base_overlaps):.3f}, all runs < 30 min")


class TestCriterion8AugmentationTrend:
    def test_gain_grows_with_augmentations(self, trend_runs):
        crashed_runs("criterion-8 augmentation-count trend", trend_runs,
                     [(method, prefix, seed) for method in ("baseline", "multihead")
                      for prefix in (1, 5) for seed in SEEDS])
        gains = {}
        for prefix in (1, 5):
            per_seed = []
            for seed in SEEDS:
                knn_b, _, _ = _final_eval(trend_runs[("baseline", prefix, seed)])
                knn_m, _, _ = _final_eval(trend_runs[("multihead", prefix, seed)])
                per_seed.append(knn_m - knn_b)
            gains[prefix] = float(np.mean(per_seed))
        ok = gains[5] > gains[1]
        report("criterion-8 augmentation-count trend", ok,
               f"mean knn gain with 5 augs {gains[5]:+.4f} > with 1 aug {gains[1]:+.4f}")


class TestCriterion9Determinism:
    def test_byte_identical_logs(self, tmp_path):
        dataset = generate_dataset(SyntheticSpec())
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            pretrain(dataset, ModelConfig(), MULTIHEAD,
                     TrainConfig(epochs=5, run_seed=11), AugPipeline.prefix(5),
                     EvalConfig(), out_dir=out)
            outs.append((out / "train_log.csv").read_bytes())
        ok = outs[0] == outs[1]
        report("criterion-9 determinism", ok,
               f"two 5-epoch runs, train_log.csv identical: {ok} ({len(outs[0])} bytes)")


class TestCriterion10PnmParser:
    def _corpus(self):
        """50 files: 30 canonical, 20 with comments/extra whitespace."""
        stream = SplitMix64(derive(7, "pnm-corpus"))
        files = []
        for i in range(50):
            gray = i % 2 == 0
            w = 1 + stream.next_index(9)
            h = 1 + stream.next_index(9)
            channels = 1 if gray else 3
            payload = bytes(stream.next_index(256) for _ in range(w * h * channels))
            magic = b"P5" if gray else b"P6"
            if i < 30:
                blob = b"%s %d %d 255\n" % (magic, w, h) + payload
            else:
                blob = b"%s # comment\n  %d\t%d\n# another\n255\n" % (magic, w, h) + payload
            files.append((blob, i < 30))
        return files

    def test_round_trip_and_malformed_rejection(self):
        corpus_ok = True
        for blob, canonical in self._corpus():
            image = parse_pnm(blob)
            rewritten = write_pnm(image)
            if canonical and rewritten != blob:
                corpus_ok = False
            again = parse_pnm(rewritten)
            if not np.array_equal(again, image):
                corpus_ok = False
        fixtures = [
            (b"P4 2 2 255\n" + bytes(4), "magic"),
            (b"P5 0 2 255\n", "width"),
            (b"P5 2 0 255\n", "height"),
            (b"P5 2 2 254\n" + bytes(4), "maxval"),
            (b"P5 2 2 255\n" + bytes(3), "payload"),
            (b"P5 2 99999 255\n" + bytes(4), "height"),
        ]
        rejected = 0
        for blob, expected_field in fixtures:
            try:
                parse_pnm(blob)
            except PnmError as err:
                rejected += int(err.field == expected_field)
        ok = corpus_ok and rejected == 6
        report("criterion-10 pnm parser", ok,
               f"50-file round trip ok: {corpus_ok}; malformed fixtures rejected "
               f"with documented category: {rejected}/6")
