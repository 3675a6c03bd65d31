"""Training loop: schedules, the optimizer contract, batch assembly,
evaluation protocols, and determinism."""
import math

import numpy as np
import pytest

from contrastlab import losses as L
from contrastlab import tensor as T
from contrastlab import train
from contrastlab.augment import AugPipeline, SyntheticSpec, generate_dataset
from contrastlab.errors import ContractViolation
from contrastlab.losses import LossConfig
from contrastlab.nets import TempBounds
from contrastlab.tensor import Tensor, backward
from contrastlab.train import (EvalConfig, ModelConfig, SgdMomentum, TrainConfig,
                               _batch_loss, _start, build_eval_pairs, knn_eval,
                               linear_probe, pretrain, reduction_check, temperature_for_step,
                               train_step)
from reference_heads import reference_forward_views, reference_heads, stacked_grads

SMALL_SPEC = SyntheticSpec(classes=4, per_class=20, size=8, channels=1, seed=5)


def small_dataset():
    return generate_dataset(SMALL_SPEC)


class TestTemperatureSchedule:
    def test_cosine_endpoints(self):
        cfg = LossConfig(temp_mode="cosine", tau_min=0.1, tau_max=0.9, tau_period=40)
        assert temperature_for_step(cfg, 0, 60) == pytest.approx(0.9)
        assert temperature_for_step(cfg, 20, 60) == pytest.approx(0.1)

    def test_constant_any_epoch(self):
        cfg = LossConfig(temp_mode="constant", tau0=0.2, family="baseline", heads=1)
        for epoch in (0, 7, 59):
            assert temperature_for_step(cfg, epoch, 60) == 0.2

    def test_adaptive_marker(self):
        cfg = LossConfig(temp_mode="adaptive")
        assert temperature_for_step(cfg, 3, 60) == "adaptive"


class TestNegativeIndices:
    def test_rows_exclude_self_and_partner_own_branch_first(self):
        """Row i of the Gram matrix over concat([z_a, z_b]) pairs with its
        partner in the other view; its negatives are every other row, own
        branch first, each branch in batch order."""
        batch = 5
        partner, negatives = L.pair_indices(batch)
        assert partner.shape == (2 * batch, 1)
        assert negatives.shape == (2 * batch, 2 * batch - 2)
        for i in range(2 * batch):
            branch, k = divmod(i, batch)
            mate = (1 - branch) * batch + k
            assert partner[i, 0] == mate
            row = negatives[i].tolist()
            assert i not in row and mate not in row
            others = [j for j in range(batch) if j != k]
            assert row == [branch * batch + j for j in others] + [mate - k + j for j in others]


class TestSgd:
    def test_single_step_loss_decrease(self):
        """One step at small lr changes the loss by -lr * |grad|^2 up to
        O(lr^2); agreement within 10%."""
        dataset = small_dataset()
        cfg = LossConfig(variant="ntxent", family="baseline", heads=1,
                         temp_mode="constant", tau0=0.5)
        train_cfg = TrainConfig(epochs=1, batch_size=8, run_seed=3, probe_per_class=10)
        bundle = _start(dataset, ModelConfig(d=16, d_prime=8), cfg, train_cfg)[0]
        params = bundle.parameters()
        rng = np.random.default_rng(0)
        xa = Tensor(rng.uniform(size=(8, 64)))
        xb = Tensor(rng.uniform(size=(8, 64)))
        terms, _ = _batch_loss(bundle, cfg, xa, xb, 0.5)
        before = terms.total().item()
        grads = backward(terms.total(), params)
        grad_sq = sum(float((g ** 2).sum()) for g in grads)
        lr = 1e-4
        opt = SgdMomentum(params, momentum=0.0, weight_decay=0.0, lr_scales=[1.0] * len(params))
        opt.step(grads, lr)
        after, _ = _batch_loss(bundle, cfg, xa, xb, 0.5)
        drop = before - after.total().item()
        assert abs(drop - lr * grad_sq) / (lr * grad_sq) < 0.10

    def test_lr_scales_apply(self):
        p = Tensor(np.array([1.0]))
        q = Tensor(np.array([1.0]))
        opt = SgdMomentum([p, q], momentum=0.0, weight_decay=0.0, lr_scales=[1.0, 0.5])
        opt.step([np.array([1.0]), np.array([1.0])], 0.1)
        assert p.data[0] == pytest.approx(0.9)
        assert q.data[0] == pytest.approx(0.95)

    def test_lengths_must_match_the_parameters(self):
        """A learning-rate scale or a gradient per parameter, no fewer: a
        short list would leave the parameters past its end untouched."""
        params = [Tensor(np.array([1.0])), Tensor(np.array([1.0]))]
        with pytest.raises(ContractViolation):
            SgdMomentum(params, momentum=0.0, weight_decay=0.0, lr_scales=[0.5])
        opt = SgdMomentum(params, momentum=0.0, weight_decay=0.0, lr_scales=[1.0, 1.0])
        with pytest.raises(ContractViolation):
            opt.step([np.array([1.0])], 0.1)
        assert [p.data[0] for p in params] == [1.0, 1.0]

    def test_train_step_applies_the_gradients_it_returns(self):
        """Without momentum and weight decay one step moves every
        parameter by exactly -lr * scale * grad, the temperature net at
        its own scale."""
        dataset = small_dataset()
        cfg = LossConfig(variant="ntxent", family="multihead", heads=2, temp_mode="adaptive")
        train_cfg = TrainConfig(epochs=1, batch_size=8, momentum=0.0, weight_decay=0.0,
                                temp_lr_scale=0.01, run_seed=3, probe_per_class=10)
        bundle, opt, _, _ = _start(dataset, ModelConfig(d=16, d_prime=8), cfg, train_cfg)
        assert sorted(set(opt.lr_scales)) == [0.01, 1.0]
        rng = np.random.default_rng(0)
        xa = Tensor(rng.uniform(size=(8, 64)))
        xb = Tensor(rng.uniform(size=(8, 64)))
        before = [p.data.copy() for p in opt.params]
        lr = 0.05
        value, terms, _, grads = train_step(bundle, opt, cfg, xa, xb, lr, "adaptive")
        assert value == terms.total().item()
        for p, old, grad, scale in zip(opt.params, before, grads, opt.lr_scales):
            np.testing.assert_array_equal(p.data, old - lr * scale * grad)


@pytest.mark.parametrize("run", [
    lambda dataset, model, cfg, train_cfg: pretrain(dataset, model, cfg, train_cfg,
                                                    AugPipeline.prefix(1)),
    lambda dataset, model, cfg, train_cfg: reduction_check(dataset, model, train_cfg,
                                                           AugPipeline.prefix(1)),
], ids=["pretrain", "reduction_check"])
def test_split_smaller_than_batch_rejected_before_any_step(run, monkeypatch):
    dataset = small_dataset()
    calls = []
    monkeypatch.setattr(train, "_batch_loss", lambda *args: calls.append(args))
    cfg = LossConfig(variant="ntxent", family="baseline", heads=1, temp_mode="constant")
    train_cfg = TrainConfig(epochs=1, batch_size=65, run_seed=3, probe_per_class=10)
    with pytest.raises(ContractViolation, match=r"training split \(64\) smaller than batch size 65"):
        run(dataset, ModelConfig(d=16, d_prime=8), cfg, train_cfg)
    assert calls == []


class TestBatchLossEquivalence:
    def test_batch_matches_oracle_in_training_geometry(self):
        """The training loss equals the naive Gaussian-ratio oracle, up to
        the (d'/2) log(2 pi) constant per head, in value and in the
        gradient of every parameter. The oracle's projections are built
        here in the training geometry (heads read unit-normalized
        backbone features); head biases of 0.3 make an oracle fed raw
        backbone features disagree."""
        dataset = small_dataset()
        bounds = TempBounds(1e-5, 2.0)
        cfg = LossConfig(variant="ntxent", family="multihead", heads=2, beta=1.0,
                         temp_mode="adaptive", neg_agg="softmax", bounds=bounds)
        train_cfg = TrainConfig(epochs=1, batch_size=4, run_seed=9)
        bundle = _start(dataset, ModelConfig(d=16, d_prime=8), cfg, train_cfg)[0]
        for bias in bundle.heads.params[1::2]:
            bias.data[:] = 0.3
        params = bundle.parameters()
        rng = np.random.default_rng(1)
        xa = Tensor(rng.uniform(size=(4, 64)))
        xb = Tensor(rng.uniform(size=(4, 64)))
        batch_terms, _ = _batch_loss(bundle, cfg, xa, xb, "adaptive")
        batch_grads = backward(batch_terms.total(), params)

        heads = reference_heads(bundle.heads)
        _, _, raw = reference_forward_views(bundle.encoder, heads, xa, xb)
        projections = [(T.l2_normalize(a), T.l2_normalize(b)) for a, b in raw]
        oracle = L.gaussian_ratio_loss("ntxent", projections, bundle.temp_net, bounds)
        encoder, per_head = bundle.encoder.params, [p for h in heads for p in h.params]
        grads = backward(oracle, encoder + per_head + bundle.temp_net.params)
        split = len(encoder) + len(per_head)
        temp_grads = grads[split:]
        oracle_grads = (grads[:len(encoder)] + stacked_grads(heads, grads[len(encoder):split])
                        + temp_grads)
        offset = 2 * 4.0 * math.log(2.0 * math.pi)
        np.testing.assert_allclose(batch_terms.total().item() + offset, oracle.item(), rtol=1e-10)
        for got, want in zip(batch_grads, oracle_grads, strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-12)
        assert all(np.abs(g).max() > 0 for g in temp_grads)


class TestSymmetry:
    def test_swapping_views_preserves_loss(self):
        dataset = small_dataset()
        for variant in ("ntxent", "infonce"):
            cfg = LossConfig(variant=variant, family="multihead", heads=2, beta=0.3,
                             temp_mode="adaptive", neg_agg="softmax")
            train_cfg = TrainConfig(epochs=1, batch_size=6, run_seed=11)
            bundle = _start(dataset, ModelConfig(d=16, d_prime=8), cfg, train_cfg)[0]
            rng = np.random.default_rng(2)
            xa = Tensor(rng.uniform(size=(6, 64)))
            xb = Tensor(rng.uniform(size=(6, 64)))
            forward, _ = _batch_loss(bundle, cfg, xa, xb, "adaptive")
            swapped, _ = _batch_loss(bundle, cfg, xb, xa, "adaptive")
            assert forward.total().item() == swapped.total().item()


class TestKnn:
    def test_duplicated_point_k1(self):
        train = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([3, 5])
        acc = knn_eval(train, labels, np.array([[0.0, 1.0]]), np.array([5]), k=1)
        assert acc == 1.0

    def test_single_class_train_set(self):
        train = np.array([[1.0, 0.0], [0.9, 0.1]])
        labels = np.array([2, 2])
        test = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        test_labels = np.array([2, 1, 2])
        acc = knn_eval(train, labels, test, test_labels, k=2)
        assert acc == pytest.approx(2.0 / 3.0)

    def test_gaussian_blobs_against_brute_force(self):
        """Well-separated blobs classify at >= 0.99; results agree with an
        independent brute-force nearest-neighbor implementation."""
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            centers = np.array([[1.0, 0.0], [0.0, 1.0]])
            train = np.vstack([rng.normal(c, 0.1, size=(40, 2)) for c in centers])
            train_labels = np.repeat([0, 1], 40)
            test = np.vstack([rng.normal(c, 0.1, size=(25, 2)) for c in centers])
            test_labels = np.repeat([0, 1], 25)
            acc = knn_eval(train, train_labels, test, test_labels, k=5)
            assert acc >= 0.99
            # brute force oracle: plain loops, majority vote
            tn = train / np.linalg.norm(train, axis=1, keepdims=True)
            sn = test / np.linalg.norm(test, axis=1, keepdims=True)
            correct = 0
            for x, y in zip(sn, test_labels):
                dists = [(1.0 - float(x @ t), j) for j, t in enumerate(tn)]
                dists.sort()
                votes = [train_labels[j] for _, j in dists[:5]]
                pred = max(set(votes), key=lambda c: (votes.count(c), -c))
                correct += int(pred == y)
            assert acc == pytest.approx(correct / len(test_labels))

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        train = rng.normal(size=(30, 4))
        labels = rng.integers(0, 3, size=30)
        test = rng.normal(size=(10, 4))
        test_labels = rng.integers(0, 3, size=10)
        a = knn_eval(train, labels, test, test_labels, k=5)
        b = knn_eval(train * 7.0, labels, test * 7.0, test_labels, k=5)
        assert a == b

    def test_contracts(self):
        with pytest.raises(ContractViolation):
            knn_eval(np.zeros((0, 2)), np.zeros(0, dtype=int),
                     np.ones((1, 2)), np.zeros(1, dtype=int), k=1)
        with pytest.raises(ContractViolation):
            knn_eval(np.ones((2, 2)), np.zeros(2, dtype=int),
                     np.ones((1, 2)), np.zeros(1, dtype=int), k=5)


class TestLinearProbe:
    def test_one_hot_features_perfect(self):
        labels = np.repeat(np.arange(4), 30)
        feats = np.eye(4)[labels]
        acc = linear_probe(feats, labels, feats, labels, per_class=20, seed=0)
        assert acc == 1.0

    def test_shuffled_labels_chance_level(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(400, 8))
        labels = np.repeat(np.arange(4), 100)
        test_feats = rng.normal(size=(400, 8))
        test_labels = rng.permutation(labels)
        acc = linear_probe(feats, labels, test_feats, test_labels, per_class=50, seed=1)
        assert abs(acc - 0.25) < 0.05

    @pytest.mark.parametrize("names", [(-1, 0, 1), (0, 7, 1000)])
    def test_labels_need_not_be_column_numbers(self, names):
        """Separable features probe perfectly whatever integers name the
        classes, as the nearest-neighbor vote does."""
        index = np.repeat(np.arange(3), 30)
        feats = np.eye(3)[index]
        labels = np.asarray(names)[index]
        assert knn_eval(feats, labels, feats, labels, k=5) == 1.0
        assert linear_probe(feats, labels, feats, labels, per_class=20, seed=0) == 1.0

    def test_insufficient_class_rejected(self):
        feats = np.eye(2)[np.array([0, 0, 1])]
        labels = np.array([0, 0, 1])
        with pytest.raises(ContractViolation):
            linear_probe(feats, labels, feats, labels, per_class=2, seed=0)


class TestPretrain:
    def test_determinism_and_artifacts(self, tmp_path):
        dataset = small_dataset()
        cfg = LossConfig(variant="ntxent", family="multihead", heads=2, beta=2.0,
                         temp_mode="adaptive", neg_agg="softmax")
        model = ModelConfig(d=16, d_prime=8)
        train_cfg = TrainConfig(epochs=2, batch_size=8, run_seed=42, probe_per_class=10, temp_lr_scale=0.01)
        pipeline = AugPipeline.prefix(3)
        eval_cfg = EvalConfig(knn_k=3, pair_count=20)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        ra = pretrain(dataset, model, cfg, train_cfg, pipeline, eval_cfg, out_dir=out_a)
        rb = pretrain(dataset, model, cfg, train_cfg, pipeline, eval_cfg, out_dir=out_b)
        assert (out_a / "train_log.csv").read_bytes() == (out_b / "train_log.csv").read_bytes()
        assert (out_a / "eval_log.csv").read_bytes() == (out_b / "eval_log.csv").read_bytes()
        assert (out_a / "checkpoint.bin").exists()
        assert ra.train_rows == rb.train_rows
        header = (out_a / "train_log.csv").read_text().splitlines()[0]
        assert header == "epoch,step,loss,pos_term,neg_term,omega_term,tau_min,tau_mean,tau_max,tau_var_heads"

    def test_seed_changes_trajectory(self, tmp_path):
        dataset = small_dataset()
        cfg = LossConfig(variant="ntxent", family="baseline", heads=1,
                         temp_mode="constant", tau0=0.3)
        model = ModelConfig(d=16, d_prime=8)
        pipeline = AugPipeline.prefix(2)
        ra = pretrain(dataset, model, cfg, TrainConfig(epochs=1, batch_size=8, run_seed=1, probe_per_class=10),
                      pipeline, EvalConfig(knn_k=3, pair_count=10))
        rb = pretrain(dataset, model, cfg, TrainConfig(epochs=1, batch_size=8, run_seed=2, probe_per_class=10),
                      pipeline, EvalConfig(knn_k=3, pair_count=10))
        assert ra.train_rows != rb.train_rows

    def test_scheduled_temperatures_logged_exactly(self):
        """tau_min, tau_mean and tau_max all read the scheduled value,
        although the float mean of its copies can round away from it
        (0.30999999999999994 at C = 1)."""
        dataset = small_dataset()
        for heads in (1, 3):
            cfg = LossConfig(variant="ntxent", family="multihead", heads=heads, beta=0.0,
                             temp_mode="constant", tau0=0.31, neg_agg="softmax")
            result = pretrain(dataset, ModelConfig(d=16, d_prime=8), cfg,
                              TrainConfig(epochs=1, batch_size=8, run_seed=3, probe_per_class=10),
                              AugPipeline.prefix(1), EvalConfig(knn_k=3, pair_count=10))
            for row in result.train_rows:
                parts = row.split(",")
                assert parts[6:10] == ["0.31", "0.31", "0.31", "0.0"], (heads, row)

    @pytest.mark.parametrize("variant,family", [
        ("simsiam", "baseline"), ("simsiam", "multihead"),
        ("barlow", "baseline"), ("barlow", "multihead"),
        ("infonce", "multihead"),
    ])
    def test_other_variants_run(self, variant, family):
        dataset = small_dataset()
        heads = 1 if family == "baseline" else 2
        temp_mode = "constant" if family == "baseline" else "adaptive"
        # the cross-correlation variant's signed temperature-set penalty
        # pushes temperatures toward the sigmoid bounds under SGD; a small
        # beta keeps the short run away from saturation
        beta = 0.01 if variant == "barlow" else 2.0
        cfg = LossConfig(variant=variant, family=family, heads=heads, beta=beta,
                         temp_mode=temp_mode, tau0=0.3, neg_agg="softmax", lambd=5e-3)
        result = pretrain(dataset, ModelConfig(d=16, d_prime=8), cfg,
                          TrainConfig(epochs=1, batch_size=8, run_seed=4, probe_per_class=10,
                                      temp_lr_scale=0.003),
                          AugPipeline.prefix(2), EvalConfig(knn_k=3, pair_count=10))
        assert len(result.train_rows) == len(result.train_indices) // 8
        for row in result.train_rows:
            assert math.isfinite(float(row.split(",")[2]))

    def test_cosine_schedule_run_logs_schedule(self):
        dataset = small_dataset()
        cfg = LossConfig(variant="ntxent", family="multihead", heads=1, beta=0.0,
                         temp_mode="cosine", tau_min=0.1, tau_max=0.5, tau_period=2,
                         neg_agg="softmax")
        result = pretrain(dataset, ModelConfig(d=16, d_prime=8), cfg,
                          TrainConfig(epochs=2, batch_size=8, run_seed=5, probe_per_class=10),
                          AugPipeline.prefix(1), EvalConfig(knn_k=3, pair_count=10))
        first_epoch_tau = float(result.train_rows[0].split(",")[6])
        second_epoch_tau = float(result.train_rows[-1].split(",")[6])
        assert first_epoch_tau == pytest.approx(0.5)
        assert second_epoch_tau == pytest.approx(0.1)


class TestEvalPairs:
    def test_deterministic_and_distinct(self):
        dataset = small_dataset()
        images = dataset.pixels[:10]
        pipe = AugPipeline.prefix(3)
        pos1, neg1 = build_eval_pairs(images, pipe, seed=7, count=15)
        pos2, neg2 = build_eval_pairs(images, pipe, seed=7, count=15)
        (a1, b1), (a2, b2) = pos1, pos2
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)
        for u, v in (pos1, neg1):
            assert u.shape == v.shape == (15,) + images.shape[1:]
