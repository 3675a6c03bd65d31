"""Training loop: schedules, the optimizer contract, batch assembly,
evaluation protocols, and determinism."""
import math

import numpy as np
import pytest

from contrastlab import losses as L
from contrastlab import tensor as T
from contrastlab import train
from contrastlab.augment import AugPipeline, SyntheticSpec, generate_dataset
from contrastlab.errors import ContractViolation, DomainError
from contrastlab.losses import LossConfig
from contrastlab.nets import ModelBundle, TempBounds, forward_views
from contrastlab.rng import SplitMix64, derive
from contrastlab.tensor import Tensor, backward
from contrastlab.train import (EvalConfig, ModelConfig, SgdMomentum, TrainConfig,
                               _batch_loss, _nearest, _start, build_eval_pairs,
                               encode_features, knn_eval, linear_probe, pretrain,
                               reduction_check, temperature_for_step, train_step)
from test_augment import reference_view

SMALL_SPEC = SyntheticSpec(classes=4, per_class=20, size=8, channels=1, seed=5)


def small_dataset():
    return generate_dataset(SMALL_SPEC)


def unit(x):
    """Rows scaled to unit norm: the features both evaluation protocols read."""
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestTemperatureSchedule:
    def test_cosine_endpoints(self):
        cfg = LossConfig(temp_mode="cosine", tau_min=0.1, tau_max=0.9, tau_period=40)
        assert temperature_for_step(cfg, 0) == pytest.approx(0.9)
        assert temperature_for_step(cfg, 20) == pytest.approx(0.1)

    def test_constant_any_epoch(self):
        cfg = LossConfig(temp_mode="constant", tau0=0.2, family="baseline", heads=1)
        for epoch in (0, 7, 59):
            assert temperature_for_step(cfg, epoch) == 0.2


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
        value, terms, _, grads = train_step(bundle, opt, cfg, xa, xb, lr, bundle.temp_net)
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
        gradient of every parameter. The oracle reads the head stacks of
        ``forward_views`` (heads read unit-normalized backbone features) at
        unit norm; head biases of 0.3 make an oracle fed raw backbone
        features disagree."""
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
        batch_terms, _ = _batch_loss(bundle, cfg, xa, xb, bundle.temp_net)
        batch_grads = backward(batch_terms.total(), params)

        _, _, pa, pb = forward_views(bundle, xa, xb)
        oracle = L.gaussian_ratio_loss("ntxent", (T.l2_normalize(pa), T.l2_normalize(pb)),
                                       bundle.temp_net, bounds)
        oracle_grads = backward(oracle, params)
        temp_grads = oracle_grads[-len(bundle.temp_net.params):]
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
            forward, _ = _batch_loss(bundle, cfg, xa, xb, bundle.temp_net)
            swapped, _ = _batch_loss(bundle, cfg, xb, xa, bundle.temp_net)
            assert forward.total().item() == swapped.total().item()


class TestEncodeFeatures:
    """The unit encoder rows both evaluation protocols read, scaled by the
    rule that scales the heads' inputs."""

    @staticmethod
    def bundle_and_pixels(seed=3):
        pixels = SplitMix64(seed).floats(12 * 4 * 4 * 3).reshape(12, 4, 4, 3)
        return ModelBundle.build(48, 16, 8, 2, seed=seed), pixels

    def test_rows_are_the_encoder_rows_over_their_norms(self):
        for seed in (3, 4, 5):
            bundle, pixels = self.bundle_and_pixels(seed)
            raw = bundle.encoder(Tensor(pixels.reshape(len(pixels), -1))).data
            want = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            assert encode_features(bundle, pixels).tobytes() == want.tobytes()

    def test_scaled_output_layer_gives_the_same_rows(self):
        """Cosine geometry ignores the encoder's scale: an output layer
        scaled by 8 (exact in binary) gives the same rows bit for bit."""
        bundle, pixels = self.bundle_and_pixels()
        before = encode_features(bundle, pixels)
        for param in bundle.encoder.params[2:]:
            param.data = param.data * 8.0
        assert encode_features(bundle, pixels).tobytes() == before.tobytes()

    @pytest.mark.parametrize("value,reason", [
        (0.0, "cannot normalize a zero vector"),
        (1e160, "cannot normalize a vector whose squared norm overflows"),
    ], ids=["zero", "overflowing"])
    def test_zero_and_overflowing_rows_raise_domain_error(self, value, reason):
        """An output layer of zeros or of finite weights so large that a
        row's squared norm overflows: one ``DomainError``, no warning."""
        bundle, pixels = self.bundle_and_pixels()
        for param in bundle.encoder.params[2:]:
            param.data = np.full(param.shape, value)
        with pytest.raises(DomainError, match=reason):
            encode_features(bundle, pixels)


class TestKnn:
    def test_duplicated_point_k1(self):
        train = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([3, 5])
        acc = knn_eval(train, labels, np.array([[0.0, 1.0]]), np.array([5]), k=1)
        assert acc == 1.0 and type(acc) is float     # logs write its repr

    def test_single_class_train_set(self):
        train = unit(np.array([[1.0, 0.0], [0.9, 0.1]]))
        labels = np.array([2, 2])
        test = unit(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
        test_labels = np.array([2, 1, 2])
        acc = knn_eval(train, labels, test, test_labels, k=2)
        assert acc == pytest.approx(2.0 / 3.0)

    def test_gaussian_blobs_against_brute_force(self):
        """Well-separated blobs classify at >= 0.99; results agree with an
        independent brute-force nearest-neighbor implementation."""
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            centers = np.array([[1.0, 0.0], [0.0, 1.0]])
            train = unit(np.vstack([rng.normal(c, 0.1, size=(40, 2)) for c in centers]))
            train_labels = np.repeat([0, 1], 40)
            test = unit(np.vstack([rng.normal(c, 0.1, size=(25, 2)) for c in centers]))
            test_labels = np.repeat([0, 1], 25)
            acc = knn_eval(train, train_labels, test, test_labels, k=5)
            assert acc >= 0.99
            # brute force oracle: plain loops, majority vote
            correct = 0
            for x, y in zip(test, test_labels):
                dists = [(1.0 - float(x @ t), j) for j, t in enumerate(train)]
                dists.sort()
                votes = [train_labels[j] for _, j in dists[:5]]
                pred = max(set(votes), key=lambda c: (votes.count(c), -c))
                correct += int(pred == y)
            assert acc == pytest.approx(correct / len(test_labels))

    def test_contracts(self):
        with pytest.raises(ContractViolation):
            knn_eval(np.zeros((0, 2)), np.zeros(0, dtype=int),
                     np.ones((1, 2)), np.zeros(1, dtype=int), k=1)
        with pytest.raises(ContractViolation):
            knn_eval(np.ones((2, 2)), np.zeros(2, dtype=int),
                     np.ones((1, 2)), np.zeros(1, dtype=int), k=5)


def full_sort_knn(train_feats, train_labels, test_feats, test_labels, k):
    """``knn_eval`` on unit rows with each row's neighbours from a stable
    sort of the whole row; the vote is ``knn_eval``'s."""
    correct = 0
    for row, true_label in zip(1.0 - test_feats @ train_feats.T, test_labels):
        votes, sums = {}, {}
        for idx in np.argsort(row, kind="stable")[:k]:
            cls = int(train_labels[idx])
            votes[cls] = votes.get(cls, 0) + 1
            sums[cls] = sums.get(cls, 0.0) + float(row[idx])
        correct += int(min(votes, key=lambda c: (-votes[c], sums[c], c)) == int(true_label))
    return correct / len(test_labels)


class TestKnnNeighbours:
    """``_nearest`` against the first k of a full stable ``argsort``."""

    @staticmethod
    def assert_full_sort_prefix(dist, k):
        expected = np.argsort(dist, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(np.array(_nearest(dist, k)), expected)

    def test_duplicated_train_features_tie_at_the_kth_place(self):
        rng = np.random.default_rng(11)
        train = np.repeat(rng.normal(size=(6, 3)), 4, axis=0)[rng.permutation(24)]
        test = rng.normal(size=(9, 3))
        dist = 1.0 - test @ train.T
        ordered = np.sort(dist, axis=1)
        straddled = 0
        for k in range(1, len(train) + 1):
            self.assert_full_sort_prefix(dist, k)
            if k < len(train):
                straddled += int(np.any(ordered[:, k - 1] == ordered[:, k]))
        assert straddled > 0, "no tie fell across the k-th place"

    def test_k_equals_the_train_set(self):
        rng = np.random.default_rng(12)
        dist = rng.integers(0, 3, size=(5, 8)).astype(float)
        self.assert_full_sort_prefix(dist, 8)

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_nan_distances_sort_last(self, k):
        dist = np.array([
            [0.5, np.nan, 0.1, 0.1, np.nan, 0.3],        # NaN beyond the k-th place
            [np.nan, 0.2, np.nan, np.nan, 0.2, np.nan],  # k-th distance NaN for k > 2
            [np.nan] * 6,
            [0.0, -0.0, 0.0, np.nan, 1.0, 0.0],
        ])
        self.assert_full_sort_prefix(dist, k)

    def test_vote_ties_match_the_reference_vote(self):
        """Unit features from an integer grid, each repeated, tie
        distances, vote counts and summed distances across classes at
        every k; scoring one test row against each class in turn compares
        the chosen class itself, not only the accuracy."""
        rng = np.random.default_rng(14)
        grid = rng.integers(-1, 2, size=(8, 2)).astype(float)
        grid[np.all(grid == 0, axis=1)] = 1.0
        grid = unit(grid)
        train = np.repeat(grid, 3, axis=0)[rng.permutation(24)]
        test = np.vstack([grid, unit(np.array([[1.0, 1.0], [-1.0, 0.0]]))])
        labels = rng.integers(0, 4, size=24) * 5 - 3
        tied = 0
        for k in range(1, len(train) + 1):
            for row in range(len(test)):
                picks = [knn_eval(train, labels, test[row:row + 1], np.array([c]), k)
                         for c in np.unique(labels)]
                assert sum(picks) == 1.0
                assert picks == [full_sort_knn(train, labels, test[row:row + 1], np.array([c]), k)
                                 for c in np.unique(labels)]
            near = np.argsort(1.0 - test @ train.T, axis=1, kind="stable")[:, :k]
            counts = np.array([np.bincount(labels[r] + 3, minlength=19) for r in near])
            tied += int(np.sum(np.sum(counts == counts.max(axis=1, keepdims=True), axis=1) > 1))
        assert tied > 0, "no vote tie"


class TestLinearProbe:
    def test_one_hot_features_perfect(self):
        labels = np.repeat(np.arange(4), 30)
        feats = np.eye(4)[labels]
        acc = linear_probe(feats, labels, feats, labels, per_class=20, seed=0)
        assert acc == 1.0

    def test_shuffled_labels_chance_level(self):
        rng = np.random.default_rng(4)
        feats = unit(rng.normal(size=(400, 8)))
        labels = np.repeat(np.arange(4), 100)
        test_feats = unit(rng.normal(size=(400, 8)))
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


class TestViewSeeds:
    """Every view training and evaluation compute equals the per-view
    reference at the seed ``derive`` gives it."""

    @pytest.mark.parametrize("prefix", [1, 5])
    def test_training_views_of_derived_seeds(self, prefix):
        dataset = small_dataset()
        pipeline = AugPipeline.prefix(prefix)
        cfg = TrainConfig(batch_size=16, run_seed=3)
        train_idx = np.arange(0, len(dataset), 2)
        for epoch in (0, 2):
            perm = SplitMix64(derive(cfg.run_seed, "shuffle", epoch)).permutation(len(train_idx))
            for step, xa, xb in train._two_view_batches(dataset, train_idx, pipeline, cfg, epoch):
                batch = train_idx[perm[step * 16:(step + 1) * 16]]
                for branch, views in enumerate((xa, xb)):
                    for row, j in enumerate(batch.tolist()):
                        seed = derive(cfg.run_seed, "view", epoch, j, branch)
                        expected = reference_view(dataset.pixels[j], pipeline, seed)
                        assert views.data[row].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("prefix", [1, 5])
    def test_eval_pair_views_of_derived_seeds(self, prefix):
        images = small_dataset().pixels[:10]
        pipeline = AugPipeline.prefix(prefix)
        pos, neg = build_eval_pairs(images, pipeline, seed=7, count=12)
        stream = SplitMix64(derive(7, "choose"))
        for tag, pairs in (("pos", pos), ("neg", neg)):
            for p in range(12):
                i = j = stream.next_index(len(images))
                while tag == "neg" and j == i:
                    j = stream.next_index(len(images))
                for b, image in enumerate((images[i], images[j])):
                    expected = reference_view(image, pipeline, derive(7, tag, p, b))
                    assert pairs[b, p].tobytes() == expected.tobytes()


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
