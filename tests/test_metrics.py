"""Similarity histograms (count arrays), overlap coefficient, temperature
statistics."""
import numpy as np
import pytest

from contrastlab import tensor as T
from contrastlab.errors import ContractViolation
from contrastlab import metrics
from contrastlab.metrics import (N_BINS, histogram_from_values, overlap_coefficient,
                                 pair_similarities, separability_report, temperature_stats,
                                 write_separability_csv)
from contrastlab.nets import Mlp, ModelBundle, forward_views
from contrastlab.tensor import Tensor


class TestHistogram:
    def test_identical_vectors_mass_at_one(self):
        hist = histogram_from_values(np.ones(50))
        assert hist[N_BINS - 1] == 50
        assert (hist / hist.sum()).sum() == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_mass_at_zero(self):
        hist = histogram_from_values(np.zeros(20))
        assert hist[N_BINS // 2] == 20

    def test_uniform_grid_even_mass(self):
        values = -1.0 + 2.0 * np.arange(1000) / 999.0
        hist = histogram_from_values(values)
        # one-sample quantization: every bin holds 10 +- 1 of the 1000
        assert hist.min() >= 9 and hist.max() <= 11
        np.testing.assert_allclose(hist / hist.sum(), 0.01, atol=1.1e-3)

    def test_total_mass_is_pair_count(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(-1, 1, size=137)
        assert histogram_from_values(values).sum() == 137

    def test_last_bin_right_inclusive(self):
        hist = histogram_from_values(np.array([1.0]))
        assert hist[N_BINS - 1] == 1

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            histogram_from_values(np.zeros(0))

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractViolation):
            histogram_from_values(np.array([1.5]))


class TestOverlap:
    def _hist(self, counts):
        return np.asarray(counts)

    def test_identical_histograms(self):
        counts = np.random.default_rng(1).integers(0, 10, size=N_BINS)
        counts[0] += 1
        h = self._hist(counts)
        assert overlap_coefficient(h, h) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self):
        a = np.zeros(N_BINS, dtype=int)
        b = np.zeros(N_BINS, dtype=int)
        a[:10] = 5
        b[50:60] = 7
        assert overlap_coefficient(self._hist(a), self._hist(b)) == 0.0

    def test_half_overlapping_uniform(self):
        # p uniform on bins 0..49, n uniform on bins 25..74: intersection 0.5
        p = np.zeros(N_BINS, dtype=int)
        n = np.zeros(N_BINS, dtype=int)
        p[0:50] = 2
        n[25:75] = 2
        assert overlap_coefficient(self._hist(p), self._hist(n)) == pytest.approx(0.5)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        p = self._hist(rng.integers(0, 20, size=N_BINS) + 1)
        n = self._hist(rng.integers(0, 20, size=N_BINS) + 1)
        assert overlap_coefficient(p, n) == pytest.approx(overlap_coefficient(n, p), abs=1e-15)

    def test_invariant_under_joint_permutation(self):
        rng = np.random.default_rng(3)
        pc = rng.integers(0, 20, size=N_BINS) + 1
        nc = rng.integers(0, 20, size=N_BINS) + 1
        perm = rng.permutation(N_BINS)
        before = overlap_coefficient(self._hist(pc), self._hist(nc))
        after = overlap_coefficient(self._hist(pc[perm]), self._hist(nc[perm]))
        assert before == pytest.approx(after, abs=1e-15)


class TestTemperatureStats:
    def test_hand_cross_head_variance(self):
        taus = np.tile(np.array([[1.0], [2.0], [3.0]]), (1, 5))
        assert temperature_stats(taus) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_equal_temperatures_zero_variance(self):
        assert temperature_stats(np.full((3, 7), 0.2)) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            temperature_stats(np.zeros((3, 0)))


class TestModelSimilarities:
    def _bundle(self):
        return ModelBundle.build(d_in=16 * 16, d=8, d_prime=4, n_heads=3, seed=31)

    def _views(self, fill, n=1):
        return np.full((n, 16, 16, 1), fill)

    def _random_pairs(self, rng, n):
        """(u, v) view arrays, drawn pair by pair (u then v)."""
        return rng.uniform(size=(n, 2, 16, 16, 1)).swapaxes(0, 1)

    def test_identical_views_similarity_one(self):
        bundle = self._bundle()
        pairs = (self._views(0.3, 5), self._views(0.3, 5))
        sims, sims_b = pair_similarities(bundle, pairs)
        np.testing.assert_allclose(sims, 1.0, atol=1e-12)
        np.testing.assert_allclose(sims_b, 1.0, atol=1e-12)

    def test_projected_averages_head_similarities(self):
        bundle = self._bundle()
        pairs = self._random_pairs(np.random.default_rng(4), 3)
        averaged = pair_similarities(bundle, pairs)[0]
        singles = []
        for c in range(3):
            head = Mlp(bundle.heads.spec, [Tensor(p.data[c:c + 1]) for p in bundle.heads.params])
            solo = ModelBundle(bundle.encoder, head, bundle.temp_net)
            singles.append(pair_similarities(solo, pairs)[0])
        np.testing.assert_allclose(averaged, np.mean(singles, axis=0), atol=1e-12)

    def test_projected_similarities_use_training_geometry(self):
        """Heads read unit-normalized backbone features, as in training.
        With nonzero head biases, feeding the raw encoder output instead
        gives different similarities, so this pins the geometry."""
        bundle = self._bundle()
        for bias in bundle.heads.params[1::2]:
            bias.data[:] = 0.3
        pairs = self._random_pairs(np.random.default_rng(6), 6)
        xu = Tensor(pairs[0].reshape(6, -1))
        xv = Tensor(pairs[1].reshape(6, -1))
        hu, hv = bundle.encoder(xu), bundle.encoder(xv)

        def projected(fu, fv):
            return np.mean(T.sum_(T.mul(T.l2_normalize(bundle.heads(fu)),
                                        T.l2_normalize(bundle.heads(fv))), axis=-1).data, axis=0)

        trained = projected(T.l2_normalize(hu), T.l2_normalize(hv))
        np.testing.assert_allclose(pair_similarities(bundle, pairs)[0], trained,
                                   rtol=1e-12, atol=1e-12)
        assert np.max(np.abs(projected(hu, hv) - trained)) > 1e-3

    def test_empty_pairs_rejected(self):
        with pytest.raises(ContractViolation):
            pair_similarities(self._bundle(), (self._views(0.1, 0), self._views(0.1, 0)))

    def test_report_scores_both_sources_from_one_pass_per_pair_set(self, monkeypatch):
        """One forward pass per pair set gives both reports, projected
        first, each equal to the histograms of that pass's similarities."""
        calls = []

        def counted(bundle, xu, xv):
            calls.append(len(xu.data))
            return forward_views(bundle, xu, xv)

        bundle = self._bundle()
        rng = np.random.default_rng(7)
        pos, neg = self._random_pairs(rng, 4), self._random_pairs(rng, 5)
        monkeypatch.setattr(metrics, "forward_views", counted)
        reports = separability_report(bundle, pos, neg)
        assert calls == [4, 5]
        assert [r.source for r in reports] == ["projected", "backbone"]
        for report, p, n in zip(reports, pair_similarities(bundle, pos),
                                pair_similarities(bundle, neg)):
            np.testing.assert_array_equal(report.positive, histogram_from_values(np.clip(p, -1, 1)))
            np.testing.assert_array_equal(report.negative, histogram_from_values(np.clip(n, -1, 1)))


class TestSeparabilityCsv:
    def test_layout_and_summary_row(self, tmp_path):
        bundle = ModelBundle.build(d_in=16 * 16, d=8, d_prime=4, n_heads=2, seed=33)
        rng = np.random.default_rng(5)
        pos = rng.uniform(size=(10, 2, 16, 16, 1)).swapaxes(0, 1)
        neg = rng.uniform(size=(10, 2, 16, 16, 1)).swapaxes(0, 1)
        reports = separability_report(bundle, pos, neg)
        out = tmp_path / "separability.csv"
        write_separability_csv(out, reports)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "source,bin_lo,bin_hi,pos_mass,neg_mass"
        assert len(lines) == 1 + 2 * (N_BINS + 1)
        for report, summary in zip(reports, (lines[1 + N_BINS], lines[-1])):
            assert summary.startswith(f"{report.source}:overlap,,,")
            assert float(summary.split(",")[3]) == pytest.approx(report.overlap)
            assert report.positive.sum() == 10 and report.negative.sum() == 10
