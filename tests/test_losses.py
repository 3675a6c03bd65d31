"""Loss families: fixed example values, penalty properties, aggregation
rules, reduction/equivalence identities, and finite-difference checks."""
import dataclasses
import math

import numpy as np
import pytest

from contrastlab import checks
from contrastlab import losses as L
from contrastlab import tensor as T
from contrastlab.checks import _negcos_instance, _stacks
from contrastlab.errors import ContractViolation, DomainError
from contrastlab.losses import LossConfig
from contrastlab.nets import Mlp, MlpSpec, TempBounds, bounded_sigmoid
from contrastlab.rng import SplitMix64, derive
from contrastlab.tensor import Tensor, backward, finite_diff_check

BOUNDS = TempBounds(1e-5, 2.0)


def rand_tensor(stream, shape):
    n = int(np.prod(shape))
    return Tensor(((2.0 * stream.floats(n) - 1.0) * 2.0).reshape(shape))


class TestCosine:
    def test_identical_unit_vectors(self):
        u = Tensor([0.6, 0.8])
        np.testing.assert_allclose(L.cosine_sim(u, Tensor([0.6, 0.8])).item(), 1.0, atol=1e-12)

    def test_orthogonal(self):
        assert L.cosine_sim(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])).item() == 0.0

    def test_hand_value(self):
        v = Tensor([1.0, 1.0])
        got = L.cosine_sim(Tensor([1.0, 0.0]), v).item()
        assert abs(got - 0.70711) < 1e-5

    def test_unit_distance_identity(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=5)
        v = rng.normal(size=5)
        sim = L.cosine_sim(Tensor(u), Tensor(v)).item()
        un, vn = u / np.linalg.norm(u), v / np.linalg.norm(v)
        np.testing.assert_allclose(np.sum((un - vn) ** 2), 2 - 2 * sim, atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            L.cosine_sim(Tensor([0.0, 0.0]), Tensor([1.0, 0.0]))


class TestTempPenalty:
    def test_log_one_case(self):
        assert L.temp_penalty(Tensor(1.0), 2).item() == 1.0

    def test_minimizer_and_value_d4(self):
        # d/dtau [ (d'/2) log tau + 1/tau ] = d'/(2 tau) - 1/tau^2 = 0 at tau = 2/d'
        val = L.temp_penalty(Tensor(0.5), 4).item()
        np.testing.assert_allclose(val, 2.0 - 2.0 * math.log(2.0), atol=1e-12)

    @pytest.mark.parametrize("d_prime", [2, 64, 128])
    def test_stationary_at_two_over_d(self, d_prime):
        tau = Tensor(2.0 / d_prime)
        assert abs(float(backward(L.temp_penalty(tau, d_prime), [tau])[0])) < 1e-12

    def test_decreasing_then_increasing(self):
        for d_prime in (2, 8, 64):
            grid = np.linspace(1e-3, 4.0, 2000)
            vals = L.temp_penalty(Tensor(grid), d_prime).data
            star = 2.0 / d_prime
            left = grid < star - 1e-3
            right = grid > star + 1e-3
            assert np.all(np.diff(vals[left]) < 0)
            assert np.all(np.diff(vals[right]) > 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            L.temp_penalty(Tensor(0.0), 4)

    @pytest.mark.parametrize("check", [
        pytest.param(lambda tau: L.temp_penalty(tau, 4), id="temp_penalty"),
        pytest.param(lambda tau: L.softmax_negatives(Tensor([0.5, 0.5]), tau, 8), id="softmax_negatives"),
        pytest.param(lambda tau: L.gaussian_density(Tensor([0.5, 0.5]), tau, 8), id="gaussian_density"),
    ])
    def test_nan_next_to_a_non_positive_tau_still_raises(self, check):
        with pytest.raises(DomainError):
            check(Tensor([np.nan, 0.0]))

    @pytest.mark.parametrize("r", [60.0, -60.0], ids=["eta", "eta+iota"])
    def test_nan_next_to_a_temperature_on_a_bound_still_raises(self, r):
        """exp(60) puts iota / (1 + e^r) below half an ulp of eta, and
        exp(-60) puts 1 + e^r at 1, so the sigmoid lands on a bound."""
        with pytest.raises(DomainError, match="temperature escaped"):
            bounded_sigmoid(Tensor([np.nan, r]), BOUNDS)

def unit(*rows):
    """A (k, d') stack of the given rows scaled to unit norm."""
    rows = np.array(rows, dtype=float)
    return Tensor(rows / np.linalg.norm(rows, axis=1, keepdims=True))


def unit_views(views):
    return [(T.l2_normalize(a), T.l2_normalize(b)) for a, b in views]


def random_views(stream, heads, batch=3, d_prime=4):
    """Per-head raw (B, d') view pairs; losses read their unit projections."""
    return [(rand_tensor(stream, (batch, d_prime)), rand_tensor(stream, (batch, d_prime)))
            for _ in range(heads)]


def nce(cfg, projections, temps=None) -> L.LossTerms:
    """In-batch loss terms of per-head (z_a, z_b) pairs, stacked as the
    loss takes them; a non-adaptive cfg defaults to its tau0."""
    return L.nce_loss(cfg, _stacks(projections), cfg.tau0 if temps is None else temps)[0]


def mass_one_negatives():
    """B = 2 with a_k = b_k: each row's positive has similarity 1, and its
    two negatives share similarity -log 2, so their exp-mass at tau = 1
    is exactly one (what a single negative at similarity 0 gives)."""
    s = -math.log(2.0)
    u, v = unit([1.0, 0.0]), unit([s, math.sqrt(1.0 - s * s)])
    z = Tensor(np.vstack([u.data, v.data]))
    return [(z, Tensor(z.data.copy()))]


def baseline_cfg(variant, tau=1.0, **kw):
    return LossConfig(variant=variant, family="baseline", heads=1, temp_mode="constant", tau0=tau,
                      **kw)


class TestBaselineLosses:
    def test_ntxent_single_negative(self):
        # sim+ = 1, negatives' exp-mass 1 (= e^0), tau = 1: -log(e^1/e^0) = -1
        loss = nce(baseline_cfg("ntxent"), mass_one_negatives()).total()
        np.testing.assert_allclose(loss.item(), -1.0, atol=1e-12)

    def test_infonce_single_negative(self):
        loss = nce(baseline_cfg("infonce"), mass_one_negatives()).total()
        np.testing.assert_allclose(loss.item(), math.log(1.0 + math.exp(-1.0)), atol=1e-12)

    def test_negcos_perfect_alignment(self):
        branches = [tuple(Tensor([0.0, 1.0]) for _ in range(4))]
        loss = L.multihead_negcos(baseline_cfg("simsiam"), _stacks(branches), 1.0)[0].total()
        np.testing.assert_allclose(loss.item(), -1.0, atol=1e-12)

    def test_cross_corr_identity_is_zero(self):
        # exactly uncorrelated standardized channels: C = I
        z = Tensor(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]))
        loss = L.multihead_cross_corr(baseline_cfg("barlow", lambd=0.7),
                                      _stacks([(z, Tensor(z.data.copy()))]), 1.0)[0].total()
        np.testing.assert_allclose(loss.item(), 0.0, atol=1e-12)

    def test_cross_corr_requires_standardized(self):
        z = Tensor(np.random.default_rng(0).normal(size=(4, 2)))
        with pytest.raises(ContractViolation):
            L.multihead_cross_corr(baseline_cfg("barlow", lambd=1.0), _stacks([(z, z)]), 1.0)

    def test_ntxent_requires_negatives(self):
        # a batch of one has no in-batch negative
        z = unit([1.0, 0.0])
        with pytest.raises(ContractViolation):
            nce(baseline_cfg("ntxent"), [(z, Tensor(z.data.copy()))])

    def test_standardize_then_check_passes(self):
        rng = np.random.default_rng(1)
        z = L.batch_standardize(Tensor(rng.normal(size=(6, 3)) * 3 + 1))
        L.check_standardized(z.data)


def one_head_cfg(**kw):
    base = dict(variant="ntxent", heads=1, beta=0.0, kappa=1, temp_mode="constant",
                tau0=1.0, neg_agg="topk", bounds=BOUNDS)
    base.update(kw)
    return LossConfig(**base)


class TestMultiheadNtxent:
    def test_single_negative_identity_case(self):
        # a_k = b_k, rows orthogonal: sim+ = 1, hardest negative 0 -> -1
        z = unit([1.0, 0.0], [0.0, 1.0])
        terms = nce(one_head_cfg(), [(z, Tensor(z.data.copy()))])
        np.testing.assert_allclose(terms.total().item(), -1.0, atol=1e-12)

    def test_equal_sims_cancel_per_head(self):
        for heads in (1, 3):
            cfg = one_head_cfg(heads=heads)
            stream = SplitMix64(derive(3, heads))
            views = []
            for _ in range(heads):
                row = rand_tensor(stream, (1, 4)).data
                views.append((unit(row[0], row[0]), unit(row[0], row[0])))
            terms = nce(cfg, views)
            np.testing.assert_allclose(terms.total().item(), 0.0, atol=1e-12)

    def test_unit_penalties_cancel(self):
        # beta = 1, d' = 2, tau+ = tau- = 1: Omega = 1 on both sides
        views = [(unit([1.0, 0.0], [0.5, 0.5]), unit([0.0, 1.0], [0.3, -0.8]))]
        base = nce(one_head_cfg(), views).total().item()
        with_pen = nce(one_head_cfg(beta=1.0), views).total().item()
        np.testing.assert_allclose(with_pen, base, atol=1e-12)

    def test_per_head_additivity(self):
        views = unit_views(random_views(SplitMix64(8), 3))
        total = nce(one_head_cfg(heads=3, beta=0.3, kappa=2), views).total().item()
        cfg1 = one_head_cfg(heads=1, beta=0.3, kappa=2)
        parts = sum(nce(cfg1, [v]).total().item() for v in views)
        np.testing.assert_allclose(total, parts, rtol=1e-12)

    def test_identical_heads_scale_loss(self):
        views = unit_views(random_views(SplitMix64(9), 1))
        one = nce(one_head_cfg(beta=0.2), views).total().item()
        two = nce(one_head_cfg(heads=2, beta=0.2), views * 2).total().item()
        np.testing.assert_allclose(two, 2.0 * one, rtol=1e-12)

    def test_kappa_exceeding_negatives_rejected(self):
        # B = 2 leaves two negatives per anchor
        z = unit([1.0, 0.0], [1.0, 1.0])
        with pytest.raises(ContractViolation):
            nce(one_head_cfg(kappa=3), [(z, Tensor(z.data.copy()))])

    def test_beta_zero_removes_penalty_dependence(self):
        """With beta = 0 and constant temperatures, changing tau moves only
        the similarity-weighted terms; penalty stays exactly zero."""
        views = unit_views(random_views(SplitMix64(10), 1))
        terms = nce(one_head_cfg(beta=0.0, tau0=0.37), views)
        assert terms.omega.item() == 0.0


def gram(views):
    """Similarity matrix over the rows of concat([z_a, z_b]) and each
    row's partner, in numpy."""
    z = np.vstack([t.data for t in views])
    n = z.shape[0]
    return z @ z.T, (np.arange(n) + n // 2) % n


class TestTopK:
    def test_selected_dominate_unselected(self):
        stream = SplitMix64(12)
        values = stream.floats(30).reshape(3, 10)
        idx = L.topk_indices(values, 4)
        for row, sel in zip(values, idx):
            chosen = row[sel]
            rest = np.delete(row, sel)
            assert chosen.min() >= rest.max()

    def test_tie_break_lowest_index(self):
        values = np.array([0.5, 0.9, 0.9, 0.1, 0.9])
        idx = L.topk_indices(values, 2)
        np.testing.assert_array_equal(idx, [1, 2])

    def test_full_set_average(self):
        # kappa = N+1 with constant temperature averages all candidates:
        # B = 3 gives N = 4 negatives plus the positive
        views = unit_views(random_views(SplitMix64(13), 1))
        tau = 0.7
        loss = nce(one_head_cfg(variant="infonce", kappa=5, tau0=tau), views).total().item()
        s, partner = gram(views[0])
        rows = [-s[i, partner[i]] / tau + np.delete(s[i], i).mean() / tau for i in range(6)]
        np.testing.assert_allclose(loss, np.mean(rows), rtol=1e-12)

    def test_set_penalty_dim_factor_flag(self):
        views = unit_views(random_views(SplitMix64(14), 1))
        temp_net = Mlp.init(MlpSpec((4, 4)), seed=2)
        cfg = one_head_cfg(beta=1.0, kappa=2, temp_mode="adaptive")
        with_factor = nce(cfg, views, temp_net)
        cfg_flat = dataclasses.replace(cfg, dim_factor_in_set_penalty=False)
        without = nce(cfg_flat, views, temp_net)
        s, partner = gram(views[0])
        phi = temp_net(Tensor(np.vstack([t.data for t in views[0]]))).data
        taus = BOUNDS.iota / (1.0 + np.exp(phi @ phi.T)) + BOUNDS.eta
        gaps = []
        for i in range(6):
            negatives = [j for j in range(6) if j not in (i, partner[i])]
            sel = sorted(negatives, key=lambda j: -s[i, j])[:2]
            gaps.append((4 / 2 - 1) * np.log(taus[i, sel]).sum())  # (d'/2 - 1) sum log tau
        np.testing.assert_allclose(with_factor.total().item() - without.total().item(),
                                   -np.mean(gaps), rtol=1e-10)


class TestMultiheadInfonce:
    def test_positive_selected_gives_zero(self):
        # sim+ = 1 beats every negative (0); max picks the positive: -1 + 1 = 0
        z = unit([1.0, 0.0], [0.0, 1.0])
        loss = nce(one_head_cfg(variant="infonce"), [(z, Tensor(z.data.copy()))]).total().item()
        np.testing.assert_allclose(loss, 0.0, atol=1e-12)

    def test_reduces_to_ntxent_when_negatives_dominate(self):
        # every row has a negative (~0.995) above its positive (0 or 0.198)
        views = [(unit([1.0, 0.0, 0.0], [1.0, 0.1, 0.0]), unit([0.0, 1.0, 0.0], [0.1, 1.0, 0.0]))]
        a = nce(one_head_cfg(variant="infonce"), views).total().item()
        b = nce(one_head_cfg(variant="ntxent"), views).total().item()
        np.testing.assert_allclose(a, b, rtol=1e-12)


class TestMultiheadNegcos:
    def test_perfect_alignment(self):
        u = Tensor([0.0, 1.0, 0.0])
        branches = [(u, Tensor(u.data.copy()), Tensor(u.data.copy()), Tensor(u.data.copy()))]
        cfg = one_head_cfg(variant="simsiam")
        np.testing.assert_allclose(
            L.multihead_negcos(cfg, _stacks(branches), 1.0)[0].total().item(), -1.0, atol=1e-12)

    def test_stop_gradient_branches_get_zero_gradient(self):
        stream = SplitMix64(15)
        live_a, live_b = rand_tensor(stream, (4,)), rand_tensor(stream, (4,))
        tgt_a, tgt_b = rand_tensor(stream, (4,)), rand_tensor(stream, (4,))
        temp_net = Mlp.init(MlpSpec((4, 4)), seed=3)
        cfg = one_head_cfg(variant="simsiam", beta=0.5, temp_mode="adaptive")
        leaves = [live_a, live_b, tgt_a, tgt_b]
        branches = [(live_a, live_b, tgt_a, tgt_b)]
        g_live_a, _, g_tgt_a, g_tgt_b = backward(
            L.multihead_negcos(cfg, _stacks(branches), temp_net)[0].total(), leaves)
        assert np.all(g_tgt_a == 0.0) and np.all(g_tgt_b == 0.0)
        assert np.abs(g_live_a).max() > 0

    def test_value_sensitive_to_stopped_branch(self):
        """Finite differences see the stop-gradient branch even though the
        analytic gradient is exactly zero."""
        stream = SplitMix64(16)
        live_a, live_b = rand_tensor(stream, (4,)), rand_tensor(stream, (4,))
        tgt_a, tgt_b = rand_tensor(stream, (4,)), rand_tensor(stream, (4,))
        cfg = one_head_cfg(variant="simsiam")

        def value():
            return L.multihead_negcos(cfg, _stacks([(live_a, live_b, tgt_a, tgt_b)]),
                                      1.0)[0].total().item()

        base = value()
        tgt_a.data[0] += 1e-3
        assert abs(value() - base) > 1e-7

    def test_head_loss_needs_a_predictor(self):
        stream = SplitMix64(18)
        pa, pb = rand_tensor(stream, (1, 3, 4)), rand_tensor(stream, (1, 3, 4))
        with pytest.raises(ContractViolation, match="needs a predictor"):
            L.head_loss(one_head_cfg(variant="simsiam"), pa, pb, 0.5)

    def test_two_identical_heads_double_loss(self):
        stream = SplitMix64(17)
        branch = tuple(rand_tensor(stream, (4,)) for _ in range(4))
        one = L.multihead_negcos(one_head_cfg(variant="simsiam", beta=0.4),
                                 _stacks([branch]), 0.7)[0].total().item()
        two = L.multihead_negcos(one_head_cfg(variant="simsiam", beta=0.4, heads=2),
                                 _stacks([branch, branch]), 0.7)[0].total().item()
        np.testing.assert_allclose(two, 2 * one, rtol=1e-12)


def standardized_pair(seed, n=6, d=4):
    stream = SplitMix64(seed)
    za = L.batch_standardize(rand_tensor(stream, (n, d)))
    zb = L.batch_standardize(rand_tensor(stream, (n, d)))
    return Tensor(za.data.copy()), Tensor(zb.data.copy())


class TestMultiheadCrossCorr:
    def test_identity_correlation_zero_loss(self):
        z = Tensor(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]))
        cfg = one_head_cfg(variant="barlow", lambd=0.6)
        terms, _ = L.multihead_cross_corr(cfg, _stacks([(z, Tensor(z.data.copy()))]), 1.0)
        np.testing.assert_allclose(terms.total().item(), 0.0, atol=1e-12)

    def test_lambda_gates_off_diagonals(self):
        za, zb = standardized_pair(18)
        cfg0 = one_head_cfg(variant="barlow", lambd=0.0)
        base = L.multihead_cross_corr(cfg0, _stacks([(za, zb)]), 1.0)[0].total().item()
        # permuting one side's channels changes off-diagonal structure only
        # through the diagonal; with lambda=0 the loss ignores off-diagonals
        terms, _ = L.multihead_cross_corr(cfg0, _stacks([(za, zb)]), 1.0)
        assert terms.neg.item() == 0.0
        assert base == terms.total().item()

    def test_anticorrelated_pair_adds_two(self):
        # one perfectly anticorrelated channel pair contributes 1 to each of
        # the two symmetric off-diagonal entries
        base_cols = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        za = Tensor(np.column_stack([base_cols[:, 0], base_cols[:, 1]]))
        zb = Tensor(np.column_stack([base_cols[:, 1] * -1.0, base_cols[:, 0] * -1.0]))
        cfg = one_head_cfg(variant="barlow", lambd=1.0)
        with_pair = L.multihead_cross_corr(cfg, _stacks([(za, zb)]), 1.0)[0].total().item()
        # diagonals are 0 here: loss = sum (1-0)^2 * 2 + lambda * (1 + 1)
        np.testing.assert_allclose(with_pair, 2.0 + 2.0, atol=1e-12)

    def test_small_batch_rejected(self):
        z = Tensor(np.ones((1, 2)))
        with pytest.raises(ContractViolation):
            L.multihead_cross_corr(one_head_cfg(variant="barlow"), _stacks([(z, z)]), 1.0)


class TestSoftmaxAggregate:
    def test_degenerate_width(self):
        out = L.softmax_negatives(Tensor([1.0]), Tensor([1.0]), d_prime=0)
        np.testing.assert_allclose(out.item(), 0.0, atol=1e-12)

    def test_equal_terms_closed_form(self):
        n, tau, s, d_prime = 7, 0.6, 0.3, 8
        out = L.softmax_negatives(Tensor(np.full(n, s)), Tensor(np.full(n, tau)), d_prime)
        expected = math.log(n) - (d_prime / 2) * math.log(2 * math.pi * tau) + (s - 1) / tau
        np.testing.assert_allclose(out.item(), expected, rtol=1e-12)

    def test_dominant_term(self):
        tau = 0.05
        sims = np.array([0.9, 0.9 - 10 * tau, 0.9 - 12 * tau])
        out = L.softmax_negatives(Tensor(sims), Tensor(np.full(3, tau)), 8).item()
        single = L.softmax_negatives(Tensor(sims[:1]), Tensor([tau]), 8).item()
        assert abs(out - single) < 1e-3

    def test_non_positive_tau_rejected(self):
        with pytest.raises(DomainError):
            L.softmax_negatives(Tensor([0.5]), Tensor([0.0]), 8)

    @pytest.mark.parametrize("s", [0.0, -0.4, -1.0])
    def test_underflowing_rows_match_closed_form(self, s):
        """At tau = 1e-5 and s <= 0 every density exp((s-1)/tau) is far
        below the smallest double; the max-shifted log-sum still gives the
        closed form log n - (d'/2) log(2 pi tau) + (s-1)/tau."""
        n, tau, d_prime = 6, 1e-5, 16
        assert math.exp((s - 1.0) / tau) == 0.0
        sims = Tensor(np.full((2, n), s))
        taus = Tensor(np.full((2, n), tau))
        out = L.softmax_negatives(sims, taus, d_prime)
        expected = math.log(n) - (d_prime / 2) * math.log(2 * math.pi * tau) + (s - 1) / tau
        np.testing.assert_allclose(out.data, expected, rtol=1e-14)
        g_sims, g_taus = backward(T.sum_(out), [sims, taus])
        assert np.all(np.isfinite(g_sims)) and np.all(np.isfinite(g_taus))
        # equal terms: each gets softmax weight 1/n of d/ds [(s-1)/tau]
        np.testing.assert_allclose(g_sims, 1.0 / (n * tau), rtol=1e-12)

    def test_underflowing_row_gradient_picks_the_largest_term(self):
        tau = Tensor(np.full(3, 1e-5))
        sims = Tensor(np.array([-0.2, -0.1, -0.3]))
        out = L.softmax_negatives(sims, tau, 8)
        assert math.isfinite(out.item())
        g_sims, g_tau = backward(out, [sims, tau])
        np.testing.assert_allclose(g_sims, [0.0, 1e5, 0.0], rtol=1e-12, atol=1e-300)
        assert np.all(np.isfinite(g_tau))

    def test_matches_naive_log_sum_where_it_is_representable(self):
        rng = np.random.default_rng(13)
        sims = rng.uniform(-1, 1, size=(4, 7))
        taus = rng.uniform(0.05, 1.5, size=(4, 7))
        naive = np.log(((2 * math.pi * taus) ** -4.0 * np.exp((sims - 1) / taus)).sum(axis=-1))
        out = L.softmax_negatives(Tensor(sims), Tensor(taus), 8)
        np.testing.assert_allclose(out.data, naive, rtol=1e-13)

class TestMleOracle:
    def _instance(self, seed, heads):
        views = random_views(SplitMix64(seed), heads, batch=4, d_prime=8)
        return views, Mlp.init(MlpSpec((8, 8)), derive(seed, "phi"))

    @pytest.mark.parametrize("variant", ["ntxent", "infonce"])
    def test_value_offset_over_random_instances(self, variant):
        for i in range(100):
            heads = 1 + 2 * (i % 2)
            views, temp_net = self._instance(derive(100, variant, i), heads)
            projections = unit_views(views)
            cfg = LossConfig(variant=variant, heads=heads, beta=1.0, temp_mode="adaptive",
                             neg_agg="softmax", bounds=BOUNDS)
            loss = nce(cfg, projections, temp_net).total().item()
            oracle = L.gaussian_ratio_loss(variant, projections, temp_net, BOUNDS).item()
            expected = loss + heads * 4.0 * math.log(2 * math.pi)
            assert abs(oracle - expected) / max(1.0, abs(oracle)) < 1e-8

    def test_gradients_agree(self):
        views, temp_net = self._instance(42, 2)
        cfg = LossConfig(variant="ntxent", heads=2, beta=1.0, temp_mode="adaptive",
                         neg_agg="softmax", bounds=BOUNDS)
        leaves = [t for pair in views for t in pair] + temp_net.params
        projections = unit_views(views)
        g_loss = backward(nce(cfg, projections, temp_net).total(), leaves)
        g_oracle = backward(L.gaussian_ratio_loss("ntxent", projections, temp_net, BOUNDS), leaves)
        for a, b in zip(g_loss, g_oracle):
            assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))) < 1e-8

    def test_symmetric_ratio_is_zero(self):
        # B = 2 in two orthogonal planes: each row's negatives sit at
        # similarity 0 and its positive at tau log 2, so at a constant tau
        # the positive's density equals the negatives' summed density.
        tau = 0.4
        p = tau * math.log(2.0)
        q = math.sqrt(1.0 - p * p)
        z_a = Tensor([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        z_b = Tensor([[p, q, 0.0, 0.0], [0.0, 0.0, p, q]])
        oracle = L.gaussian_ratio_loss("ntxent", [(z_a, z_b)], tau)
        np.testing.assert_allclose(oracle.item(), 0.0, atol=1e-12)


class TestTemperatureGradientFlow:
    """Temperatures are computed from gradient-stopped features: the
    temperature net is trained through them, the features are not."""

    def _instance(self):
        views = random_views(SplitMix64(91), 2, batch=4, d_prime=8)
        return views, Mlp.init(MlpSpec((8, 8)), seed=12)

    @pytest.mark.parametrize("variant", ["ntxent", "simsiam", "barlow"])
    def test_temperature_path_sends_no_gradient_to_features(self, variant):
        """A penalty depends on the features only through the
        temperatures: the features receive exactly zero gradient from it
        while its value still depends on them."""
        stream = SplitMix64(derive(92, variant))
        if variant == "ntxent":
            views, temp_net = self._instance()
            leaves = [t for pair in views for t in pair]
            cfg = LossConfig(variant="ntxent", heads=2, beta=1.0, temp_mode="adaptive",
                             neg_agg="softmax", bounds=BOUNDS)

            def penalty():
                return nce(cfg, unit_views(views), temp_net).omega
        elif variant == "simsiam":
            leaves = [rand_tensor(stream, (5, 8)) for _ in range(4)]
            temp_net = Mlp.init(MlpSpec((8, 8)), seed=13)
            cfg = one_head_cfg(variant="simsiam", temp_mode="adaptive", beta=0.5)

            def penalty():
                return L.multihead_negcos(cfg, _stacks([leaves]), temp_net)[0].omega
        else:
            leaves = [rand_tensor(stream, (6, 4)) for _ in range(2)]
            temp_net = Mlp.init(MlpSpec((6, 6)), seed=14)
            cfg = one_head_cfg(variant="barlow", temp_mode="adaptive", beta=0.5)

            def penalty():
                pairs = tuple(L.batch_standardize(t) for t in _stacks([leaves]))
                return L.multihead_cross_corr(cfg, pairs, temp_net)[0].omega

        omega = penalty()
        grads = backward(omega, leaves + temp_net.params)
        for g in grads[:len(leaves)]:
            assert np.all(g == 0.0)
        assert any(np.abs(g).max() > 0 for g in grads[len(leaves):])
        leaves[0].data[0, 0] += 0.5
        assert penalty().item() != omega.item()


class TestReductionProperty:
    def test_gradient_matches_baseline(self):
        views = random_views(SplitMix64(77), 1, batch=4, d_prime=8)
        leaves = [views[0][0], views[0][1]]
        for beta in (0.0, 0.5, 2.0):
            cfg = LossConfig(variant="ntxent", heads=1, beta=beta, temp_mode="constant",
                             tau0=0.2, neg_agg="softmax")
            g_multi = backward(nce(cfg, unit_views(views)).total(), leaves)
            g_base = backward(nce(baseline_cfg("ntxent", tau=0.2), unit_views(views)).total(), leaves)
            for a, b in zip(g_multi, g_base):
                assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))) < 1e-8


class TestLossGradcheck:
    @pytest.mark.parametrize("variant", ["ntxent", "infonce"])
    @pytest.mark.parametrize("temp_mode", ["constant", "adaptive"])
    @pytest.mark.parametrize("agg,kappa", [("topk", 1), ("topk", 3), ("softmax", 1)])
    def test_nce_variants(self, variant, temp_mode, agg, kappa):
        views = random_views(SplitMix64(derive(55, variant, temp_mode, agg, kappa)), 2,
                             batch=4, d_prime=8)
        temp_net = Mlp.init(MlpSpec((8, 8)), seed=4)
        cfg = LossConfig(variant=variant, heads=2, beta=0.7, kappa=kappa,
                         temp_mode=temp_mode, tau0=0.5, neg_agg=agg, bounds=BOUNDS)
        adaptive = temp_mode == "adaptive"
        params = [t for pair in views for t in pair] + (temp_net.params if adaptive else [])
        temps = temp_net if adaptive else 0.5

        def loss_fn():
            return nce(cfg, unit_views(views), temps).total()

        assert finite_diff_check(loss_fn, params) < 1e-4

    def test_config_validation(self):
        with pytest.raises(ContractViolation):
            LossConfig(variant="unknown")
        with pytest.raises(ContractViolation):
            LossConfig(kappa=0)
        with pytest.raises(ContractViolation):
            LossConfig(family="baseline", heads=2)
        with pytest.raises(ContractViolation):
            LossConfig(family="baseline", temp_mode="adaptive", heads=1)

    @pytest.mark.parametrize("run_seed", [4, 7])
    def test_negcos_check_instances_have_a_direction(self, run_seed):
        # With zero predictor biases these run seeds' negative-cosine
        # instances predicted an exact zero vector, which l2_normalize rejects.
        seed = derive(run_seed, "gradcheck")
        for heads in (1, 3):
            leaves, predictor, _ = _negcos_instance(seed, heads)
            cfg = LossConfig(variant="simsiam", heads=heads, temp_mode="constant", tau0=0.5)
            assert math.isfinite(L.head_loss(cfg, *leaves, 0.5, predictor)[0].total().item())

    def test_negcos_check_feeds_the_predictor_unit_rows(self, monkeypatch):
        """The gradcheck negative-cosine cases run the predictor as
        training does: on (C, B, d') stacks of unit rows."""
        seen = []
        original = checks._negcos_instance

        def recording_instance(*args):
            leaves, predictor, temp_net = original(*args)

            class Recording(Mlp):
                def __call__(self, x):
                    seen.append(x.data.copy())
                    return super().__call__(x)

            return leaves, Recording(predictor.spec, predictor.params), temp_net

        def evaluate_once(loss_fn, params):
            loss_fn()
            return 0.0

        monkeypatch.setattr(checks, "_negcos_instance", recording_instance)
        monkeypatch.setattr(checks, "finite_diff_check", evaluate_once)
        checks.gradcheck_suite()
        assert {x.shape for x in seen} == {(1, 1, 8), (3, 1, 8)}
        for x in seen:
            np.testing.assert_allclose(np.linalg.norm(x, axis=-1), 1.0, rtol=1e-12)
