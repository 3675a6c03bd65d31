"""Networks: seeded init, the multi-head forward contract, bounded
adaptive temperatures, and checkpoint round-trips."""
import numpy as np
import pytest

from contrastlab import tensor as T
from contrastlab.errors import ContractViolation, DomainError
from contrastlab.nets import (Mlp, MlpSpec, ModelBundle, TempBounds, adaptive_temperature,
                              bounded_sigmoid, forward_views, load_bundle, save_bundle)
from contrastlab.tensor import Tensor, backward, finite_diff_check

BOUNDS = TempBounds(1e-5, 2.0)


class TestInit:
    def test_same_seed_bitwise_identical(self):
        spec = MlpSpec((5, 8, 3))
        a = Mlp.init(spec, seed=42)
        b = Mlp.init(spec, seed=42)
        for pa, pb in zip(a.params, b.params):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_distinct_head_seeds_give_distinct_parameters(self):
        bundle = ModelBundle.build(d_in=6, d=8, d_prime=4, n_heads=3, seed=7)
        w = bundle.heads.params[0].data
        assert w.shape == (3, 8, 8)
        assert not np.array_equal(w[0], w[1])

    def test_he_uniform_variance(self):
        mlp = Mlp.init(MlpSpec((100, 100)), seed=3)
        w = mlp.params[0].data
        assert w.size == 10_000
        assert abs(w.var() / (2.0 / 100) - 1.0) < 0.2

    def test_biases_zero(self):
        mlp = Mlp.init(MlpSpec((4, 7, 2)), seed=1)
        np.testing.assert_array_equal(mlp.params[1].data, np.zeros(7))
        np.testing.assert_array_equal(mlp.params[3].data, np.zeros(2))

    def test_spec_validation(self):
        with pytest.raises(ContractViolation):
            MlpSpec((4,))
        with pytest.raises(ContractViolation):
            MlpSpec((4, 0, 2))


class TestMlpForward:
    def test_width_mismatch_rejected(self):
        mlp = Mlp.init(MlpSpec((4, 3)), seed=0)
        with pytest.raises(ContractViolation):
            mlp(Tensor(np.ones((2, 5))))

    def test_gradcheck_through_two_layers(self):
        mlp = Mlp.init(MlpSpec((4, 6, 3)), seed=9)
        x = Tensor(np.linspace(-1, 1, 8).reshape(2, 4))
        params = mlp.params + [x]
        assert finite_diff_check(lambda: T.sum_(T.mul(mlp(x), mlp(x))), params) < 1e-6


class TestForwardViews:
    def _bundle(self):
        return ModelBundle.build(d_in=6, d=8, d_prime=4, n_heads=3, seed=11)

    def test_identical_inputs_give_identical_projections(self):
        bundle = self._bundle()
        x = Tensor(np.linspace(0, 1, 12).reshape(2, 6))
        _, _, p, p_pos = forward_views(bundle, x, Tensor(x.data.copy()))
        assert p.shape == (3, 2, 4)
        np.testing.assert_array_equal(p.data, p_pos.data)

    def test_projections_unit_norm(self):
        """forward_views returns raw head outputs; the unit projections the
        in-batch losses read are their row-normalized stacks."""
        bundle = self._bundle()
        rng = np.random.default_rng(0)
        _, _, p, p_pos = forward_views(bundle, Tensor(rng.normal(size=(5, 6))),
                                       Tensor(rng.normal(size=(5, 6))))
        for z in (T.l2_normalize(p), T.l2_normalize(p_pos)):
            assert z.shape == (3, 5, 4)
            np.testing.assert_allclose(np.linalg.norm(z.data, axis=-1), 1.0, atol=1e-12)
        assert np.abs(np.linalg.norm(p.data, axis=-1) - 1.0).max() > 1e-3

    def test_three_heads_give_three_distinct_pairs(self):
        bundle = self._bundle()
        rng = np.random.default_rng(1)
        _, _, p, _ = forward_views(bundle, Tensor(rng.normal(size=(3, 6))),
                                   Tensor(rng.normal(size=(3, 6))))
        assert p.shape[0] == bundle.n_heads == 3
        for c in range(3):
            for c2 in range(c + 1, 3):
                assert not np.array_equal(p.data[c], p.data[c2])

    def test_batch_extent_mismatch_rejected(self):
        bundle = self._bundle()
        with pytest.raises(ContractViolation):
            forward_views(bundle, Tensor(np.ones((2, 6))), Tensor(np.ones((3, 6))))

    def test_head_independence(self):
        bundle = self._bundle()
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 6)))
        _, _, before, _ = forward_views(bundle, x, x)
        bundle.heads.params[0].data[1] += 0.25
        _, _, after, _ = forward_views(bundle, x, x)
        assert not np.array_equal(before.data[1], after.data[1])
        np.testing.assert_array_equal(before.data[0], after.data[0])
        np.testing.assert_array_equal(before.data[2], after.data[2])


class TestAdaptiveTemperature:
    def test_zero_inner_product_midpoint(self):
        # zeroed temperature net makes <phi(u), phi(v)> = 0 exactly
        temp_net = Mlp.init(MlpSpec((4, 4)), seed=0)
        temp_net.params[0].data[:] = 0.0
        tau = adaptive_temperature(Tensor([[1.0, 0, 0, 0]]), Tensor([[0, 1.0, 0, 0]]),
                                   temp_net, BOUNDS)
        np.testing.assert_allclose(tau.item(), 1.00001, atol=1e-12)

    def test_limits_approach_bounds(self):
        lo = bounded_sigmoid(Tensor(30.0), BOUNDS).item()
        hi = bounded_sigmoid(Tensor(-30.0), BOUNDS).item()
        assert BOUNDS.eta < lo < BOUNDS.eta + 1e-12
        assert BOUNDS.eta + BOUNDS.iota - 1e-12 < hi < BOUNDS.eta + BOUNDS.iota

    def test_saturated_value_rejected_at_emission(self):
        with pytest.raises(DomainError):
            bounded_sigmoid(Tensor(1000.0), BOUNDS)

    def test_strictly_decreasing_on_grid(self):
        grid = np.arange(-10.0, 11.0)
        values = bounded_sigmoid(Tensor(grid), BOUNDS).data
        assert np.all(np.diff(values) < 0)

    def test_emitted_range_strictly_inside(self):
        rng = np.random.default_rng(3)
        temp_net = Mlp.init(MlpSpec((4, 4)), seed=5)
        u = Tensor(rng.normal(size=(50, 4)))
        v = Tensor(rng.normal(size=(50, 4)))
        tau = adaptive_temperature(u, v, temp_net, BOUNDS)
        assert np.all(tau.data > BOUNDS.eta)
        assert np.all(tau.data < BOUNDS.eta + BOUNDS.iota)

    def test_width_mismatch_rejected(self):
        temp_net = Mlp.init(MlpSpec((4, 4)), seed=5)
        with pytest.raises(ContractViolation):
            adaptive_temperature(Tensor(np.ones((1, 3))), Tensor(np.ones((1, 3))), temp_net, BOUNDS)

    def test_differentiable_wrt_net_not_inputs(self):
        """phi's parameters pass a finite-difference check; the inputs get
        exactly zero gradient although the value depends on them."""
        rng = np.random.default_rng(4)
        temp_net = Mlp.init(MlpSpec((4, 4)), seed=6)
        u = Tensor(rng.normal(size=(1, 4)))
        v = Tensor(rng.normal(size=(1, 4)))
        assert finite_diff_check(
            lambda: adaptive_temperature(u, v, temp_net, BOUNDS), temp_net.params) < 1e-6
        before = adaptive_temperature(u, v, temp_net, BOUNDS)
        gu, gv = backward(before, [u, v])
        assert np.all(gu == 0.0) and np.all(gv == 0.0)
        u.data[0, 0] += 0.1
        assert adaptive_temperature(u, v, temp_net, BOUNDS).item() != before.item()

    def test_bounds_validation(self):
        with pytest.raises(ContractViolation):
            TempBounds(0.0, 1.0)
        with pytest.raises(ContractViolation):
            TempBounds(1e-5, 0.0)


class TestTempNetSharing:
    def test_gradient_accumulates_over_heads(self):
        """The shared net's gradient under the summed loss equals the sum
        of single-head gradients and is nonzero for generic inputs."""
        rng = np.random.default_rng(7)
        temp_net = Mlp.init(MlpSpec((4, 4)), seed=8)
        us = [Tensor(rng.normal(size=(1, 4))) for _ in range(3)]
        vs = [Tensor(rng.normal(size=(1, 4))) for _ in range(3)]

        def tau_sum(indices):
            total = None
            for c in indices:
                tau = adaptive_temperature(us[c], vs[c], temp_net, BOUNDS)
                total = tau if total is None else total + tau
            return total

        full = backward(tau_sum(range(3)), temp_net.params)
        parts = [backward(tau_sum([c]), temp_net.params) for c in range(3)]
        for k, g_full in enumerate(full):
            np.testing.assert_allclose(g_full, sum(p[k] for p in parts), rtol=1e-10, atol=1e-12)
        assert any(np.abs(g).max() > 0 for g in full)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        bundle = ModelBundle.build(d_in=6, d=8, d_prime=4, n_heads=2, seed=21,
                                   with_predictor=True, temp_width=16)
        path = tmp_path / "ckpt.bin"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        assert loaded.n_heads == 2
        assert loaded.predictor is not None and loaded.temp_net.spec.widths == (16, 16)
        for orig, back in zip(bundle.parameters(), loaded.parameters()):
            assert back.data.tobytes() == orig.data.tobytes()

    def test_float32_checkpoint_still_loads(self, tmp_path, monkeypatch):
        """Checkpoints written before AMTD dtype code 2 stored float32."""
        bundle = ModelBundle.build(d_in=6, d=8, d_prime=4, n_heads=2, seed=21)
        path = tmp_path / "ckpt.bin"
        encode = T.amtd_encode
        monkeypatch.setattr(T, "amtd_encode", lambda values, dtype_code: encode(values, 0))
        save_bundle(bundle, path)
        monkeypatch.undo()
        loaded = load_bundle(path)
        for orig, back in zip(bundle.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(back.data, orig.data.astype(np.float32).astype(np.float64))

    def test_forward_agreement_after_reload(self, tmp_path):
        bundle = ModelBundle.build(d_in=6, d=8, d_prime=4, n_heads=1, seed=22)
        path = tmp_path / "ckpt.bin"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        x = Tensor(np.linspace(-1, 1, 6).reshape(1, 6))
        np.testing.assert_allclose(loaded.encoder(x).data, bundle.encoder(x).data,
                                   rtol=1e-6, atol=1e-6)
