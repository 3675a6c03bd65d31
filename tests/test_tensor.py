"""Autodiff engine: forward values, gradient rules, stop-gradient
semantics, accumulation, the finite-difference harness, and the AMTD
tensor codec."""

import math
import tracemalloc

import numpy as np
import pytest

from contrastlab import tensor as T
from contrastlab.errors import ContractViolation, DomainError, EvaluationError
from contrastlab.tensor import (Tensor, amtd_decode, amtd_encode, backward,
                                finite_diff_check, stop_gradient)


class TestForwardValues:
    def test_dot_hand_arithmetic(self):
        assert T.dot(Tensor([1.0, 2.0, 3.0]), Tensor([4.0, 5.0, 6.0])).item() == 32.0

    def test_exp_identity(self):
        x = Tensor(0.0)
        y = T.exp(x)
        assert y.item() == 1.0
        assert backward(y, [x])[0] == 1.0

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        out = T.matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_normalize_hand_arithmetic(self):
        out = T.l2_normalize(Tensor([3.0, 4.0]))
        np.testing.assert_allclose(out.data, [0.6, 0.8], atol=1e-15)

    def test_normalize_unit_norm_postcondition(self):
        rng = np.random.default_rng(1)
        out = T.l2_normalize(Tensor(rng.normal(size=(5, 7))))
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)

    def test_normalize_idempotent_on_unit_vector(self):
        u = np.array([0.6, 0.8])
        np.testing.assert_allclose(T.l2_normalize(Tensor(u)).data, u, atol=1e-15)

    def test_normalize_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            T.l2_normalize(Tensor([0.0, 0.0]))


class TestBackward:
    def test_product_rule(self):
        x, y = Tensor(2.0), Tensor(3.0)
        gx, gy = backward(x * y, [x, y])
        assert gx == 3.0 and gy == 2.0

    def test_relu_flat_region(self):
        x = Tensor([-1.0, -2.0, -0.5])
        np.testing.assert_array_equal(backward(T.sum_(T.relu(x)), [x])[0], np.zeros(3))

    def test_log_exp_inverse(self):
        for val in (-1.7, 0.3, 2.0):
            x = Tensor(val)
            np.testing.assert_allclose(backward(T.log(T.exp(x)), [x])[0], 1.0, atol=1e-12)

    def test_root_grad_is_one(self):
        x = Tensor(5.0)
        y = x * 2.0
        assert backward(y, [y])[0] == 1.0

    def test_root_and_interior_nodes_as_requested_leaves(self):
        """The root and an interior node can be requested along with a leaf."""
        x = Tensor(3.0)
        s = x * x
        y = s * 2.0
        gy, gs, gx = backward(y, [y, s, x])
        assert (gy, gs, gx) == (1.0, 2.0, 12.0)

    def test_unreachable_leaf_gets_zeros(self):
        x, other = Tensor([1.0, 2.0]), Tensor(np.ones((2, 3)))
        gx, g_other = backward(T.sum_(x * x), [x, other])
        np.testing.assert_array_equal(gx, [2.0, 4.0])
        np.testing.assert_array_equal(g_other, np.zeros((2, 3)))

    def test_non_scalar_root_rejected(self):
        with pytest.raises(ContractViolation):
            backward(Tensor([1.0, 2.0]), [])

    def test_no_intermediate_gradient_outlives_the_pass(self):
        """A chain of 50 ops on a 1e5-element array: once backward returns,
        it holds the leaf's one gradient array, not one per node, and
        each node's gradient is dropped once passed on, so the pass never
        holds more than a few arrays at a time."""
        x = Tensor(np.linspace(0.5, 1.5, 100_000))
        out = x
        for _ in range(50):
            out = out * 1.0001
        root = T.sum_(out)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            (gx,) = backward(root, [x])
            held, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert gx.shape == x.shape
        assert held < 2 * x.data.nbytes and peak < 4 * x.data.nbytes

    def test_shared_subexpression_counted_once(self):
        x = Tensor(1.5)
        s = x * x
        loss = s + s
        np.testing.assert_allclose(backward(loss, [x])[0], 4.0 * 1.5, atol=1e-12)


class TestStopGradient:
    def test_forward_bitwise_identical(self):
        x = Tensor(np.array([0.1, -2.0, 7.25]))
        out = stop_gradient(x)
        assert out.data is x.data

    def test_grad_through_stopped_branch_is_zero(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        ga, gb = backward(T.dot(a, stop_gradient(b)), [a, b])
        np.testing.assert_array_equal(ga, b.data)
        np.testing.assert_array_equal(gb, np.zeros(2))

    def test_single_path_chain_rule(self):
        a = Tensor([1.0, 2.0])
        np.testing.assert_array_equal(backward(T.dot(stop_gradient(a), a), [a])[0], a.data)


def _naive_grad(node, wrt) -> float:
    """Reference differentiator: recursive chain rule over scalar graphs,
    enumerating every path separately."""
    if node is wrt:
        return 1.0
    if node._grad_fn is None:
        return 0.0
    total = 0.0
    for parent, pg in zip(node._parents, node._grad_fn(np.ones_like(node.data))):
        if pg is not None:
            total += float(pg) * _naive_grad(parent, wrt)
    return total


class TestAccumulationAgainstNaive:
    def test_diamond_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = Tensor(float(rng.uniform(0.2, 2.0)))
            y = Tensor(float(rng.uniform(0.2, 2.0)))
            s = x * y
            t = s + x
            u = T.exp(s * 0.3)
            loss = t * u + T.log(t + 2.0) + s * s
            expected_x = _naive_grad(loss, x)
            expected_y = _naive_grad(loss, y)
            gx, gy = backward(loss, [x, y])
            np.testing.assert_allclose(gx, expected_x, rtol=1e-12)
            np.testing.assert_allclose(gy, expected_y, rtol=1e-12)


class TestBroadcasting:
    def test_leading_batch_broadcast(self):
        a = Tensor(np.ones((4, 3)))
        b = Tensor(np.array([1.0, 2.0, 3.0]))
        out = a + b
        assert out.shape == (4, 3)
        np.testing.assert_array_equal(backward(T.sum_(out), [b])[0], np.full(3, 4.0))

    def test_mismatched_shapes_report_both(self):
        with pytest.raises(ContractViolation, match=r"\(4, 3\).*\(2,\)"):
            Tensor(np.ones((4, 3))) + Tensor(np.ones(2))

    def test_singleton_axis_broadcast_rejected(self):
        with pytest.raises(ContractViolation):
            Tensor(np.ones((4, 3))) + Tensor(np.ones((4, 1)))


class TestStacks:
    """Stacks of matrices along a leading axis: matmul in its three
    stacked forms, last-two-axes transpose, gather from a stack and the
    one-row-per-matrix broadcast of a stacked bias."""

    rng = np.random.default_rng(21)

    def leaf(self, *shape):
        return Tensor(self.rng.uniform(-2, 2, size=shape))

    @pytest.mark.parametrize("sa,sb", [((4, 3), (2, 3, 5)),        # shared input, stacked weights
                                       ((2, 4, 3), (3, 5)),        # stacked input, shared weight
                                       ((2, 4, 3), (2, 3, 4))])    # one product per matrix
    def test_matmul_forms(self, sa, sb):
        a, b = self.leaf(*sa), self.leaf(*sb)
        out = T.matmul(a, b)
        np.testing.assert_array_equal(out.data, np.matmul(a.data, b.data))
        for c in range(2):
            np.testing.assert_array_equal(out.data[c], (a.data[c] if len(sa) == 3 else a.data)
                                          @ (b.data[c] if len(sb) == 3 else b.data))
        weights = self.leaf(*out.shape)
        assert finite_diff_check(lambda: T.sum_(T.mul(T.matmul(a, b), weights)), [a, b]) < 1e-6

    def test_shared_operand_gradient_sums_matrix_by_matrix(self):
        """A 2D operand shared by a stack gets the per-matrix gradients
        added in stack order, each as its own 2D product."""
        a, w = self.leaf(3, 5, 4), self.leaf(4, 6)
        g = self.rng.uniform(-1, 1, size=(3, 5, 6))
        (gw,) = backward(T.sum_(T.reshape(T.mul(T.matmul(a, w), Tensor(g)), (90,))), [w])
        expected = a.data[0].T @ g[0] + a.data[1].T @ g[1] + a.data[2].T @ g[2]
        np.testing.assert_array_equal(gw, expected)

    @pytest.mark.parametrize("sa,sb", [((2, 4, 3), (3, 3, 5)), ((2, 4, 3), (2, 4, 5)),
                                       ((4, 3), (2, 4, 5)), ((1, 2, 4, 3), (3, 5)),
                                       ((3,), (2, 3, 5)), ((2, 4, 3), (3,))])
    def test_matmul_rejects_nonconforming_stacks(self, sa, sb):
        with pytest.raises(ContractViolation):
            T.matmul(self.leaf(*sa), self.leaf(*sb))

    def test_transpose_swaps_last_two_axes(self):
        x = self.leaf(2, 3, 4)
        out = T.transpose(x)
        np.testing.assert_array_equal(out.data, np.swapaxes(x.data, -1, -2))
        assert out.data.flags.c_contiguous
        weights = self.leaf(2, 4, 3)
        assert finite_diff_check(lambda: T.sum_(T.mul(T.transpose(x), weights)), [x]) < 1e-6
        with pytest.raises(ContractViolation):
            T.transpose(self.leaf(3))

    @pytest.mark.parametrize("idx_shape", [(2, 3, 4), (3, 4)])
    def test_gather_from_a_stack(self, idx_shape):
        """Per-matrix index rows, or one (n, k) table shared by every matrix."""
        x = self.leaf(2, 3, 5)
        idx = self.rng.integers(0, 5, size=idx_shape)
        idx[..., 0] = idx[..., 1]                 # a repeated entry scatters twice
        out = T.gather(x, idx)
        np.testing.assert_array_equal(
            out.data, np.take_along_axis(x.data, np.broadcast_to(idx, (2, 3, 4)), axis=-1))
        weights = self.leaf(2, 3, 4)
        assert finite_diff_check(lambda: T.sum_(T.mul(T.gather(x, idx), weights)), [x]) < 1e-6

    @pytest.mark.parametrize("idx", [np.zeros((3, 3, 4), int), np.zeros((2, 4), int),
                                     np.zeros((1, 4), int), np.full((3, 4), 5)])
    def test_gather_rejects_nonconforming_indices(self, idx):
        with pytest.raises(ContractViolation):
            T.gather(self.leaf(2, 3, 5), idx)

    @pytest.mark.parametrize("shape", [(2, 4, 3), (4, 3)])
    def test_row_per_matrix_broadcast(self, shape):
        x, b = self.leaf(*shape), self.leaf(*shape[:-2], 1, 3)
        np.testing.assert_array_equal((x + b).data, x.data + b.data)
        np.testing.assert_array_equal((b * x).data, b.data * x.data)
        weights = self.leaf(*shape)
        assert finite_diff_check(lambda: T.sum_(T.mul(x + b, weights)), [x, b]) < 1e-6
        (gb,) = backward(T.sum_(T.reshape(T.mul(x + b, weights), (x.size,))), [b])
        np.testing.assert_array_equal(gb, weights.data.sum(axis=-2, keepdims=True))

    def test_shared_bias_gradient_sums_rows_then_matrices(self):
        x, b = self.leaf(3, 5, 4), self.leaf(4)
        g = self.rng.uniform(-1, 1, size=(3, 5, 4))
        (gb,) = backward(T.sum_(T.reshape(T.mul(x + b, Tensor(g)), (60,))), [b])
        rows = g.sum(axis=1)
        np.testing.assert_array_equal(gb, rows[0] + rows[1] + rows[2])

    @pytest.mark.parametrize("sa,sb", [((2, 4, 3), (3, 1, 3)), ((2, 4, 3), (2, 2, 3)),
                                       ((2, 4, 3), (2, 1, 1)), ((2, 4, 3), (1, 4, 3))])
    def test_row_broadcast_rejects_other_singletons(self, sa, sb):
        with pytest.raises(ContractViolation):
            self.leaf(*sa) + self.leaf(*sb)


class TestDomainErrors:
    def test_log_non_positive(self):
        with pytest.raises(DomainError):
            T.log(Tensor([1.0, 0.0]))

    def test_divide_by_zero(self):
        with pytest.raises(DomainError):
            Tensor(1.0) / Tensor(0.0)

    def test_negative_fractional_power(self):
        with pytest.raises(DomainError):
            T.pow_const(Tensor(-1.0), 0.5)

    def test_logsumexp_non_finite(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(DomainError):
                T.logsumexp(Tensor([0.0, bad]))


def _gradcheck_unary(op, low=-2.0, high=2.0, shape=(5,), seed=0, strict_positive=False):
    rng = np.random.default_rng(seed)
    data = rng.uniform(low, high, size=shape)
    if strict_positive:
        data = np.abs(data) + 0.2
    x = Tensor(data)
    return finite_diff_check(lambda: T.sum_(op(x)), [x])


class TestPrimitiveGradients:
    """Every gradient rule agrees with central differences to 1e-6 on
    random inputs in [-2, 2] at double precision."""

    def test_add_sub_mul_div(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.uniform(-2, 2, size=(4, 3)))
        b = Tensor(rng.uniform(0.5, 2.0, size=(3,)))
        loss = lambda: T.sum_(T.mul(a + b, a - b) / b + a * 1.7)
        assert finite_diff_check(loss, [a, b]) < 1e-6

    def test_exp_log_relu_sqrt_pow(self):
        assert _gradcheck_unary(T.exp) < 1e-6
        assert _gradcheck_unary(T.log, strict_positive=True) < 1e-6
        assert _gradcheck_unary(lambda x: T.pow_const(x, 3.0)) < 1e-6
        assert _gradcheck_unary(T.sqrt, strict_positive=True) < 1e-6
        # relu: keep probes away from the kink
        rng = np.random.default_rng(5)
        data = rng.uniform(-2, 2, size=(8,))
        data = np.where(np.abs(data) < 0.05, 0.5, data)
        x = Tensor(data)
        assert finite_diff_check(lambda: T.sum_(T.relu(x)), [x]) < 1e-6

    def test_matmul_all_arities(self):
        rng = np.random.default_rng(6)
        m = Tensor(rng.uniform(-2, 2, size=(3, 4)))
        n = Tensor(rng.uniform(-2, 2, size=(4, 2)))
        v = Tensor(rng.uniform(-2, 2, size=(4,)))
        u = Tensor(rng.uniform(-2, 2, size=(3,)))
        assert finite_diff_check(lambda: T.sum_(T.matmul(m, n)), [m, n]) < 1e-6
        assert finite_diff_check(lambda: T.sum_(T.matmul(m, v)), [m, v]) < 1e-6
        assert finite_diff_check(lambda: T.sum_(T.matmul(u, m)), [u, m]) < 1e-6

    def test_reductions_and_reshape(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.uniform(-2, 2, size=(4, 5)))
        assert finite_diff_check(lambda: T.sum_(T.mean(x, axis=0)), [x]) < 1e-6
        assert finite_diff_check(lambda: T.mean(T.sum_(x, axis=-1)), [x]) < 1e-6
        assert finite_diff_check(lambda: T.sum_(T.reshape(x, (2, 10))), [x]) < 1e-6
        assert finite_diff_check(lambda: T.sum_(T.transpose(x) * 0.5), [x]) < 1e-6

    def test_gather_concat_normalize(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.uniform(-2, 2, size=(4, 6)))
        y = Tensor(rng.uniform(-2, 2, size=(4, 2)))
        idx = np.array([[0, 2, 2], [5, 1, 0], [3, 3, 3], [4, 0, 1]])
        assert finite_diff_check(lambda: T.sum_(T.gather(x, idx)), [x]) < 1e-6
        assert finite_diff_check(lambda: T.sum_(T.concat([x, y], axis=1)), [x, y]) < 1e-6
        assert finite_diff_check(lambda: T.sum_(T.l2_normalize(x) * 1.3), [x]) < 1e-6

    def test_logsumexp(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.uniform(-2, 2, size=(3, 5)))
        weights = Tensor(rng.uniform(0.5, 1.5, size=(3,)))
        assert finite_diff_check(lambda: T.sum_(T.mul(T.logsumexp(x), weights)), [x]) < 1e-6
        np.testing.assert_allclose(T.logsumexp(x, axis=0).data,
                                   np.log(np.exp(x.data).sum(axis=0)), rtol=1e-14)

    def test_logsumexp_survives_underflow(self):
        """Terms far below exp's range give log n + shift, and the
        gradient is the (uniform) softmax instead of 0/0."""
        x = Tensor(np.full((2, 4), -2e5))
        out = T.logsumexp(x)
        np.testing.assert_allclose(out.data, -2e5 + math.log(4), rtol=1e-15)
        np.testing.assert_array_equal(backward(T.sum_(out), [x])[0], np.full((2, 4), 0.25))

    def test_dot_and_vector_gather(self):
        rng = np.random.default_rng(10)
        a = Tensor(rng.uniform(-2, 2, size=(6,)))
        b = Tensor(rng.uniform(-2, 2, size=(6,)))
        assert finite_diff_check(lambda: T.dot(a, b), [a, b]) < 1e-6
        idx = np.array([5, 0, 0, 3])
        assert finite_diff_check(lambda: T.sum_(T.gather(a, idx)), [a]) < 1e-6


class TestFiniteDiffCheck:
    def test_quadratic_is_nearly_exact(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-2, 2, size=(6,)))
        err = finite_diff_check(lambda: 0.5 * T.sum_(x * x), [x], h=1e-5)
        assert err < 1e-8

    def test_constant_loss_all_zero(self):
        x = Tensor([1.0, 2.0])
        err = finite_diff_check(lambda: Tensor(3.0) * 1.0, [x])
        assert err == 0.0
        assert np.all(backward(Tensor(3.0) * 1.0, [x])[0] == 0.0)

    def test_step_size_contract(self):
        x = Tensor([1.0])
        with pytest.raises(ContractViolation):
            finite_diff_check(lambda: T.sum_(x), [x], h=1e-2)

    def test_non_finite_loss_rejected(self):
        x = Tensor([0.0])
        with pytest.raises(EvaluationError):
            finite_diff_check(lambda: T.sum_(x) / 0.0 if False else Tensor(np.inf), [x])


class TestHeldStopGradients:
    """A probe holds every stop-gradient value at the base point."""

    def test_stopped_factor_is_a_constant(self):
        x = Tensor([0.3, -1.2, 2.0])
        assert finite_diff_check(lambda: T.sum_(x * stop_gradient(x)), [x]) < 1e-8

    @pytest.mark.parametrize("probe_stops", [
        pytest.param(lambda x: [], id="fewer"),
        pytest.param(lambda x: [x, x], id="more"),
        pytest.param(lambda x: [T.reshape(x, (1, 3))], id="shape"),
    ])
    def test_probe_with_other_stop_gradient_calls_rejected(self, probe_stops):
        x = Tensor([0.3, -1.2, 2.0])
        calls = []

        def loss():
            out = T.sum_(x * x)
            for t in probe_stops(x) if calls else [x]:
                out = out + T.sum_(stop_gradient(t))
            calls.append(1)
            return out

        with pytest.raises(ContractViolation):
            finite_diff_check(loss, [x])

    def test_nested_check_rejected(self):
        x = Tensor([0.5])

        def loss():
            finite_diff_check(lambda: T.sum_(x * x), [x])
            return T.sum_(x * x)

        with pytest.raises(ContractViolation):
            finite_diff_check(loss, [x])

    def test_nothing_held_after_a_check_that_raised(self):
        x = Tensor([0.3, -1.2])
        calls = []

        def loss():
            calls.append(1)
            if len(calls) > 2:
                raise EvaluationError("probe failed")
            return T.sum_(x * stop_gradient(x))

        with pytest.raises(EvaluationError):
            finite_diff_check(loss, [x])
        assert T._held is None and T._replay_at is None
        y = Tensor([1.0, 2.0])
        assert stop_gradient(y).data is y.data
        assert finite_diff_check(lambda: T.sum_(y * y), [y]) < 1e-8


class TestAmtdFormat:
    def test_f32_round_trip(self):
        values = np.array([[0.5, -1.25], [3.0, 255.0]])
        out = amtd_decode(amtd_encode(values, dtype_code=0))
        np.testing.assert_array_equal(out, values)
        assert out.dtype == np.float64

    def test_f64_round_trip_is_bit_exact(self):
        values = np.array([[0.1, -1.0 / 3.0], [np.pi, 1e-300]])
        blob = amtd_encode(values, dtype_code=2)
        assert blob[20] == 2 and len(blob) == 21 + 4 * 8
        assert amtd_decode(blob).tobytes() == values.tobytes()

    def test_u8_round_trip(self):
        values = np.arange(12, dtype=np.uint8).reshape(3, 4)
        out = amtd_decode(amtd_encode(values, dtype_code=1))
        np.testing.assert_array_equal(out, values.astype(np.float64))

    def test_header_layout(self):
        blob = amtd_encode(np.zeros((2, 3), dtype=np.float32), dtype_code=0)
        assert blob[:4] == b"AMTD"
        assert int.from_bytes(blob[4:8], "little") == 1      # version
        assert int.from_bytes(blob[8:12], "little") == 2     # ndim
        assert int.from_bytes(blob[12:16], "little") == 2
        assert int.from_bytes(blob[16:20], "little") == 3
        assert blob[20] == 0                                  # dtype code
        assert len(blob) == 21 + 6 * 4

    def test_malformed_records_rejected(self):
        good = amtd_encode(np.ones(3, dtype=np.float32))
        with pytest.raises(ContractViolation):
            amtd_decode(b"XXXX" + good[4:])
        with pytest.raises(ContractViolation):
            amtd_decode(good[:4] + (99).to_bytes(4, "little") + good[8:])
        with pytest.raises(ContractViolation):
            amtd_decode(good[:-2])
        for cut in (6, 12, 16):   # inside version/ndim, the extents, the dtype byte
            with pytest.raises(ContractViolation, match="truncated AMTD header"):
                amtd_decode(good[:cut])
