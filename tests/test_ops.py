import numpy as np
import pytest

from embdistill.errors import ConfigError, DimensionError
from embdistill.ops import (
    affine_backward,
    affine_forward,
    cross_entropy,
    dropout_mask,
    one_hot,
    softmax_ce_backward,
    softmax_t,
    tanh_backward,
    tanh_forward,
)

from helpers import FD_STEP, FD_TOL, central_difference, rel_error


def naive_affine(w, x, b):
    # independent oracle: explicit sums of products, row by row for a batch
    if x.ndim == 2:
        return np.array([naive_affine(w, row, b) for row in x])
    out = np.zeros(w.shape[0])
    for i in range(w.shape[0]):
        acc = 0.0
        for j in range(w.shape[1]):
            acc += w[i, j] * x[j]
        out[i] = acc + b[i]
    return out


class TestAffine:
    def test_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        out = affine_forward(np.eye(3), x, np.zeros(3))
        assert np.array_equal(out, x)

    def test_zero_weights(self):
        b = np.array([5.0, -1.0])
        out = affine_forward(np.zeros((2, 3)), np.array([9.0, 8.0, 7.0]), b)
        assert np.array_equal(out, b)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for x_shape in ((3,), (6, 3)):  # a vector and a batch
            for _ in range(20):
                w = rng.normal(size=(4, 3))
                x = rng.normal(size=x_shape)
                b = rng.normal(size=4)
                assert np.all(rel_error(affine_forward(w, x, b), naive_affine(w, x, b)) < 1e-6)

    def test_batch_rows_equal_single_rows_bit_for_bit(self):
        rng = np.random.default_rng(4)
        w, x, b = rng.normal(size=(7, 50)), rng.normal(size=(9, 50)), rng.normal(size=7)
        out = affine_forward(w, x, b)
        for i in range(len(x)):
            assert np.array_equal(out[i], affine_forward(w, x[i], b))

    def test_shape_mismatch_names_operands(self):
        with pytest.raises(DimensionError, match="affine_forward"):
            affine_forward(np.zeros((2, 3)), np.zeros(4), np.zeros(2))
        with pytest.raises(DimensionError, match="b has dim"):
            affine_forward(np.zeros((2, 3)), np.zeros(3), np.zeros(5))

    def test_backward_zero_upstream(self):
        rng = np.random.default_rng(1)
        w, x, b = rng.normal(size=(3, 2)), rng.normal(size=2), rng.normal(size=3)
        gw, gx, gb = affine_backward(w, x, b, np.zeros(3))
        assert not gw.any() and not gx.any() and not gb.any()

    def test_backward_scalar_chain_rule(self):
        gw, gx, gb = affine_backward(
            np.array([[2.0]]), np.array([3.0]), np.array([0.5]), np.array([1.0])
        )
        assert gw == np.array([[3.0]])
        assert gx == np.array([2.0])
        assert gb == np.array([1.0])

    def test_backward_shape_mismatch(self):
        with pytest.raises(DimensionError):
            affine_backward(np.zeros((3, 2)), np.zeros(2), np.zeros(3), np.zeros(4))

    def test_backward_matches_finite_differences(self):
        # scalar function: fixed probe dotted with the affine output
        rng = np.random.default_rng(2)
        for lead in ((), (3,)):  # a vector and a batch of 3
            for _ in range(20):
                w = rng.normal(size=(5, 4))
                x = rng.normal(size=lead + (4,))
                b = rng.normal(size=5)
                probe = rng.normal(size=lead + (5,))

                def f(wi, xi, bi):
                    return np.sum(probe * affine_forward(wi, xi, bi))

                gw, gx, gb = affine_backward(w, x, b, probe)
                num_w = central_difference(lambda wi: f(wi, x, b), w.copy())
                num_x = central_difference(lambda xi: f(w, xi, b), x.copy())
                num_b = central_difference(lambda bi: f(w, x, bi), b.copy())
                assert np.all(rel_error(gw, num_w) < FD_TOL)
                assert np.all(rel_error(gx, num_x) < FD_TOL)
                assert np.all(rel_error(gb, num_b) < FD_TOL)


class TestTanh:
    def test_zero_and_unit_slope(self):
        assert np.array_equal(tanh_forward(np.zeros(4)), np.zeros(4))
        u = np.array([0.3, -1.2, 2.0])
        assert np.array_equal(tanh_backward(np.zeros(3), u), u)

    def test_saturation(self):
        out = tanh_forward(np.array([20.0, -20.0, 25.0]))
        assert np.all(np.abs(np.abs(out) - 1.0) < 1e-8)
        assert np.all(np.abs(out) < 1.0) or np.all(np.isfinite(out))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=6)
            probe = rng.normal(size=6)
            ana = tanh_backward(tanh_forward(x), probe)
            num = central_difference(lambda xi: probe @ tanh_forward(xi), x.copy())
            assert np.all(rel_error(ana, num) < FD_TOL)


class TestSoftmaxT:
    def test_uniform_input(self):
        for temp in (0.5, 1.0, 3.0):
            y = softmax_t(np.zeros(3), temp)
            assert np.allclose(y, 1.0 / 3.0, atol=1e-12)

    def test_log_probability_roundtrip(self):
        p = np.array([0.95, 0.04, 0.01])
        y = softmax_t(np.log(p), 1.0)
        assert np.all(np.abs(y - p) < 1e-6)

    def test_temperature_3_softens(self):
        y = softmax_t(np.log([0.95, 0.04, 0.01]), 3.0)
        assert np.all(np.abs(y - np.array([0.64, 0.22, 0.14])) < 0.005)

    def test_invalid_temperature(self):
        with pytest.raises(ConfigError):
            softmax_t(np.zeros(3), 0.0)
        with pytest.raises(ConfigError):
            softmax_t(np.zeros(3), -1.0)

    def test_overflow_safe(self):
        y = softmax_t(np.array([1000.0, 0.0, -1000.0]), 1.0)
        assert np.all(np.isfinite(y))
        assert abs(y.sum() - 1.0) < 1e-6

    def test_sums_to_one_and_open_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            z = rng.normal(scale=3.0, size=7)
            for temp in (1.0, 2.0, 5.0):
                y = softmax_t(z, temp)
                assert abs(y.sum() - 1.0) < 1e-6
                assert np.all(y > 0.0) and np.all(y < 1.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            z = rng.normal(size=6)
            perm = rng.permutation(6)
            assert np.allclose(softmax_t(z[perm], 2.0), softmax_t(z, 2.0)[perm], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            z = rng.normal(size=5)
            c = rng.normal() * 10
            assert np.all(np.abs(softmax_t(z + c, 1.5) - softmax_t(z, 1.5)) < 1e-6)

    def test_argmax_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            z = rng.normal(size=5)
            for temp in (0.5, 1.0, 2.0, 10.0):
                assert np.argmax(softmax_t(z, temp)) == np.argmax(z)

    def test_peak_nonincreasing_in_temperature(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            z = rng.normal(scale=2.0, size=5)
            peaks = [softmax_t(z, t).max() for t in (1, 2, 3, 5, 10)]
            assert all(a >= b - 1e-12 for a, b in zip(peaks, peaks[1:]))

    @pytest.mark.parametrize("temp", [0.5, 1.0, 2.0])
    def test_vector_equals_its_batch_of_one(self, temp):
        rng = np.random.default_rng(9)
        cases = [
            rng.normal(size=5),
            np.array([1.5, -0.3, 1.5, 1.5]),           # tied logits
            np.array([800.0, 800.0, 799.5, -750.0]),   # large, tied
            rng.normal(scale=1e3, size=40),
            np.array([3.0]),
        ]
        for z in cases:
            before = z.copy()
            y = softmax_t(z, temp)
            assert y.shape == z.shape
            assert np.array_equal(y, softmax_t(z[None], temp)[0])
            assert np.array_equal(z, before)


class TestOneHot:
    def test_rows_of_a_batch(self):
        assert np.array_equal(one_hot(np.array([2, 0]), 3), [[0, 0, 1], [1, 0, 0]])

    def test_error_names_only_the_first_bad_index(self):
        with pytest.raises(ConfigError) as info:
            one_hot(np.array([0, 1, 7, 2, 9] * 40), 3)
        assert str(info.value) == "one_hot: index 7 outside [0, 3)"


class TestCrossEntropy:
    def test_perfect_prediction(self):
        t = one_hot(0, 4)
        assert cross_entropy(np.array([1.0, 0, 0, 0]), t) == 0.0

    def test_uniform_predictor(self):
        for n in (2, 5, 10):
            y = np.full(n, 1.0 / n)
            assert abs(cross_entropy(y, one_hot(1 % n, n)) - np.log(n)) < 1e-12

    def test_matches_neg_log_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            y = rng.random(5) + 0.01
            y /= y.sum()
            k = int(rng.integers(0, 5))
            assert abs(cross_entropy(y, one_hot(k, 5)) - (-np.log(y[k]))) < 1e-9

    def test_zero_probability_is_clamped_not_fatal(self):
        y = np.array([0.0, 1.0])
        loss = cross_entropy(y, one_hot(0, 2))
        assert np.isfinite(loss)
        assert loss == pytest.approx(-np.log(1e-12))

    def test_nonnegative(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            y = rng.random(4)
            y /= y.sum()
            t = rng.random(4)
            t /= t.sum()
            assert cross_entropy(y, t) >= 0.0


class TestSoftmaxCeBackward:
    def test_zero_gradient_at_optimum(self):
        z = np.array([0.5, -1.0, 2.0])
        t = softmax_t(z, 1.0)
        assert np.allclose(softmax_ce_backward(z, t, 1.0), 0.0, atol=1e-12)

    def test_two_class_hand_value(self):
        g = softmax_ce_backward(np.zeros(2), one_hot(0, 2), 1.0)
        assert np.allclose(g, [-0.5, 0.5], atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = rng.normal(size=5)
            t = rng.random(5) + 0.05
            t /= t.sum()
            for temp in (1.0, 2.0):
                ana = softmax_ce_backward(z, t, temp)
                num = central_difference(
                    lambda zi: cross_entropy(softmax_t(zi, temp), t), z.copy(), FD_STEP
                )
                assert np.all(rel_error(ana, num) < FD_TOL)

    def test_rejects_unnormalized_target(self):
        with pytest.raises(ConfigError, match="sums to"):
            softmax_ce_backward(np.zeros(3), np.array([0.5, 0.2, 0.1]), 1.0)


class TestDropoutMask:
    def test_zero_rate_all_ones(self):
        rng = np.random.default_rng(12)
        assert np.array_equal(dropout_mask(8, 0.0, rng), np.ones(8))

    def test_zero_fraction_concentrates(self):
        rng = np.random.default_rng(13)
        mask = dropout_mask(100_000, 0.5, rng)
        frac_zero = np.mean(mask == 0.0)
        assert 0.495 <= frac_zero <= 0.505

    def test_inverted_scaling_keeps_unit_mean(self):
        rng = np.random.default_rng(14)
        mask = dropout_mask(100_000, 0.3, rng)
        kept = mask[mask != 0]
        assert np.allclose(kept, 1.0 / 0.7)
        assert abs(mask.mean() - 1.0) < 0.01

    def test_same_seed_same_mask(self):
        a = dropout_mask(64, 0.4, np.random.default_rng(99))
        b = dropout_mask(64, 0.4, np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_invalid_rate(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ConfigError):
            dropout_mask(4, 1.0, rng)
        with pytest.raises(ConfigError):
            dropout_mask(4, -0.1, rng)
