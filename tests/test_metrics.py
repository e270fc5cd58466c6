import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsmn.metrics import bapd, f0_rmse, mcd, total_mse, uv_error
from dfsmn.tensor import Counter64, ShapeError

K_DB = 10.0 / math.log(10.0)


class TestMcd:
    def test_identical_is_zero(self):
        x = Counter64(2).normal(120).reshape(2, 60)
        assert mcd(x, x) == 0.0

    def test_single_coefficient_delta(self):
        ref = np.zeros((1, 60))
        hyp = np.zeros((1, 60))
        hyp[0, 1] = 0.7
        assert abs(mcd(ref, hyp) - K_DB * math.sqrt(2.0) * 0.7) < 1e-12

    def test_energy_coefficient_excluded(self):
        ref = np.zeros((3, 10))
        hyp = np.zeros((3, 10))
        hyp[:, 0] = 99.0
        assert mcd(ref, hyp) == 0.0

    def test_matches_loop_oracle(self):
        rng = Counter64(3)
        ref = rng.normal(5 * 8).reshape(5, 8)
        hyp = rng.normal(5 * 8).reshape(5, 8)
        acc = 0.0
        for t in range(5):
            s = sum((ref[t, i] - hyp[t, i]) ** 2 for i in range(1, 8))
            acc += K_DB * math.sqrt(2.0 * s)
        want = acc / 5
        assert abs(mcd(ref, hyp) - want) / want < 1e-10

    def test_frame_count_mismatch(self):
        with pytest.raises(ShapeError):
            mcd(np.zeros((2, 5)), np.zeros((3, 5)))

    def test_permutation_invariance(self):
        rng = Counter64(4)
        ref = rng.normal(40).reshape(5, 8)
        hyp = rng.normal(40).reshape(5, 8)
        perm = [3, 1, 4, 0, 2]
        assert abs(mcd(ref, hyp) - mcd(ref[perm], hyp[perm])) < 1e-12


class TestF0Rmse:
    def test_perfect_prediction(self):
        # exp(0) == 1 exactly; log/exp round trips only approximately
        assert f0_rmse(np.array([1.0]), np.array([[0.0]]),
                       np.ones(1), np.ones(1)) == 0.0
        ref_hz = np.array([100.0, 200.0])
        hyp_lf0 = np.log(ref_hz).reshape(-1, 1)
        assert f0_rmse(ref_hz, hyp_lf0, np.ones(2), np.ones(2)) < 1e-10

    def test_hand_case_10hz(self):
        value = f0_rmse(np.array([100.0]), np.array([[math.log(110.0)]]),
                        np.ones(1), np.ones(1))
        assert abs(value - 10.0) < 1e-9

    def test_matches_masked_loop_oracle(self):
        rng = Counter64(6)
        T = 40
        ref_hz = 120.0 + 10.0 * rng.normal(T)
        hyp_lf0 = np.log(120.0) + 0.05 * rng.normal(T)
        ref_uv = (rng.uniform(T) > 0.3).astype(float)
        hyp_uv = (rng.uniform(T) > 0.3).astype(float)
        got = f0_rmse(ref_hz, hyp_lf0.reshape(-1, 1), ref_uv, hyp_uv)
        acc, n = 0.0, 0
        for t in range(T):
            if ref_uv[t] >= 0.5 and hyp_uv[t] >= 0.5:
                acc += (math.exp(hyp_lf0[t]) - ref_hz[t]) ** 2
                n += 1
        want = math.sqrt(acc / n)
        assert abs(got - want) / want < 1e-10

    def test_unvoiced_values_ignored(self):
        ref_hz = np.array([1.0, 55555.0])
        lf0 = np.array([[0.0], [17.0]])
        uv = np.array([1.0, 0.0])
        assert f0_rmse(ref_hz, lf0, uv, np.ones(2)) == 0.0

    def test_no_common_voiced_frame(self):
        with pytest.raises(ValueError):
            f0_rmse(np.array([100.0, 100.0]), np.zeros((2, 1)),
                    np.array([1.0, 0.0]), np.array([0.0, 1.0]))


class TestUvError:
    def test_perfect(self):
        assert uv_error(np.array([1.0, 0.0]), np.array([0.9, 0.1])) == 0.0

    def test_all_flipped(self):
        assert uv_error(np.array([1.0, 0.0]), np.array([0.1, 0.9])) == 1.0

    def test_half_mismatched(self):
        ref = np.array([1.0, 1.0, 0.0, 0.0])
        hyp = np.array([0.9, 0.2, 0.8, 0.1])
        assert uv_error(ref, hyp) == 0.5

    def test_threshold_boundary(self):
        # probability exactly at the threshold counts as voiced
        assert uv_error(np.array([1.0]), np.array([0.5])) == 0.0


class TestBapd:
    def test_identical_is_zero(self):
        x = Counter64(7).normal(33).reshape(3, 11)
        assert bapd(x, x) == 0.0

    def test_uniform_offset(self):
        ref = np.zeros((1, 11))
        hyp = np.full((1, 11), 0.37)
        assert abs(bapd(ref, hyp) - 0.37) < 1e-12

    def test_matches_loop_oracle(self):
        rng = Counter64(8)
        ref = rng.normal(44).reshape(4, 11)
        hyp = rng.normal(44).reshape(4, 11)
        acc = 0.0
        for t in range(4):
            acc += math.sqrt(sum((ref[t, i] - hyp[t, i]) ** 2
                                 for i in range(11)) / 11)
        want = acc / 4
        assert abs(bapd(ref, hyp) - want) / want < 1e-10

    def test_frame_mismatch(self):
        with pytest.raises(ShapeError):
            bapd(np.zeros((2, 11)), np.zeros((4, 11)))


class TestTotalMse:
    def test_identical_is_zero(self):
        streams = {"a": np.ones((2, 3)), "b": np.zeros((2, 1))}
        assert total_mse(streams, streams) == 0.0

    def test_two_dims_one_frame(self):
        ref = {"a": np.array([[0.0, 0.0]])}
        hyp = {"a": np.array([[1.0, -1.0]])}
        assert total_mse(ref, hyp) == 1.0

    def test_pooled_per_dim_convention(self):
        # pooled MSE equals the scalar-count weighted combination of
        # per-stream means, which relates it to the unit-weight training loss
        from dfsmn.trainer import multitask_mse
        rng = Counter64(9)
        ref = {"a": rng.normal(12).reshape(3, 4), "b": rng.normal(6).reshape(3, 2)}
        hyp = {"a": rng.normal(12).reshape(3, 4), "b": rng.normal(6).reshape(3, 2)}
        pooled = total_mse(ref, hyp)
        loss = multitask_mse(hyp, ref)
        mean_a = float(np.mean((ref["a"] - hyp["a"]) ** 2))
        mean_b = float(np.mean((ref["b"] - hyp["b"]) ** 2))
        assert abs(loss - (mean_a + mean_b)) < 1e-12
        want = (12 * mean_a + 6 * mean_b) / 18
        assert abs(pooled - want) / want < 1e-12

    def test_name_mismatch(self):
        with pytest.raises(ShapeError):
            total_mse({"a": np.zeros((1, 1))}, {"b": np.zeros((1, 1))})


class TestMeasureProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100000))
    def test_nonnegative_and_zero_iff_identical(self, seed):
        rng = Counter64(seed)
        ref = rng.normal(30).reshape(5, 6)
        hyp = rng.normal(30).reshape(5, 6)
        assert mcd(ref, hyp) > 0
        assert bapd(ref, hyp) > 0
        assert total_mse({"x": ref}, {"x": hyp}) > 0
        assert mcd(ref, ref) == 0.0
        assert bapd(ref, ref) == 0.0
