import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import test_acceptance
from dfsmn import layers
from dfsmn.layers import (DfsmnLayerParams, dfsmn_layer_forward, fc_layer_backward,
                          fc_layer_forward, layer_backward, memory_block,
                          memory_block_backward, project)
from dfsmn.network import DfsmnLayerSpec, NetworkConfig, StreamSpec
from dfsmn.tensor import Counter64, ShapeError
from dfsmn.trainer import grad_check

# GEMM path against the per-tap loops: the taps are summed in another order,
# so values agree to a tolerance fixed by the dtype (relative to the array's
# largest magnitude).
GEMM_RTOL = {np.dtype(np.float32): 1e-5, np.dtype(np.float64): 1e-12}


@contextmanager
def gemm_path(on: bool = True):
    """Send every memory block, however few its taps, down the GEMM path."""
    with pytest.MonkeyPatch.context() as mp:
        if on:
            mp.setattr(layers, "GEMM_MIN_TAPS", 0)
        yield


def assert_close(got, want, name=""):
    assert got.dtype == want.dtype and got.shape == want.shape, name
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-30)
    assert np.max(np.abs(got - want), initial=0.0) <= GEMM_RTOL[want.dtype] * scale, name


def col(values):
    return np.array(values, dtype=np.float64).reshape(-1, 1)


def random_layer(rng, d_in, d_proj, d_hidden, n_back, n_ahead):
    def mat(r, c, scale=0.5):
        return scale * rng.normal(r * c).reshape(r, c)
    return DfsmnLayerParams(
        proj_weight=mat(d_in, d_proj),
        proj_bias=mat(1, d_proj)[0],
        back_taps=mat(n_back + 1, d_proj),
        ahead_taps=mat(max(n_ahead, 1), d_proj)[:n_ahead],
        out_weight=mat(d_proj, d_hidden),
        out_bias=mat(1, d_hidden)[0],
    )


class TestProject:
    def test_identity(self):
        h = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(project(h, np.eye(2), np.zeros(2)), h)

    def test_sum_with_bias(self):
        out = project(np.array([[1.0, 1.0]]), np.array([[1.0], [1.0]]),
                      np.array([1.0]))
        assert np.array_equal(out, np.array([[3.0]]))

    def test_matches_row_loop(self):
        rng = Counter64(2)
        h = rng.normal(6 * 4).reshape(6, 4)
        w = rng.normal(4 * 3).reshape(4, 3)
        b = rng.normal(3)
        got = project(h, w, b)
        for t in range(6):
            want = w.T @ h[t] + b
            assert np.max(np.abs(got[t] - want)) < 1e-12

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            project(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))


class TestMemoryBlock:
    def test_zero_taps_identity(self):
        p = Counter64(1).normal(12).reshape(4, 3)
        cfg = DfsmnLayerSpec(n_back=2, n_ahead=1, stride_back=1, stride_ahead=1)
        out = memory_block(p, np.zeros((3, 3)), np.zeros((1, 3)), cfg)
        assert np.array_equal(out, p)

    def test_lookback_hand_case(self):
        # taps 0.5 on the current frame and 0.25 one frame back
        cfg = DfsmnLayerSpec(n_back=1)
        out = memory_block(col([1, 2, 3]), col([0.5, 0.25]).reshape(2, 1),
                           np.zeros((0, 1)), cfg)
        assert np.allclose(out, col([1.5, 3.25, 5.0]), atol=0, rtol=0)

    def test_lookahead_hand_case(self):
        cfg = DfsmnLayerSpec(n_back=0, n_ahead=1)
        out = memory_block(col([1, 2, 3]), np.zeros((1, 1)), np.ones((1, 1)), cfg)
        assert np.array_equal(out, col([3, 5, 3]))

    def test_strided_lookback_hand_case(self):
        cfg = DfsmnLayerSpec(n_back=1, stride_back=2)
        taps = np.array([[0.0], [1.0]])
        out = memory_block(col([1, 2, 3, 4]), taps, np.zeros((0, 1)), cfg)
        assert np.array_equal(out, col([1, 2, 4, 6]))

    def test_order_zero_keeps_self_tap(self):
        # with both orders 0 the block is p + tap0*p
        cfg = DfsmnLayerSpec()
        p = col([2.0, -1.0])
        out = memory_block(p, np.array([[0.5]]), np.zeros((0, 1)), cfg)
        assert np.array_equal(out, col([3.0, -1.5]))

    def test_tap_count_mismatch(self):
        with pytest.raises(ShapeError):
            memory_block(col([1, 2]), np.zeros((3, 1)), np.zeros((0, 1)),
                         DfsmnLayerSpec(n_back=1))

    def test_skip_presence_contract(self):
        p = col([1, 2])
        with pytest.raises(ShapeError):
            memory_block(p, np.zeros((1, 1)), np.zeros((0, 1)),
                         DfsmnLayerSpec(skip=True))
        with pytest.raises(ShapeError):
            memory_block(p, np.zeros((1, 1)), np.zeros((0, 1)),
                         DfsmnLayerSpec(), skip_seq=p)

    def test_skip_shape_mismatch(self):
        with pytest.raises(ShapeError):
            memory_block(col([1, 2]), np.zeros((1, 1)), np.zeros((0, 1)),
                         DfsmnLayerSpec(skip=True), skip_seq=col([1, 2, 3]))

    @pytest.mark.parametrize("wide", ["skip", "back", "ahead"])
    def test_dtype_mismatch(self, wide):
        # an fp64 operand on an fp32 sequence would be silently rounded
        p = np.ones((3, 1), np.float32)
        args = {"back": np.zeros((2, 1), np.float32), "ahead": np.zeros((1, 1), np.float32),
                "skip": np.full((3, 1), 1e-9, np.float32)}
        args[wide] = args[wide].astype(np.float64)
        spec = DfsmnLayerSpec(n_back=1, n_ahead=1, skip=True)
        with pytest.raises(ShapeError, match="float64 != projected dtype float32"):
            memory_block(p, args["back"], args["ahead"], spec, args["skip"])

    @pytest.mark.parametrize("order,stride", [(1, 1), (10, 2)])  # walk, GEMM path
    @pytest.mark.parametrize("name,damage,match", [
        ("grad", lambda a: a[1:], r"grad_ptilde shape \(29, 2\) != projected shape \(30, 2\)"),
        ("grad", lambda a: np.ones((30, 3), a.dtype), r"grad_ptilde shape \(30, 3\)"),
        ("grad", lambda a: a.astype(np.float64), "grad_ptilde dtype float64 != projected"),
        ("back", lambda a: a[1:], "back taps shape"),
        ("ahead", lambda a: a.astype(np.float64), "ahead taps dtype float64 != projected"),
    ], ids=["grad-rows", "grad-width", "grad-dtype", "back-shape", "ahead-dtype"])
    def test_backward_checks_args(self, order, stride, name, damage, match):
        spec = DfsmnLayerSpec(n_back=order, n_ahead=order, stride_back=stride,
                              stride_ahead=stride)
        assert (len(layers._tap_offsets(spec)) >= layers.GEMM_MIN_TAPS) == (order == 10)
        p = np.ones((30, 2), np.float32)
        args = {"grad": np.ones_like(p), "back": np.zeros((order + 1, 2), np.float32),
                "ahead": np.zeros((order, 2), np.float32)}
        gp, *_ = memory_block_backward(args["grad"], p, args["back"], args["ahead"], spec)
        assert gp.dtype == p.dtype
        args[name] = damage(args[name])
        with pytest.raises(ShapeError, match=match):
            memory_block_backward(args["grad"], p, args["back"], args["ahead"], spec)

    def test_taps_beyond_sequence_vanish(self):
        # every shifted copy falls off the end: zero padding contributes nothing
        cfg = DfsmnLayerSpec(n_back=3, stride_back=5)
        p = col([1.0, 2.0])
        taps = np.vstack([np.zeros((1, 1)), np.ones((3, 1))])
        assert np.array_equal(memory_block(p, taps, np.zeros((0, 1)), cfg), p)

    @settings(max_examples=25, deadline=None)
    @given(n_back=st.integers(0, 4), stride=st.integers(1, 3),
           seed=st.integers(0, 10_000))
    def test_stride_equivalence(self, n_back, stride, seed):
        # (order, stride) equals (order*stride, 1) with zeros at non-multiples
        rng = Counter64(seed)
        d = 2
        T = 12
        p = rng.normal(T * d).reshape(T, d)
        taps = rng.normal((n_back + 1) * d).reshape(n_back + 1, d)
        dense = np.zeros((n_back * stride + 1, d))
        dense[::stride] = taps
        out_strided = memory_block(p, taps, np.zeros((0, d)),
                                   DfsmnLayerSpec(n_back=n_back, stride_back=stride))
        out_dense = memory_block(p, dense, np.zeros((0, d)),
                                 DfsmnLayerSpec(n_back=n_back * stride, stride_back=1))
        assert np.array_equal(out_strided, out_dense)



class TestPackedBounds:
    # segment lengths include a 1-frame sequence and ones shorter than the
    # tap reach (4 frames back, 2 ahead)
    CFG = DfsmnLayerSpec(n_back=2, n_ahead=2, stride_back=2, stride_ahead=1, skip=True)
    LENGTHS = (6, 1, 3, 2, 9)

    def _arrays(self, seed, T, d=3):
        rng = Counter64(seed)

        def f32(rows):
            return rng.normal(rows * d).reshape(rows, d).astype(np.float32)
        return f32(T), f32(T), f32(T), f32(3), f32(2)

    def _bounds(self):
        ends = np.cumsum(self.LENGTHS).tolist()
        return list(zip([0] + ends[:-1], ends))

    def test_forward_rows_equal_separate_calls(self):
        bounds = self._bounds()
        p, skip, _, back, ahead = self._arrays(21, bounds[-1][1])
        packed = memory_block(p, back, ahead, self.CFG, skip, bounds=bounds)
        for a, b in bounds:
            alone = memory_block(p[a:b], back, ahead, self.CFG, skip[a:b])
            assert packed[a:b].tobytes() == alone.tobytes()

    def test_backward_rows_equal_separate_calls(self):
        bounds = self._bounds()
        p, _, g, back, ahead = self._arrays(22, bounds[-1][1])
        gp, d_back, d_ahead, g_skip = memory_block_backward(
            g, p, back, ahead, self.CFG, bounds=bounds)
        sum_back, sum_ahead = np.zeros_like(back), np.zeros_like(ahead)
        for a, b in bounds:
            gp_s, d_back_s, d_ahead_s, g_skip_s = memory_block_backward(
                g[a:b], p[a:b], back, ahead, self.CFG)
            assert gp[a:b].tobytes() == gp_s.tobytes()
            assert g_skip[a:b].tobytes() == g_skip_s.tobytes()
            sum_back += d_back_s
            sum_ahead += d_ahead_s
        # tap gradients add the per-sequence ones in sequence order
        assert np.array_equal(d_back, sum_back)
        assert np.array_equal(d_ahead, sum_ahead)

    def test_default_is_one_segment(self):
        p, _, g, back, ahead = self._arrays(23, 10)
        cfg = DfsmnLayerSpec(n_back=2, n_ahead=2, stride_back=2)
        assert np.array_equal(memory_block(p, back, ahead, cfg),
                              memory_block(p, back, ahead, cfg, bounds=[(0, 10)]))
        for x, y in zip(memory_block_backward(g, p, back, ahead, cfg),
                        memory_block_backward(g, p, back, ahead, cfg,
                                              bounds=[(0, 10)])):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("bounds", [
        [(0, 3), (4, 6)],          # gap
        [(0, 4), (3, 6)],          # overlap
        [(0, 3), (3, 3), (3, 6)],  # empty segment
        [(0, 5)],                  # stops short of T
        [(0, 3), (3, 7)],          # runs past T
        [(1, 6)],                  # starts after 0
        [],                        # covers nothing
    ])
    def test_malformed_bounds_rejected(self, bounds):
        p, _, g, back, ahead = self._arrays(24, 6)
        cfg = DfsmnLayerSpec(n_back=2, n_ahead=2)
        with pytest.raises(ShapeError, match="bounds"):
            memory_block(p, back, ahead, cfg, bounds=bounds)
        with pytest.raises(ShapeError, match="bounds"):
            memory_block_backward(g, p, back, ahead, cfg, bounds=bounds)


def loop_memory_block(p_seq, back_taps, ahead_taps, spec, skip_seq=None, bounds=None):
    """The per-tap loops the signed-offset walk replaced: a back-tap and an
    ahead-tap loop per segment."""
    out = p_seq.copy()
    if skip_seq is not None:
        out += skip_seq
    for a, b in bounds or [(0, p_seq.shape[0])]:
        p, o, T = p_seq[a:b], out[a:b], b - a
        for i in range(spec.n_back + 1):
            k = i * spec.stride_back
            if k == 0:
                o += back_taps[i] * p
            elif k < T:
                o[k:] += back_taps[i] * p[:-k]
        for j in range(1, spec.n_ahead + 1):
            k = j * spec.stride_ahead
            if k < T:
                o[:-k] += ahead_taps[j - 1] * p[k:]
    return out


def loop_memory_block_backward(grad_ptilde, p_seq, back_taps, ahead_taps, spec,
                               bounds=None):
    """Backward of loop_memory_block, written out per tap kind."""
    gp = grad_ptilde.copy()
    d_back = np.zeros_like(back_taps)
    d_ahead = np.zeros_like(ahead_taps)
    for a, b in bounds or [(0, p_seq.shape[0])]:
        g, p, gps, T = grad_ptilde[a:b], p_seq[a:b], gp[a:b], b - a
        for i in range(spec.n_back + 1):
            k = i * spec.stride_back
            if k == 0:
                gps += back_taps[i] * g
                d_back[i] += (g * p).sum(axis=0)
            elif k < T:
                gps[:-k] += back_taps[i] * g[k:]
                d_back[i] += (g[k:] * p[:-k]).sum(axis=0)
        for j in range(1, spec.n_ahead + 1):
            k = j * spec.stride_ahead
            if k < T:
                gps[k:] += ahead_taps[j - 1] * g[:-k]
                d_ahead[j - 1] += (g[:-k] * p[k:]).sum(axis=0)
    g_skip = grad_ptilde.copy() if spec.skip else None
    return gp, d_back, d_ahead, g_skip


class TestTapWalkMatchesLoops:
    # segments up to 40 frames against a reach of up to 36 frames each way,
    # so some segments are shorter than the reach and some taps fall off;
    # orders up to 12 put some specs on the GEMM path at the default
    # GEMM_MIN_TAPS, and force_gemm sends the rest there too
    @settings(max_examples=120, deadline=None)
    @given(n_back=st.integers(0, 12), n_ahead=st.integers(0, 12),
           stride_back=st.integers(1, 3), stride_ahead=st.integers(1, 3),
           skip=st.booleans(), packed=st.booleans(), force_gemm=st.booleans(),
           lengths=st.lists(st.integers(1, 40), min_size=1, max_size=5),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 10_000))
    @example(n_back=12, n_ahead=6, stride_back=2, stride_ahead=2, skip=True,
             packed=True, force_gemm=False, lengths=[1, 30, 7, 40], dtype=np.float32,
             seed=1)
    @example(n_back=3, n_ahead=2, stride_back=3, stride_ahead=2, skip=False,
             packed=True, force_gemm=True, lengths=[5, 2, 33], dtype=np.float64, seed=2)
    def test_matches_per_tap_loops(self, n_back, n_ahead, stride_back, stride_ahead,
                                   skip, packed, force_gemm, lengths, dtype, seed):
        """Bytes equal to the loops on the walk path, GEMM_RTOL on the GEMM path."""
        spec = DfsmnLayerSpec(n_back=n_back, n_ahead=n_ahead, stride_back=stride_back,
                              stride_ahead=stride_ahead, skip=skip)
        ends = np.cumsum(lengths).tolist()
        T, d = ends[-1], 3
        bounds = list(zip([0] + ends[:-1], ends)) if packed else None
        rng = Counter64(seed)

        def arr(rows):
            return rng.normal(rows * d).reshape(rows, d).astype(dtype)
        p, g, back, ahead = arr(T), arr(T), arr(n_back + 1), arr(n_ahead)
        skip_seq = arr(T) if skip else None

        with gemm_path(force_gemm):
            on_gemm = n_back + 1 + n_ahead >= layers.GEMM_MIN_TAPS
            got = [memory_block(p, back, ahead, spec, skip_seq, bounds=bounds),
                   *memory_block_backward(g, p, back, ahead, spec, bounds=bounds)]
        want = [loop_memory_block(p, back, ahead, spec, skip_seq, bounds=bounds),
                *loop_memory_block_backward(g, p, back, ahead, spec, bounds=bounds)]
        for name, x, y in zip(("out", "d p", "d back", "d ahead"), got, want):
            if on_gemm:
                assert_close(x, y, name)
            else:
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        if skip:
            assert got[4].tobytes() == want[4].tobytes()
        else:
            assert got[4] is None and want[4] is None


class TestGemmPath:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("spec", [
        DfsmnLayerSpec(n_back=2, n_ahead=2, stride_back=2, stride_ahead=1, skip=True),
        DfsmnLayerSpec(n_back=20, n_ahead=4, stride_back=2, stride_ahead=2),
        DfsmnLayerSpec(n_back=9, n_ahead=0, stride_back=3, stride_ahead=1, skip=True),
    ], ids=["gcd1", "gcd2", "causal-gcd3"])
    def test_packed_rows_equal_separate_calls(self, spec, dtype):
        # segments shorter than the reach, one frame long, and spanning
        # several GEMM blocks per phase
        lengths = (6, 1, 3, 40, 2, 75)
        ends = np.cumsum(lengths).tolist()
        bounds = list(zip([0] + ends[:-1], ends))
        rng = Counter64(31)

        def arr(rows, d=4):
            return rng.normal(rows * d).reshape(rows, d).astype(dtype)
        T = ends[-1]
        p, g = arr(T), arr(T)
        skip = arr(T) if spec.skip else None
        back, ahead = arr(spec.n_back + 1), arr(spec.n_ahead)
        with gemm_path():
            out = memory_block(p, back, ahead, spec, skip, bounds=bounds)
            gp, d_back, d_ahead, _ = memory_block_backward(g, p, back, ahead, spec,
                                                           bounds=bounds)
            sum_back, sum_ahead = np.zeros_like(back), np.zeros_like(ahead)
            for a, b in bounds:
                alone = memory_block(p[a:b], back, ahead, spec,
                                     None if skip is None else skip[a:b])
                assert out[a:b].tobytes() == alone.tobytes()
                gp_s, d_back_s, d_ahead_s, _ = memory_block_backward(
                    g[a:b], p[a:b], back, ahead, spec)
                assert gp[a:b].tobytes() == gp_s.tobytes()
                sum_back += d_back_s
                sum_ahead += d_ahead_s
        # the tap gradients sum the segments in another order
        assert_close(d_back, sum_back)
        assert_close(d_ahead, sum_ahead)

    def test_non_finite_frame_stays_in_its_segment(self):
        # no block's input window reaches into another segment, where a zero
        # coefficient times inf would still give nan
        spec = DfsmnLayerSpec(n_back=12, n_ahead=12, stride_back=1, stride_ahead=1)
        bounds = [(0, 17), (17, 20), (20, 45)]
        rng = Counter64(32)
        p = rng.normal(45 * 2).reshape(45, 2)
        back, ahead = rng.normal(26).reshape(13, 2), rng.normal(24).reshape(12, 2)
        p[18] = np.inf
        with gemm_path(), np.errstate(invalid="ignore"):
            out = memory_block(p, back, ahead, spec, bounds=bounds)
            gp = memory_block_backward(p, p, back, ahead, spec, bounds=bounds)[0]
        for x in (out, gp):
            assert np.isfinite(x[:17]).all() and np.isfinite(x[20:]).all()

    @pytest.mark.parametrize("check", [
        test_acceptance.TestCriterion2ReceptiveField().test_empirical_horizon_matches_analytic,
        test_acceptance.TestCriterion9Causality().test_fifty_random_unidirectional_configs,
    ], ids=["criterion2-horizon", "criterion9-causality"])
    def test_acceptance_checks(self, check):
        with gemm_path():
            check()

    def test_grad_check_three_layers(self):
        # 17 and 16 taps: the default GEMM_MIN_TAPS takes the GEMM path
        specs = (DfsmnLayerSpec(hidden=5, proj=3, n_back=8, n_ahead=8, stride_back=1,
                                stride_ahead=2, activation="tanh"),
                 DfsmnLayerSpec(hidden=5, proj=3, n_back=10, n_ahead=5, stride_back=2,
                                stride_ahead=2, skip=True, activation="tanh"),
                 DfsmnLayerSpec(hidden=5, proj=3, n_back=8, n_ahead=8, stride_back=1,
                                stride_ahead=1, skip=True, activation="sigmoid"))
        assert all(s.n_back + 1 + s.n_ahead >= layers.GEMM_MIN_TAPS for s in specs)
        cfg = NetworkConfig(input_dim=3, layers=specs,
                            output_streams=(StreamSpec("y", 2),), precision="fp64")
        rep = grad_check(cfg, frames=40, seed=4)
        assert rep.passed, rep.lines()
        assert {"back_taps", "ahead_taps", "input", "skip"} <= set(rep.max_rel_err)

def layer_output(h_seq, weight, bias, activation):
    """The affine-plus-activation output transform, as fc_layer_forward computes it."""
    return fc_layer_forward(h_seq, weight, bias, activation)[0]


class TestLayerOutput:
    def test_identity_linear(self):
        x = Counter64(3).normal(8).reshape(4, 2)
        assert np.array_equal(layer_output(x, np.eye(2), np.zeros(2), "linear"), x)

    def test_relu(self):
        out = layer_output(np.array([[-1.0, 2.0]]), np.eye(2), np.zeros(2), "relu")
        assert np.array_equal(out, np.array([[0.0, 2.0]]))

    def test_tanh_matches_scalar_loop(self):
        rng = Counter64(4)
        x = rng.normal(6).reshape(3, 2)
        w = rng.normal(4).reshape(2, 2)
        b = rng.normal(2)
        got = layer_output(x, w, b, "tanh")
        for t in range(3):
            for j in range(2):
                want = math.tanh(sum(x[t, r] * w[r, j] for r in range(2)) + b[j])
                assert abs(got[t, j] - want) < 1e-12

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            layer_output(np.zeros((1, 2)), np.eye(2), np.zeros(2), "gelu")


# signed zeros, tiny and large magnitudes, infinities and nan, then normals
EDGE_PRE = np.vstack([[0.0, -0.0, -1.5, -1e-30, 2.5, 1e-30, 40.0, -np.inf, np.inf, np.nan],
                      4.0 * Counter64(5).normal(10)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", layers.ACTIVATIONS)
class TestActivation:
    def test_in_place_bytes_equal_expressions(self, name, dtype):
        pre = EDGE_PRE.astype(dtype)
        with np.errstate(all="ignore"):
            want = {"relu": np.maximum(pre, 0), "tanh": np.tanh(pre),
                    "sigmoid": 1.0 / (1.0 + np.exp(-pre)), "linear": pre.copy()}[name]
            buf = pre.copy()
            got = layers.activate(name, buf)
        assert got is buf
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_grad_from_output_equals_pre_formula(self, name, dtype):
        # what the derivative was computed as while pre-activations were cached
        pre = EDGE_PRE.astype(dtype)
        with np.errstate(all="ignore"):
            out = layers.activate(name, pre.copy())
            want = {"relu": (pre > 0).astype(dtype), "tanh": 1.0 - out * out,
                    "sigmoid": out * (1.0 - out), "linear": np.ones_like(pre)}[name]
            got = layers.activate_grad(name, out)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestDfsmnLayerForward:
    def test_memoryless_identity_is_affine(self):
        params = DfsmnLayerParams(np.eye(3), np.zeros(3), np.zeros((1, 3)),
                                  np.zeros((0, 3)), np.eye(3), np.zeros(3))
        x = Counter64(5).normal(9).reshape(3, 3)
        out, _, ptilde = dfsmn_layer_forward(x, params, DfsmnLayerSpec(activation="linear"))
        assert np.array_equal(out, x)
        assert np.array_equal(ptilde, x)

    def test_composition_is_bit_exact(self):
        rng = Counter64(6)
        params = random_layer(rng, 3, 2, 2, 1, 1)
        cfg = DfsmnLayerSpec(n_back=1, n_ahead=1, activation="relu")
        x = rng.normal(15).reshape(5, 3)
        out, _, ptilde = dfsmn_layer_forward(x, params, cfg)
        p = project(x, params.proj_weight, params.proj_bias)
        pt = memory_block(p, params.back_taps, params.ahead_taps, cfg)
        want = layer_output(pt, params.out_weight, params.out_bias, "relu")
        assert np.array_equal(out, want)
        assert np.array_equal(ptilde, pt)

    def test_direct_summation_oracle(self):
        # independent re-derivation with per-frame scalar loops
        rng = Counter64(9)
        d_in, d_proj, d_hidden, n1, n2 = 3, 2, 2, 1, 1
        params = random_layer(rng, d_in, d_proj, d_hidden, n1, n2)
        cfg = DfsmnLayerSpec(n_back=n1, n_ahead=n2, activation="tanh")
        T = 6
        x = rng.normal(T * d_in).reshape(T, d_in)
        got, _, _ = dfsmn_layer_forward(x, params, cfg)

        def p_at(t):
            if t < 0 or t >= T:
                return np.zeros(d_proj)
            return params.proj_weight.T @ x[t] + params.proj_bias

        for t in range(T):
            ptilde = p_at(t).copy()
            for i in range(n1 + 1):
                ptilde += params.back_taps[i] * p_at(t - i)
            for j in range(1, n2 + 1):
                ptilde += params.ahead_taps[j - 1] * p_at(t + j)
            want = np.tanh(params.out_weight.T @ ptilde + params.out_bias)
            assert np.max(np.abs(got[t] - want)) < 1e-12


class TestFcLayer:
    def test_identity(self):
        x = Counter64(8).normal(6).reshape(2, 3)
        out, _ = fc_layer_forward(x, np.eye(3), np.zeros(3), "linear")
        assert np.array_equal(out, x)

    def test_sum_relu(self):
        out, _ = fc_layer_forward(np.array([[-5.0, 1.0]]),
                                  np.array([[1.0], [1.0]]), np.zeros(1), "relu")
        assert np.array_equal(out, np.array([[0.0]]))

    def test_matches_matmul_oracle(self):
        rng = Counter64(10)
        x = rng.normal(8).reshape(2, 4)
        w = rng.normal(12).reshape(4, 3)
        b = rng.normal(3)
        out, _ = fc_layer_forward(x, w, b, "linear")
        assert np.max(np.abs(out - (x @ w + b))) < 1e-12


def one_wide_caches():
    """The caches of a 1 x 1 memory-block layer and a 1 x 1 fc layer, one frame each."""
    params = DfsmnLayerParams(np.eye(1), np.zeros(1), np.zeros((1, 1)), np.zeros((0, 1)),
                              np.eye(1), np.zeros(1))
    x = np.zeros((1, 1))
    block = dfsmn_layer_forward(x, params, DfsmnLayerSpec(hidden=1, proj=1))[1]
    return block, fc_layer_forward(x, np.eye(1), np.zeros(1), "linear")[1]


# each argument check called with the smallest input that breaks it
ARGUMENT_FAULTS = {
    "activate_grad": (lambda: layers.activate_grad("gelu", np.zeros(1)), ValueError,
                      "unknown activation 'gelu'; expected one of "
                      "('relu', 'tanh', 'sigmoid', 'linear')"),
    "project": (lambda: project(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(2)),
                ShapeError, "bias shape (2,) != (1,)"),
    "fc_layer_forward": (lambda: fc_layer_forward(np.zeros((1, 2)), np.zeros((1, 1)),
                                                  np.zeros(1), "linear"),
                         ShapeError, "fc input dim 2 != weight rows 1"),
    "layer_backward": (lambda: layer_backward(one_wide_caches()[0], np.zeros((2, 1))),
                       ShapeError, "grad shape (2, 1) != output shape (1, 1)"),
    "fc_layer_backward": (lambda: fc_layer_backward(one_wide_caches()[1], np.zeros((2, 1))),
                          ShapeError, "grad shape (2, 1) != output shape (1, 1)"),
    "ahead_taps": (lambda: memory_block(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
                                        DfsmnLayerSpec(proj=1)),
                   ShapeError, "ahead taps shape (1, 1) != (0, 1)"),
}


@pytest.mark.parametrize("case", ARGUMENT_FAULTS)
def test_argument_fault_message(case):
    call, error, message = ARGUMENT_FAULTS[case]
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


def fd_layer_grads(x, params, cfg, skip, grad_out, step=1e-5):
    """Central finite differences of loss = sum(grad_out * output)."""

    def loss():
        out, _, _ = dfsmn_layer_forward(x, params, cfg, skip)
        return float(np.sum(grad_out * out))

    def fd_of(arr):
        g = np.zeros_like(arr)
        for i in range(arr.size):
            old = arr.flat[i]
            arr.flat[i] = old + step
            lp = loss()
            arr.flat[i] = old - step
            lm = loss()
            arr.flat[i] = old
            g.flat[i] = (lp - lm) / (2 * step)
        return g

    return fd_of


class TestLayerBackward:
    def test_zero_grad_gives_zero(self):
        rng = Counter64(12)
        params = random_layer(rng, 3, 2, 4, 1, 1)
        cfg = DfsmnLayerSpec(n_back=1, n_ahead=1, activation="tanh")
        x = rng.normal(12).reshape(4, 3)
        _, cache, _ = dfsmn_layer_forward(x, params, cfg)
        grad_in, g_skip, grads = layer_backward(cache, np.zeros((4, 4)))
        assert not grad_in.any()
        assert g_skip is None
        for f in ("proj_weight", "proj_bias", "back_taps", "ahead_taps",
                  "out_weight", "out_bias"):
            assert not getattr(grads, f).any()

    def test_linear_degenerate_case(self):
        # zero memory, identity output transform: grad_in is grad_out
        # propagated through the projection transpose
        rng = Counter64(13)
        v = rng.normal(6).reshape(3, 2)
        params = DfsmnLayerParams(v, np.zeros(2), np.zeros((1, 2)),
                                  np.zeros((0, 2)), np.eye(2), np.zeros(2))
        x = rng.normal(12).reshape(4, 3)
        _, cache, _ = dfsmn_layer_forward(x, params, DfsmnLayerSpec(activation="linear"))
        g = rng.normal(8).reshape(4, 2)
        grad_in, _, _ = layer_backward(cache, g)
        assert np.max(np.abs(grad_in - g @ v.T)) < 1e-12

    @pytest.mark.parametrize("activation", ["tanh", "sigmoid", "linear"])
    def test_finite_difference_all_classes(self, activation):
        rng = Counter64(14)
        params = random_layer(rng, 3, 2, 3, 2, 1)
        cfg = DfsmnLayerSpec(n_back=2, n_ahead=1, stride_back=2, stride_ahead=2,
                             skip=True, activation=activation)
        T = 7
        x = rng.normal(T * 3).reshape(T, 3)
        skip = rng.normal(T * 2).reshape(T, 2)
        grad_out = rng.normal(T * 3).reshape(T, 3)
        _, cache, _ = dfsmn_layer_forward(x, params, cfg, skip)
        grad_in, g_skip, grads = layer_backward(cache, grad_out)

        fd = fd_layer_grads(x, params, cfg, skip, grad_out)
        pairs = [(grads.proj_weight, params.proj_weight),
                 (grads.proj_bias, params.proj_bias),
                 (grads.back_taps, params.back_taps),
                 (grads.ahead_taps, params.ahead_taps),
                 (grads.out_weight, params.out_weight),
                 (grads.out_bias, params.out_bias),
                 (grad_in, x), (g_skip, skip)]
        for analytic, arr in pairs:
            numeric = fd(arr)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_skip_gradient_is_identity_routed(self):
        # with a linear activation and identity output transform, the gradient
        # reaching the skip input equals grad_out plus the downstream
        # ptilde gradient, untouched
        params = DfsmnLayerParams(np.eye(2), np.zeros(2), np.zeros((1, 2)),
                                  np.zeros((0, 2)), np.eye(2), np.zeros(2))
        cfg = DfsmnLayerSpec(skip=True, activation="linear")
        rng = Counter64(15)
        x = rng.normal(8).reshape(4, 2)
        skip = rng.normal(8).reshape(4, 2)
        _, cache, _ = dfsmn_layer_forward(x, params, cfg, skip)
        g = rng.normal(8).reshape(4, 2)
        extra = rng.normal(8).reshape(4, 2)
        _, g_skip, _ = layer_backward(cache, g, extra)
        assert np.max(np.abs(g_skip - (g + extra))) < 1e-12

    def test_fc_backward_finite_difference(self):
        rng = Counter64(16)
        x = rng.normal(12).reshape(4, 3)
        w = rng.normal(6).reshape(3, 2)
        b = rng.normal(2)
        grad_out = rng.normal(8).reshape(4, 2)
        _, cache = fc_layer_forward(x, w, b, "tanh")
        grad_in, dw, db = fc_layer_backward(cache, grad_out)

        def loss():
            out, _ = fc_layer_forward(x, w, b, "tanh")
            return float(np.sum(grad_out * out))

        step = 1e-6
        for analytic, arr in [(dw, w), (db, b), (grad_in, x)]:
            for i in range(arr.size):
                old = arr.flat[i]
                arr.flat[i] = old + step
                lp = loss()
                arr.flat[i] = old - step
                lm = loss()
                arr.flat[i] = old
                numeric = (lp - lm) / (2 * step)
                assert abs(analytic.flat[i] - numeric) < 1e-6 * max(
                    1.0, abs(numeric))


class TestTemporalProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n_back=st.integers(0, 3),
           stride=st.integers(1, 3), t=st.integers(0, 5))
    def test_causality_bit_exact(self, seed, n_back, stride, t):
        rng = Counter64(seed)
        params = random_layer(rng, 2, 2, 2, n_back, 0)
        cfg = DfsmnLayerSpec(n_back=n_back, stride_back=stride, activation="relu")
        T = 8
        x = rng.normal(T * 2).reshape(T, 2)
        out1, _, _ = dfsmn_layer_forward(x, params, cfg)
        x2 = x.copy()
        x2[t + 1:] += rng.normal((T - t - 1) * 2).reshape(-1, 2)
        out2, _, _ = dfsmn_layer_forward(x2, params, cfg)
        assert np.array_equal(out1[:t + 1], out2[:t + 1])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n_ahead=st.integers(1, 3),
           stride=st.integers(1, 2))
    def test_bounded_lookahead(self, seed, n_ahead, stride):
        rng = Counter64(seed)
        params = random_layer(rng, 2, 2, 2, 1, n_ahead)
        cfg = DfsmnLayerSpec(n_back=1, n_ahead=n_ahead, stride_ahead=stride,
                             activation="tanh")
        horizon = n_ahead * stride
        T = horizon + 6
        t = 2
        x = rng.normal(T * 2).reshape(T, 2)
        out1, _, _ = dfsmn_layer_forward(x, params, cfg)
        x2 = x.copy()
        x2[t + horizon + 1:] += 1.0
        out2, _, _ = dfsmn_layer_forward(x2, params, cfg)
        assert np.array_equal(out1[:t + 1], out2[:t + 1])

    def test_preactivation_skip_additivity(self):
        # for nonlinear activations the skip contribution is additive before
        # the nonlinearity: pre_skip = pre_noskip + skip @ out_weight, each
        # pre-activation rebuilt from the cached memory-block sum
        rng = Counter64(17)
        params = random_layer(rng, 3, 2, 3, 1, 1)
        cfg_skip = DfsmnLayerSpec(n_back=1, n_ahead=1, skip=True, activation="relu")
        cfg_plain = DfsmnLayerSpec(n_back=1, n_ahead=1, skip=False, activation="relu")
        x = rng.normal(15).reshape(5, 3)
        skip = rng.normal(10).reshape(5, 2)
        _, cache_s, _ = dfsmn_layer_forward(x, params, cfg_skip, skip)
        _, cache_p, _ = dfsmn_layer_forward(x, params, cfg_plain)

        def pre(cache):
            return cache.ptilde_seq @ params.out_weight + params.out_bias

        want = pre(cache_p) + skip @ params.out_weight
        assert np.max(np.abs(pre(cache_s) - want)) < 1e-12

    def test_linear_skip_full_additivity(self):
        rng = Counter64(18)
        params = random_layer(rng, 3, 2, 3, 1, 0)
        cfg_skip = DfsmnLayerSpec(n_back=1, skip=True, activation="linear")
        cfg_plain = DfsmnLayerSpec(n_back=1, skip=False, activation="linear")
        x = rng.normal(15).reshape(5, 3)
        skip = rng.normal(10).reshape(5, 2)
        out_s, _, _ = dfsmn_layer_forward(x, params, cfg_skip, skip)
        out_p, _, _ = dfsmn_layer_forward(x, params, cfg_plain)
        # pure-skip contribution passes through the output weights only
        assert np.max(np.abs(out_s - (out_p + skip @ params.out_weight))) < 1e-12
