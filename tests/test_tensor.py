import hashlib
import math
import sys
import threading

import numpy as np
import pytest

from dfsmn import tensor
from dfsmn.network import build_network, expand_shorthand, iter_tensors
from dfsmn.tensor import (NORMAL_CHUNK, Counter64, ShapeError, as_sequence, derive_seed,
                          seeded_normal)


def libm_fill(self, seed, start, dst, stddev):
    """_NormalPieces.fill with the Box-Muller angle's cos and sin taken from
    numpy's libm: the reference the table-angle fill is held to."""
    slots = dst.size + dst.size % 2
    rng = Counter64(seed)
    rng.counter = start
    u = ((rng.next_uint64(slots) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    r = np.sqrt(np.log(u[0::2]) * -2.0)
    theta = u[1::2] * (2.0 * math.pi)
    normals = np.empty(slots)
    normals[0::2] = r * np.cos(theta)
    normals[1::2] = r * np.sin(theta)
    np.multiply(normals[:dst.size], stddev, out=dst)


class TestTableAngle:
    """The fill takes each Box-Muller angle as a table angle plus a short
    Taylor remainder; it stays within a few fp64 ulps of libm's cos and sin."""

    def test_fp64_normals_within_1e14_of_libm(self):
        n = 120001  # odd: the draw pairs its last value with a spare slot
        worst = 0.0
        for seed in (0, 1234, 2**63 + 7):
            for offset in (0, 1, 7):
                rng = Counter64(seed)
                rng.counter = offset
                want = np.empty(n)
                libm_fill(None, seed, offset, want, 1.0)
                worst = max(worst, np.abs(rng.normal(n) - want).max())
        assert 9 * n > 10**6
        assert worst <= 1e-14

    def test_fp32_init_moves_at_most_a_handful_of_values_by_one_ulp(self, monkeypatch):
        # 4.2M fp32 values; orders 10,10 take the memory block's GEMM path
        cfg = expand_shorthand("3+1", "10,10,1,1", hidden=1024, proj=512)
        got = build_network(cfg, 11)
        monkeypatch.setattr(tensor._NormalPieces, "fill", libm_fill)
        want = build_network(cfg, 11)
        moved = 0
        for (_, _, a), (_, _, b) in zip(iter_tensors(cfg, got), iter_tensors(cfg, want)):
            assert a.dtype == np.float32
            ulps = np.abs(a.view(np.int32).astype(np.int64) - b.view(np.int32))
            assert ulps.max() <= 1
            moved += np.count_nonzero(ulps)
        assert moved <= 5


class TestSeededNormal:
    def test_same_seed_bit_identical(self):
        a = seeded_normal(123, 10, 10)
        b = seeded_normal(123, 10, 10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(seeded_normal(1, 5, 5), seeded_normal(2, 5, 5))

    @pytest.mark.parametrize("rows,cols", [(0, 1), (1, 0)])
    def test_rejects_a_dimension_below_1(self, rows, cols):
        with pytest.raises(ShapeError, match=rf"^matrix dims must be positive, "
                                             rf"got {rows}x{cols}$"):
            seeded_normal(1, rows, cols)

    def test_moments(self):
        out = seeded_normal(42, 1000, 100)
        assert abs(out.mean()) < 0.02
        assert abs(out.std() - 1.0) < 0.02

    def test_negative_stddev_rejected(self):
        with pytest.raises(ValueError):
            seeded_normal(0, 2, 2, stddev=-1.0)

    @pytest.mark.parametrize("stddev", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_stddev_rejected(self, stddev):
        with pytest.raises(ValueError, match="finite"):
            seeded_normal(0, 2, 2, stddev=stddev)

    def test_all_finite(self):
        assert np.all(np.isfinite(seeded_normal(9, 200, 50)))

    def test_fp32_dtype(self):
        out = seeded_normal(9, 4, 4, out=np.empty((4, 4), np.float32))
        assert out.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunked_draw_equals_one_whole_draw(self, dtype):
        # 41 x 7503 = 307623 values: two whole chunks and an odd-length tail
        rows, cols = 41, 7503
        assert 2 * NORMAL_CHUNK < rows * cols < 3 * NORMAL_CHUNK and rows * cols % 2
        out = np.zeros((rows, cols), dtype)
        got = seeded_normal(17, rows, cols, stddev=0.3, out=out)
        want = (0.3 * Counter64(17).normal(rows * cols)).astype(dtype)
        assert got is out
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("out", [np.zeros((4, 3)), np.zeros((6, 4))[:, :3]],
                             ids=["shape", "strided"])
    def test_out_must_be_contiguous_rows_by_cols(self, out):
        with pytest.raises(ShapeError, match="C-contiguous 3x3"):
            seeded_normal(1, 3, 3, out=out)


class TestThreadedDraw:
    """seeded_normal splits a draw into pieces of NORMAL_CHUNK // workers
    values (whole pairs) and fills them on worker threads; the bytes must not
    depend on the worker count, the piece count or which thread drew what."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pieces,tail", [(0, 999), (3, 0), (3, 1001)],
                             ids=["below-one-piece", "whole-pieces", "odd-tail"])
    def test_equals_one_whole_draw(self, monkeypatch, workers, dtype, pieces, tail):
        monkeypatch.setattr(tensor, "_draw_workers", lambda: workers)
        n = pieces * (NORMAL_CHUNK // workers // 2 * 2) + tail
        out = np.zeros((1, n), dtype)
        got = seeded_normal(29, 1, n, stddev=0.7, out=out)
        want = (0.7 * Counter64(29).normal(n)).astype(dtype)
        assert got is out
        assert got.tobytes() == want.tobytes()

    def test_concurrent_callers_get_their_own_seed(self, monkeypatch):
        # three workers, more than a two-core host has, and frequent thread switches
        monkeypatch.setattr(tensor, "_draw_workers", lambda: 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        n = 3 * NORMAL_CHUNK + 1
        seeds = (101, 202)
        got = {}
        start = threading.Barrier(len(seeds))

        def draw(seed):
            start.wait(timeout=30)
            got[seed] = seeded_normal(seed, 1, n)

        callers = [threading.Thread(target=draw, args=(s,)) for s in seeds]
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for s in seeds:
            assert got[s].tobytes() == Counter64(s).normal(n).tobytes()

    def test_no_thread_outlives_build_network(self, monkeypatch):
        monkeypatch.setattr(tensor, "_draw_workers", lambda: 2)
        pools = []

        class CountedPool(tensor.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(tensor, "ThreadPoolExecutor", CountedPool)
        # the 512 x 512 hidden weight spans four pieces at two workers
        cfg = expand_shorthand("1+1", "1,1,1,1", input_dim=16, hidden=512, proj=16)
        before = threading.active_count()
        build_network(cfg, 3)
        assert pools, "no draw was split over threads"
        assert threading.active_count() == before


class TestCounter64:
    def test_streams_reproducible(self):
        a = Counter64(77)
        b = Counter64(77)
        assert np.array_equal(a.next_uint64(100), b.next_uint64(100))

    def test_chunking_is_seekable(self):
        a = Counter64(5)
        b = Counter64(5)
        whole = a.uniform(10)
        parts = np.concatenate([b.uniform(3), b.uniform(7)])
        assert np.array_equal(whole, parts)

    def test_uniform_in_open_interval(self):
        u = Counter64(3).uniform(10000)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_below_respects_bound(self):
        rng = Counter64(8)
        draws = [rng.below(7) for _ in range(500)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) == 7

    def test_below_rejects_an_empty_range(self):
        with pytest.raises(ValueError, match=r"^bound must be positive$"):
            Counter64(8).below(0)

    def test_shuffle_deterministic(self):
        x = list(range(20))
        y = list(range(20))
        Counter64(4).shuffle(x)
        Counter64(4).shuffle(y)
        assert x == y
        assert sorted(x) == list(range(20))

    def test_derive_seed_varies_with_tags(self):
        seeds = {derive_seed(1), derive_seed(1, 0), derive_seed(1, 1),
                 derive_seed(1, 0, 0), derive_seed(2)}
        assert len(seeds) == 5

    # sha256 of every draw below; a changed digest means changed init, data
    # and shuffles for every seed
    STREAM_DIGESTS = {
        0: "5965bc8412929b8a28e1db8f044740bcd4eca76790b7f559640ac0ec21baaad8",
        1: "64a71b74410b4434711a501514896b69bdc92295e434fbca90fe6b1200e17f4a",
        7: "6cbb34ff28cc54cb8ef17f7bb15fc2a21c0fe370446fade1a72db329ff371c36",
    }

    @pytest.mark.parametrize("offset", sorted(STREAM_DIGESTS))
    def test_stream_bytes_pinned(self, offset):
        h = hashlib.sha256()
        for seed in (0, 1234, 2**63 + 7):
            rng = Counter64(seed)
            rng.next_uint64(offset)
            for draw, n in (("next_uint64", 3), ("uniform", 5), ("normal", 1),
                            ("normal", 7), ("normal", 70001), ("normal", 4),
                            ("uniform", 3), ("next_uint64", 2)):
                h.update(getattr(rng, draw)(n).tobytes())
            h.update(str(rng.counter).encode())
        assert h.hexdigest() == self.STREAM_DIGESTS[offset]

    def test_derive_seed_pinned(self):
        seeds = [derive_seed(seed, *tags)
                 for seed in (0, 1, 2**63 + 7, 2**64 - 1)
                 for tags in ((), (0,), (3, 1), (2**63 + 7, 5), (-1,))]
        digest = hashlib.sha256(" ".join(map(str, seeds)).encode()).hexdigest()
        assert digest == "d51ebfc20543a58ad3c1eee946213eae2a156b9047d6e745d92cad2960071c31"


class TestAsSequence:
    def test_accepts_matrix(self):
        out = as_sequence([[1.0, 2.0]])
        assert out.shape == (1, 2)

    def test_rejects_vector(self):
        with pytest.raises(ShapeError):
            as_sequence(np.zeros(3))

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            as_sequence(np.zeros((0, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_sequence(np.array([[np.nan, 1.0]]))
