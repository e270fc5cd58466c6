import numpy as np
import pytest

from dfsmn.tensor import Counter64, ShapeError, as_sequence, derive_seed, seeded_normal


class TestSeededNormal:
    def test_zero_stddev_is_constant(self):
        out = seeded_normal(5, 3, 4, mean=2.5, stddev=0.0)
        assert np.array_equal(out, np.full((3, 4), 2.5))

    def test_same_seed_bit_identical(self):
        a = seeded_normal(123, 10, 10)
        b = seeded_normal(123, 10, 10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(seeded_normal(1, 5, 5), seeded_normal(2, 5, 5))

    def test_moments(self):
        out = seeded_normal(42, 1000, 100)
        assert abs(out.mean()) < 0.02
        assert abs(out.std() - 1.0) < 0.02

    def test_negative_stddev_rejected(self):
        with pytest.raises(ValueError):
            seeded_normal(0, 2, 2, stddev=-1.0)

    def test_all_finite(self):
        assert np.all(np.isfinite(seeded_normal(9, 200, 50)))

    def test_fp32_dtype(self):
        out = seeded_normal(9, 4, 4, dtype=np.float32)
        assert out.dtype == np.float32


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
