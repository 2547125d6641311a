"""Utility helpers: RNG, validation, ranking, stopwatch."""

import numpy as np
import pytest

from repro.utils import (
    Stopwatch,
    argsort_desc,
    as_rng,
    batched,
    check_1d,
    check_2d,
    check_same_length,
    topk_indices,
)


class TestRng:
    def test_int_seed_deterministic(self):
        assert as_rng(5).integers(1000) == as_rng(5).integers(1000)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)


class TestValidation:
    def test_check_1d(self):
        out = check_1d([1, 2, 3], "x")
        assert out.shape == (3,)
        with pytest.raises(ValueError, match="1-dimensional"):
            check_1d(np.zeros((2, 2)), "x")

    def test_check_2d(self):
        assert check_2d(np.zeros((2, 3)), "x").shape == (2, 3)
        with pytest.raises(ValueError, match="2-dimensional"):
            check_2d(np.zeros(3), "x")

    def test_check_same_length(self):
        check_same_length([1, 2], [3, 4], "a/b")
        with pytest.raises(ValueError, match="equal length"):
            check_same_length([1], [2, 3], "a/b")


class TestRanking:
    def test_argsort_desc(self):
        np.testing.assert_array_equal(argsort_desc(np.asarray([1.0, 3.0, 2.0])), [1, 2, 0])

    def test_argsort_desc_stable_ties(self):
        np.testing.assert_array_equal(
            argsort_desc(np.asarray([2.0, 2.0, 1.0])), [0, 1, 2]
        )

    def test_topk(self):
        np.testing.assert_array_equal(
            topk_indices(np.asarray([5.0, 1.0, 9.0, 3.0]), 2), [2, 0]
        )

    def test_topk_validation(self):
        with pytest.raises(ValueError):
            topk_indices(np.zeros(3), -1)

    def test_topk_larger_than_array(self):
        assert len(topk_indices(np.zeros(3), 10)) == 3


class TestBatched:
    def test_even_batches(self):
        assert list(batched([1, 2, 3, 4], 2)) == [[1, 2], [3, 4]]

    def test_ragged_tail(self):
        assert list(batched([1, 2, 3], 2)) == [[1, 2], [3]]

    def test_validation(self):
        with pytest.raises(ValueError):
            list(batched([1], 0))


class TestStopwatch:
    def test_accumulates(self):
        watch = Stopwatch()
        with watch.time("a"):
            pass
        with watch.time("a"):
            pass
        assert watch.counts["a"] == 2
        assert watch.totals["a"] >= 0
        assert watch.mean("a") >= 0

    def test_nested_labels(self):
        watch = Stopwatch()
        with watch.time("outer"):
            with watch.time("inner"):
                pass
        assert watch.counts == {"outer": 1, "inner": 1}
        assert watch.totals["outer"] >= watch.totals["inner"]

    def test_stop_returns_elapsed_and_clears_start(self):
        watch = Stopwatch()
        watch.start("a")
        elapsed = watch.stop("a")
        assert elapsed == watch.totals["a"]
        with pytest.raises(KeyError):
            watch.stop("a")

    def test_unknown_stop_raises(self):
        with pytest.raises(KeyError):
            Stopwatch().stop("ghost")

    def test_mean_of_unused_label(self):
        assert Stopwatch().mean("never") == 0.0

    def test_as_dict_copy(self):
        watch = Stopwatch()
        with watch.time("x"):
            pass
        snapshot = watch.as_dict()
        snapshot["x"] = -1
        assert watch.totals["x"] >= 0
