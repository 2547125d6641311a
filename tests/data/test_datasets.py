"""Dataset generators: determinism, shapes, learnability, corruption."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    contains_token,
    corrupt_labels,
    corrupt_where_label,
    encode_features,
    labelling_function_corruption,
    make_adult,
    make_dblp,
    make_enron,
    make_mnist,
    render_digit,
    section65_predicate,
    split_by_digit,
)
from repro.ml import LogisticRegression, SoftmaxRegression


class TestDBLP:
    def test_shapes(self):
        ds = make_dblp(n_train=100, n_query=50, seed=0)
        assert ds.X_train.shape == (100, 17)
        assert ds.X_query.shape == (50, 17)
        assert set(ds.y_train) <= {"match", "nonmatch"}

    def test_deterministic(self):
        a = make_dblp(n_train=50, n_query=20, seed=5)
        b = make_dblp(n_train=50, n_query=20, seed=5)
        np.testing.assert_array_equal(a.X_train, b.X_train)
        np.testing.assert_array_equal(a.y_train, b.y_train)

    def test_different_seeds_differ(self):
        a = make_dblp(n_train=50, n_query=20, seed=1)
        b = make_dblp(n_train=50, n_query=20, seed=2)
        assert not np.array_equal(a.X_train, b.X_train)

    def test_features_in_unit_range(self):
        ds = make_dblp(n_train=200, n_query=10, seed=0)
        assert ds.X_train.min() >= 0.0 and ds.X_train.max() <= 1.0

    def test_linearly_learnable(self):
        ds = make_dblp(n_train=300, n_query=200, seed=0)
        model = LogisticRegression(ds.classes, n_features=17, l2=1e-3)
        model.fit(ds.X_train, ds.y_train, warm_start=False)
        assert model.accuracy(ds.X_query, ds.y_query) > 0.85


class TestAdult:
    def test_shapes_and_duplication(self):
        ds = make_adult(n_train=1000, n_query=100, seed=0)
        assert ds.X_train.shape == (1000, 18)
        # The Section 6.5 pathology: few unique feature vectors.
        assert np.unique(ds.X_train, axis=0).shape[0] <= 120

    def test_one_hot_rows_sum_to_three(self):
        ds = make_adult(n_train=200, n_query=10, seed=0)
        np.testing.assert_array_equal(ds.X_train.sum(axis=1), np.full(200, 3.0))

    def test_encode_features_matches_attributes(self):
        X = encode_features(np.asarray([20]), np.asarray(["hs"]), np.asarray(["male"]))
        assert X.shape == (1, 18)
        assert X.sum() == 3.0

    def test_predicate_selects_correct_rows(self):
        y = np.asarray([0, 0, 1, 0])
        age = np.asarray([40, 30, 40, 50])
        gender = np.asarray(["male", "male", "male", "female"])
        mask = section65_predicate(y, age, gender)
        np.testing.assert_array_equal(mask, [True, False, False, False])

    def test_income_correlates_with_education(self):
        ds = make_adult(n_train=4000, n_query=10, seed=0)
        phd = ds.education_train == "phd"
        dropout = ds.education_train == "dropout"
        assert ds.y_train[phd].mean() > ds.y_train[dropout].mean()


class TestEnron:
    def test_shapes_and_text(self):
        ds = make_enron(n_train=100, n_query=50, seed=0)
        assert ds.X_train.shape[0] == 100
        assert all(isinstance(t, str) for t in ds.text_train)

    def test_text_matches_features(self):
        ds = make_enron(n_train=100, n_query=10, seed=0)
        http_column = list(ds.vocabulary).index("http")
        for row, text in zip(ds.X_train, ds.text_train):
            assert bool(row[http_column]) == ("http" in text.split())

    def test_contains_token(self):
        texts = np.asarray(["deal http meeting", "lunch", "deals"], dtype=object)
        np.testing.assert_array_equal(
            contains_token(texts, "deal"), [True, False, False]
        )

    def test_labelling_function_corruption(self):
        ds = make_enron(n_train=300, n_query=10, seed=0)
        y_corrupted, changed = labelling_function_corruption(
            ds.y_train, ds.text_train, "http"
        )
        mask = contains_token(ds.text_train, "http")
        assert np.all(y_corrupted[mask] == "spam")
        # Changed = previously-ham emails containing http.
        assert np.all(ds.y_train[changed] == "ham")
        assert len(changed) > 0

    def test_spam_rate_approx(self):
        ds = make_enron(n_train=2000, n_query=10, spam_rate=0.3, seed=0)
        rate = float(np.mean(ds.y_train == "spam"))
        assert 0.25 < rate < 0.35


class TestMNIST:
    def test_shapes(self):
        ds = make_mnist(n_train=40, n_query=20, seed=0)
        assert ds.images_train.shape == (40, 28, 28)
        assert ds.X_train.shape == (40, 784)

    def test_pixels_in_unit_range(self):
        ds = make_mnist(n_train=30, n_query=5, seed=1)
        assert ds.images_train.min() >= 0.0 and ds.images_train.max() <= 1.0

    def test_digit_restriction(self):
        ds = make_mnist(n_train=60, n_query=20, digits=(1, 7), seed=0)
        assert set(ds.y_train) <= {1, 7}

    def test_render_deterministic_per_rng_state(self):
        a = render_digit(3, np.random.default_rng(9))
        b = render_digit(3, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_renders_vary(self):
        rng = np.random.default_rng(0)
        a = render_digit(3, rng)
        b = render_digit(3, rng)
        assert not np.array_equal(a, b)

    def test_split_by_digit(self):
        ds = make_mnist(n_train=50, n_query=30, seed=0)
        images, labels = split_by_digit(ds.images_query, ds.y_query, (1, 7))
        assert set(labels) <= {1, 7}
        assert images.shape[0] == labels.shape[0]

    def test_learnable_by_softmax(self):
        ds = make_mnist(n_train=500, n_query=150, seed=0)
        model = SoftmaxRegression(tuple(range(10)), n_features=784, l2=1e-3)
        model.fit(ds.X_train, ds.y_train, warm_start=False, max_iter=100)
        assert model.accuracy(ds.X_query, ds.y_query) > 0.9

    def test_all_ten_digits_render(self):
        rng = np.random.default_rng(0)
        for digit in range(10):
            image = render_digit(digit, rng)
            assert image.shape == (28, 28)
            assert image.max() > 0.3  # glyph actually drawn


class TestCorruption:
    def test_fraction_of_candidates(self):
        y = np.asarray(["a"] * 50 + ["b"] * 50, dtype=object)
        corruption = corrupt_where_label(y, "a", "b", 0.4, rng=0)
        assert corruption.n_corrupted == 20
        assert np.all(corruption.y_corrupted[corruption.corrupted_indices] == "b")
        assert np.all(y[corruption.corrupted_indices] == "a")

    def test_original_untouched(self):
        y = np.zeros(20, dtype=int)
        corruption = corrupt_labels(y, np.ones(20, dtype=bool), 1, 0.5, rng=0)
        assert np.all(y == 0)
        assert corruption.n_corrupted == 10

    def test_callable_new_label(self):
        y = np.asarray([0, 0, 1, 1])
        corruption = corrupt_labels(
            y, np.ones(4, dtype=bool), lambda old: 1 - old, 1.0, rng=0
        )
        np.testing.assert_array_equal(corruption.y_corrupted, [1, 1, 0, 0])

    def test_validation(self):
        y = np.zeros(10)
        with pytest.raises(ValueError, match="fraction"):
            corrupt_labels(y, np.ones(10, dtype=bool), 1, 0.0)
        with pytest.raises(ValueError, match="mask shape"):
            corrupt_labels(y, np.ones(5, dtype=bool), 1, 0.5)
        with pytest.raises(ValueError, match="matches no records"):
            corrupt_labels(y, np.zeros(10, dtype=bool), 1, 0.5)

    def test_deterministic_given_seed(self):
        y = np.zeros(100, dtype=int)
        mask = np.ones(100, dtype=bool)
        a = corrupt_labels(y, mask, 1, 0.3, rng=7)
        b = corrupt_labels(y, mask, 1, 0.3, rng=7)
        np.testing.assert_array_equal(a.corrupted_indices, b.corrupted_indices)

    @given(st.integers(1, 99), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_corrupted_count_property(self, percent, seed):
        y = np.zeros(200, dtype=int)
        mask = np.zeros(200, dtype=bool)
        mask[:100] = True
        corruption = corrupt_labels(y, mask, 1, percent / 100.0, rng=seed)
        assert corruption.n_corrupted == max(1, round(percent))
        assert set(corruption.corrupted_indices.tolist()) <= set(range(100))

    def test_overall_rate(self):
        y = np.asarray([0] * 80 + [1] * 20)
        corruption = corrupt_where_label(y, 1, 0, 0.5, rng=0)
        assert corruption.corruption_rate_overall() == pytest.approx(0.1)

    def test_indices_sorted(self):
        y = np.zeros(120, dtype=int)
        mask = np.ones(120, dtype=bool)
        corruption = corrupt_labels(y, mask, 1, 0.4, rng=11)
        indices = corruption.corrupted_indices
        assert np.all(np.diff(indices) > 0)

    def test_full_fraction_takes_every_candidate(self):
        y = np.zeros(10, dtype=int)
        mask = np.zeros(10, dtype=bool)
        mask[:3] = True
        corruption = corrupt_labels(y, mask, 1, 1.0, rng=0)
        np.testing.assert_array_equal(corruption.corrupted_indices, [0, 1, 2])

    def test_single_stream_draw(self):
        y = np.zeros(100, dtype=int)
        mask = np.zeros(100, dtype=bool)
        mask[::3] = True
        corruption = corrupt_labels(y, mask, 1, 0.25, rng=3)
        candidates = np.flatnonzero(mask)
        expected = np.random.default_rng(3).choice(
            candidates, size=round(0.25 * candidates.size), replace=False
        )
        np.testing.assert_array_equal(
            corruption.corrupted_indices, np.sort(expected)
        )

    def test_generator_matches_integer_seed(self):
        y = np.zeros(50, dtype=int)
        mask = np.ones(50, dtype=bool)
        seeded = corrupt_labels(y, mask, 1, 0.5, rng=9)
        generator = corrupt_labels(y, mask, 1, 0.5, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(
            seeded.corrupted_indices, generator.corrupted_indices
        )
