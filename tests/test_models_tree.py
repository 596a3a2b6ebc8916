"""Unit tests for CART trees."""

import numpy as np
import pytest

from repro.models.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.utils.exceptions import NotFittedError


class TestDecisionTreeClassifier:
    def test_fits_simple_threshold_rule(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.score(X, y) == 1.0

    def test_predict_proba_rows_sum_to_one(self, linear_data):
        X, y, _ = linear_data
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        proba = tree.predict_proba(X[:20])
        assert proba.shape == (20, 2)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_classes_preserved_with_string_labels(self):
        X = np.array([[0.0], [5.0], [0.1], [4.9]])
        y = np.array(["no", "yes", "no", "yes"])
        tree = DecisionTreeClassifier().fit(X, y)
        assert set(tree.predict(X)) == {"no", "yes"}

    def test_max_depth_limits_overfitting(self, linear_data):
        X, y, _ = linear_data
        stump = DecisionTreeClassifier(max_depth=1).fit(X, y)
        deep = DecisionTreeClassifier(max_depth=None).fit(X, y)
        assert deep.score(X, y) >= stump.score(X, y)
        # A depth-1 tree has exactly one split (2 leaves).
        nodes = stump.tree_
        assert nodes.feature[0] >= 0
        assert nodes.feature[nodes.left[0]] == -1
        assert nodes.feature[nodes.right[0]] == -1
        assert nodes.depth == 1

    def test_min_samples_leaf_enforced(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.array([0] * 9 + [1])
        tree = DecisionTreeClassifier(min_samples_leaf=3).fit(X, y)
        nodes = tree.tree_
        leaves = nodes.feature < 0
        assert leaves.sum() >= 2
        assert (nodes.n_samples[leaves] >= 3).all()
        # a leaf points to itself, a split to two other nodes
        index = np.arange(len(nodes.feature))
        assert np.array_equal(nodes.left == index, leaves)
        assert np.array_equal(nodes.right == index, leaves)

    def test_pure_node_stops_splitting(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(X, y)  # single class rejected

    def test_unfitted_predict_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict(np.zeros((1, 2)))

    def test_feature_importances_sum_to_one(self, linear_data):
        X, y, _ = linear_data
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        assert tree.feature_importances_.sum() == pytest.approx(1.0)

    def test_irrelevant_feature_gets_low_importance(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([rng.normal(size=400), rng.normal(size=400)])
        y = (X[:, 0] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert tree.feature_importances_[0] > 0.9

    def test_entropy_criterion(self, linear_data):
        X, y, _ = linear_data
        tree = DecisionTreeClassifier(max_depth=4, criterion="entropy").fit(X, y)
        assert tree.score(X, y) > 0.8

    def test_unknown_criterion(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        with pytest.raises(ValueError):
            DecisionTreeClassifier(criterion="bogus").fit(X, y)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((3, 1)), np.array([0, 1]))

    def test_multiclass(self):
        X = np.array([[0.0], [1.0], [2.0], [0.1], [1.1], [2.1]])
        y = np.array([0, 1, 2, 0, 1, 2])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.score(X, y) == 1.0
        assert tree.predict_proba(X).shape == (6, 3)

    def test_apply_returns_leaf_ids(self, linear_data):
        X, y, _ = linear_data
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        leaves = tree.apply(X)
        assert leaves.min() >= 0
        # Rows in the same leaf get identical probability vectors.
        proba = tree.predict_proba(X)
        for leaf in np.unique(leaves):
            block = proba[leaves == leaf]
            assert np.allclose(block, block[0])

    def test_apply_reshapes_a_single_row(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        tree = DecisionTreeClassifier().fit(X, np.array([0, 0, 0, 1, 1, 1]))
        # one 1-D row, as predict accepts it
        assert tree.apply(np.array([2.5])).tolist() == tree.apply([[2.5]]).tolist()
        assert tree.apply(np.array([2.5])).shape == (1,)

    def test_unfitted_apply_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().apply(np.zeros((1, 2)))


class TestDecisionTreeRegressor:
    def test_fits_step_function(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        y = (X[:, 0] >= 10).astype(float) * 5.0
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        assert np.allclose(tree.predict(X), y)

    def test_constant_target_single_leaf(self):
        X = np.arange(5, dtype=float).reshape(-1, 1)
        y = np.full(5, 3.0)
        tree = DecisionTreeRegressor().fit(X, y)
        assert tree.n_leaves_ == 1
        assert np.allclose(tree.predict(X), 3.0)

    def test_depth_improves_fit(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, size=(300, 1))
        y = np.sin(6 * X[:, 0])
        shallow = DecisionTreeRegressor(max_depth=2).fit(X, y)
        deep = DecisionTreeRegressor(max_depth=6).fit(X, y)
        assert deep.score(X, y) > shallow.score(X, y)

    def test_apply_consistent_with_predictions(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 2))
        y = X[:, 0] * 2 + rng.normal(size=100) * 0.1
        tree = DecisionTreeRegressor(max_depth=4).fit(X, y)
        leaves = tree.apply(X)
        preds = tree.predict(X)
        for leaf in np.unique(leaves):
            block = preds[leaves == leaf]
            assert np.allclose(block, block[0])

    def test_n_leaves_counts_apply_range(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 3))
        y = X @ np.array([1.0, -1.0, 0.5])
        tree = DecisionTreeRegressor(max_depth=4).fit(X, y)
        assert tree.apply(X).max() < tree.n_leaves_

    def test_score_r2_bounds(self):
        X = np.arange(50, dtype=float).reshape(-1, 1)
        y = X[:, 0] * 2.0
        tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
        assert 0.9 < tree.score(X, y) <= 1.0

    def test_unfitted_apply_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeRegressor().apply(np.zeros((1, 2)))

    def test_apply_reshapes_a_single_row(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        tree = DecisionTreeRegressor(max_depth=2).fit(X, X[:, 0])
        assert tree.apply(np.array([7.0])).tolist() == tree.apply([[7.0]]).tolist()
