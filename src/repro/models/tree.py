"""CART decision trees (classification and regression).

Split search is histogram-style: candidate thresholds are midpoints
between consecutive distinct feature values at the node, and impurity is
evaluated from prefix sums in one vectorised pass per feature.  This is
fast for the low-cardinality ordinal/one-hot matrices the library feeds
models with, while remaining correct for arbitrary float features.

A fitted tree is a set of flat parallel node arrays (:class:`TreeArrays`).
Node ``i`` sends a row to ``left[i]`` when ``x[feature[i]] <=
threshold[i]`` and to ``right[i]`` otherwise (so NaN goes right); a leaf
points to itself.  Prediction is therefore one vectorised gather per
level, run for the tree's depth, whatever the number of rows.  Forests
and boosted ensembles stack their trees into one set of arrays with one
root per tree, so each level is one gather across all trees.
"""

from __future__ import annotations

import copy
from typing import Callable, Sequence

import numpy as np

from repro.models.base import BaseClassifier, BaseRegressor, _as_matrix
from repro.utils.rng import as_generator
from repro.utils.validation import check_fitted

#: the per-node arrays a fitted tree is made of, in serialisation order
NODE_FIELDS = (
    "feature", "threshold", "left", "right",
    "value", "n_samples", "impurity", "leaf_id",
)


class TreeArrays:
    """One or more fitted CART trees as flat parallel node arrays.

    ``value`` holds each node's class counts ``(n_nodes, n_classes)`` or
    mean target ``(n_nodes,)``; ``n_samples``, ``impurity`` and
    ``leaf_id`` (leaves numbered from 0 per tree, ``-1`` elsewhere)
    complete what serialisation needs.  Leaves have ``feature = -1``.
    ``output`` is what a row ending in a node predicts: the class counts
    normalised once per node, the mean, or what an ensemble substitutes
    (boosting's Newton steps).  ``roots`` holds each stacked tree's root.
    """

    def __init__(
        self,
        feature,
        threshold,
        left,
        right,
        value,
        n_samples,
        impurity,
        leaf_id,
        roots=(0,),
        output: np.ndarray | None = None,
    ):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)
        self.n_samples = np.asarray(n_samples, dtype=np.int64)
        self.impurity = np.asarray(impurity, dtype=np.float64)
        self.leaf_id = np.asarray(leaf_id, dtype=np.int64)
        self.roots = np.asarray(roots, dtype=np.int64)
        if output is None and self.value.ndim == 2:
            # Counts are integral, so each sum is exact in any order and
            # the division matches a per-row ``counts / counts.sum()``.
            output = self.value / self.value.sum(axis=1, keepdims=True)
        self.output = self.value if output is None else output
        #: columns a row must have: one past the largest split feature
        self.n_features = int(self.feature.max(initial=-1)) + 1
        self.depth = self._max_depth()

    def _max_depth(self) -> int:
        frontier, depth = self.roots, 0
        while True:
            frontier = frontier[self.left[frontier] != frontier]
            if frontier.size == 0:
                return depth
            frontier = np.concatenate([self.left[frontier], self.right[frontier]])
            depth += 1

    @classmethod
    def stack(cls, trees: Sequence["TreeArrays"]) -> "TreeArrays":
        """One set of arrays holding every tree, each under its own root."""
        offsets = np.cumsum([0] + [len(t.feature) for t in trees[:-1]])

        def cat(name: str, shift: bool = False) -> np.ndarray:
            parts = [getattr(t, name) for t in trees]
            if shift:
                parts = [part + offset for part, offset in zip(parts, offsets)]
            return np.concatenate(parts)

        return cls(
            **{name: cat(name, name in ("left", "right")) for name in NODE_FIELDS},
            roots=cat("roots", shift=True),
            output=cat("output"),
        )

    def with_output(self, output: np.ndarray) -> "TreeArrays":
        """The same trees (arrays shared, not copied) predicting ``output``."""
        clone = copy.copy(self)
        clone.output = output
        return clone

    def descend(self, X: np.ndarray) -> np.ndarray:
        """The node each row of ``X`` ends in, per tree: ``(n_trees, n_rows)``."""
        n_rows, width = X.shape
        if width < self.n_features:
            raise ValueError(
                f"X has {width} features but the tree splits on feature "
                f"{self.n_features - 1}"
            )
        nodes = np.repeat(self.roots[:, None], n_rows, axis=1)
        if n_rows == 0:
            return nodes
        cells = np.ascontiguousarray(X).ravel()
        row_start = np.arange(n_rows) * width
        for _ in range(self.depth):
            # A leaf's feature -1 reads some in-bounds cell; both of its
            # branches lead back to the leaf, so the value does not matter.
            x = cells[row_start + self.feature[nodes]]
            nodes = np.where(
                x <= self.threshold[nodes], self.left[nodes], self.right[nodes]
            )
        return nodes


def sum_in_order(start: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``start + terms[0] + terms[1] + ...``, added left to right.

    ``np.add.accumulate`` is sequential, so these are the additions a
    loop of ``+=`` over the trees makes, in its order, and the result is
    bit-identical to it; ``np.sum`` over the tree axis may pair them
    differently.
    """
    return np.add.accumulate(np.concatenate([start[None], terms]), axis=0)[-1]


class StackedTrees:
    """An ensemble's trees stacked into one :class:`TreeArrays`.

    Built on first use and rebuilt whenever the ensemble's tree list
    object is replaced (a refit or a deserialisation assigns a new one).
    The cache is one tuple, replaced whole: threads that race on a first
    call may each build the stack, and each gets a correct one.
    """

    def __init__(self):
        self._entry: tuple = (object(), None)

    def get(self, trees: list, arrays: Callable[[list], list]) -> TreeArrays:
        """The stack of ``arrays(trees)``, cached against ``trees``."""
        owner, stacked = self._entry
        if owner is not trees:
            stacked = TreeArrays.stack(arrays(trees))
            self._entry = (trees, stacked)
        return stacked


def _class_impurity(counts: np.ndarray, criterion: str) -> np.ndarray:
    """Gini or entropy from a ``(..., n_classes)`` count array."""
    totals = counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = np.where(totals > 0, counts / totals, 0.0)
    if criterion == "gini":
        return 1.0 - np.sum(probs**2, axis=-1)
    if criterion == "entropy":
        logs = np.log2(probs, where=probs > 0, out=np.zeros_like(probs))
        return -np.sum(probs * logs, axis=-1)
    raise ValueError(f"unknown criterion {criterion!r}")


class _TreeBuilder:
    """Shared recursive CART builder; subclass hooks define the task."""

    def __init__(
        self,
        max_depth: int | None,
        min_samples_split: int,
        min_samples_leaf: int,
        max_features: int | None,
        rng: np.random.Generator,
    ):
        self.max_depth = max_depth if max_depth is not None else np.inf
        self.min_samples_split = max(2, min_samples_split)
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.max_features = max_features
        self.rng = rng
        self.n_leaves = 0
        self.feature_gains: np.ndarray | None = None

    # -- task hooks (classifier vs regressor) --------------------------------

    def node_impurity(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def node_value(self, y: np.ndarray):
        raise NotImplementedError

    def best_split_for_feature(self, x: np.ndarray, y: np.ndarray):
        """Return (gain, threshold) for one feature or None."""
        raise NotImplementedError

    # -- generic recursion ------------------------------------------------------

    def build(self, X: np.ndarray, y: np.ndarray) -> TreeArrays:
        self.feature_gains = np.zeros(X.shape[1])
        self.nodes: list[dict] = []
        self._grow(X, y, depth=0)
        return TreeArrays(
            **{name: [node[name] for node in self.nodes] for name in NODE_FIELDS}
        )

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> int:
        """Append the subtree of ``(X, y)`` in pre-order; return its root."""
        index = len(self.nodes)
        node = {
            "feature": -1,
            "threshold": 0.0,
            "left": index,
            "right": index,
            "value": self.node_value(y),
            "n_samples": len(y),
            "impurity": self.node_impurity(y),
            "leaf_id": -1,
        }
        self.nodes.append(node)
        if (
            depth >= self.max_depth
            or len(y) < self.min_samples_split
            or node["impurity"] <= 1e-12
        ):
            return self._leaf(index)

        n_features = X.shape[1]
        if self.max_features is not None and self.max_features < n_features:
            features = self.rng.choice(n_features, self.max_features, replace=False)
        else:
            features = np.arange(n_features)

        best_gain, best_feature, best_threshold = 0.0, -1, 0.0
        for f in features:
            found = self.best_split_for_feature(X[:, f], y)
            if found is None:
                continue
            gain, threshold = found
            if gain > best_gain + 1e-12:
                best_gain, best_feature, best_threshold = gain, int(f), threshold

        if best_feature < 0:
            return self._leaf(index)

        mask = X[:, best_feature] <= best_threshold
        node["feature"] = best_feature
        node["threshold"] = best_threshold
        self.feature_gains[best_feature] += best_gain * len(y)
        node["left"] = self._grow(X[mask], y[mask], depth + 1)
        node["right"] = self._grow(X[~mask], y[~mask], depth + 1)
        return index

    def _leaf(self, index: int) -> int:
        self.nodes[index]["leaf_id"] = self.n_leaves
        self.n_leaves += 1
        return index


class _ClassifierBuilder(_TreeBuilder):
    def __init__(self, n_classes: int, criterion: str, **kwargs):
        super().__init__(**kwargs)
        self.n_classes = n_classes
        self.criterion = criterion

    def node_impurity(self, y: np.ndarray) -> float:
        counts = np.bincount(y, minlength=self.n_classes).astype(float)
        return float(_class_impurity(counts, self.criterion))

    def node_value(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(y, minlength=self.n_classes).astype(float)

    def best_split_for_feature(self, x: np.ndarray, y: np.ndarray):
        order = np.argsort(x, kind="stable")
        xs, ys = x[order], y[order]
        # Candidate cut positions: between distinct consecutive values.
        boundary = np.nonzero(xs[1:] != xs[:-1])[0]
        if boundary.size == 0:
            return None
        onehot = np.zeros((len(ys), self.n_classes))
        onehot[np.arange(len(ys)), ys] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        left = prefix[boundary]
        total = prefix[-1]
        right = total - left
        n_left = boundary + 1
        n_right = len(ys) - n_left
        valid = (n_left >= self.min_samples_leaf) & (n_right >= self.min_samples_leaf)
        if not valid.any():
            return None
        parent = _class_impurity(total, self.criterion)
        child = (
            n_left * _class_impurity(left, self.criterion)
            + n_right * _class_impurity(right, self.criterion)
        ) / len(ys)
        gains = np.where(valid, parent - child, -np.inf)
        best = int(np.argmax(gains))
        if not np.isfinite(gains[best]) or gains[best] <= 0:
            return None
        threshold = float((xs[boundary[best]] + xs[boundary[best] + 1]) / 2.0)
        return float(gains[best]), threshold


class _RegressorBuilder(_TreeBuilder):
    def node_impurity(self, y: np.ndarray) -> float:
        return float(np.var(y)) if len(y) else 0.0

    def node_value(self, y: np.ndarray) -> float:
        return float(np.mean(y)) if len(y) else 0.0

    def best_split_for_feature(self, x: np.ndarray, y: np.ndarray):
        order = np.argsort(x, kind="stable")
        xs, ys = x[order], y[order]
        boundary = np.nonzero(xs[1:] != xs[:-1])[0]
        if boundary.size == 0:
            return None
        prefix = np.cumsum(ys)
        prefix_sq = np.cumsum(ys**2)
        n = len(ys)
        n_left = boundary + 1
        n_right = n - n_left
        valid = (n_left >= self.min_samples_leaf) & (n_right >= self.min_samples_leaf)
        if not valid.any():
            return None
        sum_left = prefix[boundary]
        sum_right = prefix[-1] - sum_left
        sq_left = prefix_sq[boundary]
        sq_right = prefix_sq[-1] - sq_left
        var_left = sq_left / n_left - (sum_left / n_left) ** 2
        var_right = sq_right / n_right - (sum_right / n_right) ** 2
        parent = np.var(ys)
        child = (n_left * var_left + n_right * var_right) / n
        gains = np.where(valid, parent - child, -np.inf)
        best = int(np.argmax(gains))
        if not np.isfinite(gains[best]) or gains[best] <= 1e-15:
            return None
        threshold = float((xs[boundary[best]] + xs[boundary[best] + 1]) / 2.0)
        return float(gains[best]), threshold



class _FittedTree:
    """What both CART estimators share: node arrays, ``apply``, outputs."""

    tree_: TreeArrays | None

    def apply(self, X) -> np.ndarray:
        """Return the leaf id each row lands in."""
        check_fitted(self, "tree_")
        return self.tree_.leaf_id[self.tree_.descend(_as_matrix(X))[0]]

    def _outputs(self, X: np.ndarray) -> np.ndarray:
        return self.tree_.output[self.tree_.descend(X)[0]]


class DecisionTreeClassifier(_FittedTree, BaseClassifier):
    """CART classifier with gini/entropy impurity."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        criterion: str = "gini",
        seed: int | np.random.Generator | None = None,
    ):
        super().__init__()
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.criterion = criterion
        self.seed = seed
        self.tree_: TreeArrays | None = None
        self.feature_importances_: np.ndarray | None = None

    def _fit(self, X: np.ndarray, y_idx: np.ndarray, n_classes: int) -> None:
        builder = _ClassifierBuilder(
            n_classes=n_classes,
            criterion=self.criterion,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            rng=as_generator(self.seed),
        )
        self.tree_ = builder.build(X, y_idx)
        gains = builder.feature_gains
        total = gains.sum()
        self.feature_importances_ = gains / total if total > 0 else gains

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self._outputs(X)


class DecisionTreeRegressor(_FittedTree, BaseRegressor):
    """CART regressor with variance reduction splitting."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        seed: int | np.random.Generator | None = None,
    ):
        super().__init__()
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.tree_: TreeArrays | None = None
        self.n_leaves_: int = 0
        self.feature_importances_: np.ndarray | None = None

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        builder = _RegressorBuilder(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            rng=as_generator(self.seed),
        )
        self.tree_ = builder.build(X, y)
        self.n_leaves_ = builder.n_leaves
        gains = builder.feature_gains
        total = gains.sum()
        self.feature_importances_ = gains / total if total > 0 else gains

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return self._outputs(X)
