"""Second-order gradient boosting — the XGBoost stand-in.

Each round fits a CART regression tree to the negative gradient of the
loss, then replaces leaf values with the Newton step
``-sum(g) / (sum(h) + lambda)`` over that leaf (the core of XGBoost's
algorithm). Logistic loss for classification, squared loss for
regression.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import BaseClassifier, BaseRegressor
from repro.models.tree import (
    DecisionTreeRegressor,
    StackedTrees,
    TreeArrays,
    sum_in_order,
)
from repro.utils.rng import as_generator, spawn_generators


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))


class _NewtonTree:
    """A regression tree whose leaf values are Newton steps."""

    def __init__(self, tree: DecisionTreeRegressor, leaf_values: np.ndarray):
        self.tree = tree
        self.leaf_values = leaf_values

    @property
    def arrays(self) -> TreeArrays:
        """The tree's node arrays, each leaf predicting its Newton step."""
        nodes = self.tree.tree_
        return nodes.with_output(self.leaf_values[nodes.leaf_id])

    def predict(self, X: np.ndarray) -> np.ndarray:
        nodes = self.tree.tree_
        return self.leaf_values[nodes.leaf_id[nodes.descend(X)[0]]]


def _fit_newton_tree(
    X: np.ndarray,
    gradients: np.ndarray,
    hessians: np.ndarray,
    max_depth: int,
    min_samples_leaf: int,
    reg_lambda: float,
    subsample_rows: np.ndarray,
    rng: np.random.Generator,
) -> _NewtonTree:
    tree = DecisionTreeRegressor(
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        seed=rng,
    )
    tree.fit(X[subsample_rows], -gradients[subsample_rows])
    # Newton leaf refit uses the *full* gradient statistics so the step is
    # valid even under row subsampling.
    leaves = tree.apply(X)
    values = np.zeros(tree.n_leaves_)
    for leaf in range(tree.n_leaves_):
        members = leaves == leaf
        if members.any():
            g = gradients[members].sum()
            h = hessians[members].sum()
            values[leaf] = -g / (h + reg_lambda)
    return _NewtonTree(tree, values)


class GradientBoostingClassifier(BaseClassifier):
    """Binary / one-vs-rest boosted trees with logistic loss."""

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        reg_lambda: float = 1.0,
        subsample: float = 1.0,
        seed: int | np.random.Generator | None = None,
    ):
        super().__init__()
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.subsample = subsample
        self.seed = seed
        self.ensembles_: list[list[_NewtonTree]] | None = None
        self.base_scores_: np.ndarray | None = None
        self._stacked = StackedTrees()

    def _fit(self, X: np.ndarray, y_idx: np.ndarray, n_classes: int) -> None:
        n = len(X)
        # One-vs-rest: binary problems share the tree machinery; for the
        # common binary case only one ensemble is trained.
        n_problems = 1 if n_classes == 2 else n_classes
        rngs = spawn_generators(self.seed, self.n_estimators * n_problems)
        sampler = as_generator(self.seed)
        self.ensembles_ = []
        self.base_scores_ = np.zeros(n_problems)
        for problem in range(n_problems):
            target = (y_idx == (problem if n_problems > 1 else 1)).astype(float)
            prior = np.clip(target.mean(), 1e-6, 1 - 1e-6)
            base = float(np.log(prior / (1 - prior)))
            self.base_scores_[problem] = base
            raw = np.full(n, base)
            ensemble: list[_NewtonTree] = []
            for round_ in range(self.n_estimators):
                prob = _sigmoid(raw)
                gradients = prob - target
                hessians = prob * (1 - prob)
                if self.subsample < 1.0:
                    rows = sampler.choice(
                        n, size=max(1, int(self.subsample * n)), replace=False
                    )
                else:
                    rows = np.arange(n)
                tree = _fit_newton_tree(
                    X,
                    gradients,
                    hessians,
                    self.max_depth,
                    self.min_samples_leaf,
                    self.reg_lambda,
                    rows,
                    rngs[problem * self.n_estimators + round_],
                )
                raw += self.learning_rate * tree.predict(X)
                ensemble.append(tree)
            self.ensembles_.append(ensemble)

    def _raw_scores(self, X: np.ndarray) -> np.ndarray:
        stacked = self._stacked.get(
            self.ensembles_,
            lambda ensembles: [tree.arrays for trees in ensembles for tree in trees],
        )
        steps = self.learning_rate * stacked.output[stacked.descend(X)]
        scores = np.tile(self.base_scores_, (len(X), 1))
        first = 0
        for p, ensemble in enumerate(self.ensembles_):
            last = first + len(ensemble)
            scores[:, p] = sum_in_order(scores[:, p], steps[first:last])
            first = last
        return scores

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        raw = self._raw_scores(X)
        if raw.shape[1] == 1:
            pos = _sigmoid(raw[:, 0])
            return np.column_stack([1 - pos, pos])
        probs = _sigmoid(raw)
        totals = probs.sum(axis=1, keepdims=True)
        totals[totals == 0] = 1.0
        return probs / totals


class GradientBoostingRegressor(BaseRegressor):
    """Boosted trees with squared loss (hessian = 1)."""

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        reg_lambda: float = 1.0,
        subsample: float = 1.0,
        seed: int | np.random.Generator | None = None,
    ):
        super().__init__()
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.subsample = subsample
        self.seed = seed
        self.trees_: list[_NewtonTree] | None = None
        self.base_score_: float = 0.0
        self._stacked = StackedTrees()

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        n = len(X)
        rngs = spawn_generators(self.seed, self.n_estimators)
        sampler = as_generator(self.seed)
        self.base_score_ = float(y.mean())
        raw = np.full(n, self.base_score_)
        hessians = np.ones(n)
        self.trees_ = []
        for round_ in range(self.n_estimators):
            gradients = raw - y
            if self.subsample < 1.0:
                rows = sampler.choice(
                    n, size=max(1, int(self.subsample * n)), replace=False
                )
            else:
                rows = np.arange(n)
            tree = _fit_newton_tree(
                X,
                gradients,
                hessians,
                self.max_depth,
                self.min_samples_leaf,
                self.reg_lambda,
                rows,
                rngs[round_],
            )
            raw += self.learning_rate * tree.predict(X)
            self.trees_.append(tree)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        stacked = self._stacked.get(
            self.trees_, lambda trees: [tree.arrays for tree in trees]
        )
        steps = self.learning_rate * stacked.output[stacked.descend(X)]
        return sum_in_order(np.full(len(X), self.base_score_), steps)
