"""Flat-array tree prediction is bit-identical to the recursive traversal.

Trees used to be linked node objects, and prediction recursed into every
node, then assigned leaves row by row.  They are now flat node arrays
descended by vectorised gathers (``repro.models.tree.TreeArrays``).  The
oracle below is that recursive traversal, run over the nested node
dicts of each model's JSON document, with the old per-row arithmetic
and the old tree-by-tree sums.  Every tree model kind on every bundled
dataset must agree with it exactly (``np.array_equal``), including on
0-row, 1-row, 1-D and NaN inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.registry import load_dataset
from repro.models.boosting import GradientBoostingClassifier, GradientBoostingRegressor
from repro.models.forest import RandomForestClassifier, RandomForestRegressor
from repro.models.serialize import model_to_dict
from repro.models.tree import DecisionTreeClassifier, DecisionTreeRegressor

DATASETS = ["german", "adult", "compas", "drug", "german_syn"]
N_ROWS = 600

MODELS = {
    "tree": lambda: DecisionTreeClassifier(seed=0),
    "tree-reg": lambda: DecisionTreeRegressor(seed=0),
    "forest": lambda: RandomForestClassifier(n_estimators=6, max_depth=8, seed=0),
    "forest-reg": lambda: RandomForestRegressor(n_estimators=6, max_depth=8, seed=0),
    "boosting": lambda: GradientBoostingClassifier(n_estimators=6, max_depth=3, seed=0),
    "boosting-reg": lambda: GradientBoostingRegressor(n_estimators=6, max_depth=3, seed=0),
}


# ---------------------------------------------------------------------------
# the recursive oracle


def _traverse(node: dict, X: np.ndarray, out_nodes: list, indices: np.ndarray) -> None:
    """Recursive tree traversal: record the leaf node of each row."""
    if "left" not in node:
        for i in indices:
            out_nodes[i] = node
        return
    mask = X[indices, node["feature"]] <= node["threshold"]
    _traverse(node["left"], X, out_nodes, indices[mask])
    _traverse(node["right"], X, out_nodes, indices[~mask])


def _leaves(root: dict, X: np.ndarray) -> list[dict]:
    nodes: list = [None] * len(X)
    _traverse(root, X, nodes, np.arange(len(X)))
    return nodes


def oracle_apply(root: dict, X: np.ndarray) -> np.ndarray:
    return np.array([n["leaf_id"] for n in _leaves(root, X)], dtype=np.int64)


def oracle_tree_proba(root: dict, X: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.empty((len(X), n_classes))
    for i, node in enumerate(_leaves(root, X)):
        counts = np.asarray(node["value"], dtype=float)
        out[i] = counts / counts.sum()
    return out


def oracle_tree_predict(root: dict, X: np.ndarray) -> np.ndarray:
    return np.array([n["value"] for n in _leaves(root, X)], dtype=np.float64)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))


def _newton(tree: dict, X: np.ndarray) -> np.ndarray:
    return np.asarray(tree["leaf_values"])[oracle_apply(tree["tree"]["root"], X)]


def oracle_outputs(doc: dict, X: np.ndarray) -> np.ndarray:
    """What the recursive implementation predicted for ``doc`` on ``X``."""
    kind, payload = doc["kind"], doc["payload"]
    if kind == "DecisionTreeClassifier":
        return oracle_tree_proba(payload["root"], X, len(payload["classes"]))
    if kind == "DecisionTreeRegressor":
        return oracle_tree_predict(payload["root"], X)
    if kind == "RandomForestClassifier":
        proba = np.zeros((len(X), len(payload["classes"])))
        for tree in payload["trees"]:
            proba += oracle_tree_proba(tree["root"], X, len(payload["classes"]))
        return proba / len(payload["trees"])
    if kind == "RandomForestRegressor":
        pred = np.zeros(len(X))
        for tree in payload["trees"]:
            pred += oracle_tree_predict(tree["root"], X)
        return pred / len(payload["trees"])
    rate = payload["learning_rate"]
    if kind == "GradientBoostingRegressor":
        pred = np.full(len(X), payload["base_score"])
        for tree in payload["trees"]:
            pred += rate * _newton(tree, X)
        return pred
    assert kind == "GradientBoostingClassifier"
    raw = np.tile(np.asarray(payload["base_scores"]), (len(X), 1))
    for p, ensemble in enumerate(payload["ensembles"]):
        for tree in ensemble:
            raw[:, p] += rate * _newton(tree, X)
    if raw.shape[1] == 1:
        pos = _sigmoid(raw[:, 0])
        return np.column_stack([1 - pos, pos])
    probs = _sigmoid(raw)
    totals = probs.sum(axis=1, keepdims=True)
    totals[totals == 0] = 1.0
    return probs / totals


def tree_roots(doc: dict) -> list[dict]:
    """Every tree's root node dict in ``doc``, in fit order."""
    payload = doc["payload"]
    if "root" in payload:
        return [payload["root"]]
    if "ensembles" in payload:
        return [t["tree"]["root"] for ensemble in payload["ensembles"] for t in ensemble]
    return [t["root"] if "root" in t else t["tree"]["root"] for t in payload["trees"]]


def fitted_trees(model) -> list:
    """Every fitted ``DecisionTree*`` inside ``model``, in fit order."""
    if isinstance(model, (DecisionTreeClassifier, DecisionTreeRegressor)):
        return [model]
    if hasattr(model, "ensembles_"):
        return [t.tree for ensemble in model.ensembles_ for t in ensemble]
    return [getattr(t, "tree", t) for t in model.trees_]


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="module", params=DATASETS)
def matrix(request):
    bundle = load_dataset(request.param, n_rows=N_ROWS, seed=0)
    table = bundle.table
    X = np.column_stack([table.codes(n) for n in bundle.feature_names]).astype(float)
    return X, table.codes(bundle.label)


def inputs(X: np.ndarray, root_feature: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(0)
    with_nan = X[:30].copy()
    with_nan[::2, root_feature] = np.nan
    with_nan[rng.random(with_nan.shape) < 0.2] = np.nan
    return {
        "all": X,
        "empty": X[:0],
        "one": X[:1],
        "nan": with_nan,
    }


def fit(name: str, X: np.ndarray, y: np.ndarray):
    model = MODELS[name]()
    return model.fit(X, y if hasattr(model, "predict_proba") else y.astype(float))


def outputs(model, X) -> np.ndarray:
    if hasattr(model, "predict_proba"):
        return model.predict_proba(X)
    return model.predict(X)


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("name", sorted(MODELS))
def test_outputs_and_leaves_match_recursive_oracle(name, matrix):
    X, y = matrix
    model = fit(name, X, y)
    doc = model_to_dict(model)
    roots = tree_roots(doc)
    for label, rows in inputs(X, roots[0]["feature"]).items():
        expected = oracle_outputs(doc, rows)
        assert np.array_equal(outputs(model, rows), expected), label
        if hasattr(model, "predict_proba"):
            predicted = model.classes_[np.argmax(expected, axis=1)]
            assert np.array_equal(model.predict(rows), predicted), label
        for tree, root in zip(fitted_trees(model), roots, strict=True):
            assert np.array_equal(tree.apply(rows), oracle_apply(root, rows)), label
    # a 1-D input is one row, as for predict
    assert np.array_equal(outputs(model, X[0]), oracle_outputs(doc, X[:1]))
    for tree, root in zip(fitted_trees(model), roots):
        assert np.array_equal(tree.apply(X[0]), oracle_apply(root, X[:1]))


def test_nan_goes_right(matrix):
    X, y = matrix
    tree = DecisionTreeClassifier(max_depth=3, seed=0).fit(X, y)
    nodes = tree.tree_
    rows = X[:10].copy()
    rows[:, nodes.feature[0]] = np.nan
    # pre-order layout: the right subtree is every node from right[0] on
    assert (nodes.descend(rows)[0] >= nodes.right[0]).all()


def test_too_few_columns_is_an_error(matrix):
    X, y = matrix
    tree = DecisionTreeClassifier(seed=0).fit(X, y)
    with pytest.raises(ValueError, match="features"):
        tree.predict(X[:, : tree.tree_.n_features - 1])
