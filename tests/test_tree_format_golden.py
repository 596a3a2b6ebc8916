"""The tree models' JSON documents are a stable format.

``tests/fixtures/tree_models_german.json`` holds, for each tree model
kind fitted on German, the ``model_to_dict`` document, its
``model_fingerprint`` and its outputs, as written by the implementation
that kept trees as linked node objects.  Trees are now flat node arrays;
the serialiser converts to and from the nested node dicts.  These tests
pin that a fresh fit still writes the very same bytes (so stored
snapshots, replicated stores and result-cache keys stay valid) and that
the old documents still load and predict the same numbers.

Rewrite the fixture only on purpose, from the checkout whose format it
should pin::

    PYTHONPATH=src python tests/test_tree_format_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data.registry import load_dataset
from repro.models.boosting import GradientBoostingClassifier, GradientBoostingRegressor
from repro.models.forest import RandomForestClassifier, RandomForestRegressor
from repro.models.serialize import model_from_dict, model_to_dict
from repro.models.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.service.session import model_fingerprint

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "tree_models_german.json"
N_ROWS = 300
N_PREDICTED = 40

#: one small instance of every tree model kind
FACTORIES = {
    "DecisionTreeClassifier": lambda: DecisionTreeClassifier(max_depth=4, seed=0),
    "DecisionTreeRegressor": lambda: DecisionTreeRegressor(max_depth=4, seed=0),
    "RandomForestClassifier": lambda: RandomForestClassifier(
        n_estimators=3, max_depth=4, min_samples_leaf=2, seed=0
    ),
    "RandomForestRegressor": lambda: RandomForestRegressor(
        n_estimators=3, max_depth=4, min_samples_leaf=2, seed=0
    ),
    "GradientBoostingClassifier": lambda: GradientBoostingClassifier(
        n_estimators=4, max_depth=2, learning_rate=0.2, seed=0
    ),
    "GradientBoostingRegressor": lambda: GradientBoostingRegressor(
        n_estimators=4, max_depth=2, learning_rate=0.2, seed=0
    ),
}


def german():
    bundle = load_dataset("german", n_rows=N_ROWS, seed=0)
    table = bundle.table
    X = np.column_stack([table.codes(n) for n in bundle.feature_names]).astype(float)
    return table, X, table.codes(bundle.label)


def outputs(model, X: np.ndarray) -> list:
    head = X[:N_PREDICTED]
    if hasattr(model, "predict_proba"):
        return model.predict_proba(head).tolist()
    return model.predict(head).tolist()


def fit(kind: str, X: np.ndarray, y: np.ndarray):
    model = FACTORIES[kind]()
    target = y if hasattr(model, "predict_proba") else y.astype(float)
    return model.fit(X, target)


def write_fixture() -> None:
    table, X, y = german()
    entries = {}
    for kind in FACTORIES:
        model = fit(kind, X, y)
        entries[kind] = {
            "document": model_to_dict(model),
            "fingerprint": model_fingerprint(model, table),
            "outputs": outputs(model, X),
        }
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({"n_rows": N_ROWS, "models": entries}) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())["models"]


@pytest.fixture(scope="module")
def data():
    return german()


@pytest.mark.parametrize("kind", sorted(FACTORIES))
class TestTreeDocumentFormat:
    def test_fresh_fit_writes_the_same_bytes(self, kind, golden, data):
        table, X, y = data
        model = fit(kind, X, y)
        assert json.dumps(model_to_dict(model)) == json.dumps(golden[kind]["document"])
        assert model_fingerprint(model, table) == golden[kind]["fingerprint"]

    def test_stored_document_loads_and_predicts_the_same(self, kind, golden, data):
        table, X, _ = data
        model = model_from_dict(golden[kind]["document"])
        assert outputs(model, X) == golden[kind]["outputs"]
        assert model_fingerprint(model, table) == golden[kind]["fingerprint"]
        # and it re-serialises to itself
        assert json.dumps(model_to_dict(model)) == json.dumps(golden[kind]["document"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write_fixture()
