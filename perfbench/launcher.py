"""Benchmark server: one store-backed LEWIS tenant served over HTTP.

Builds the tenant with the same public calls ``repro snapshot --store``
and ``repro serve --store DIR --preload all`` make, then serves it until
SIGTERM::

    python3 perfbench/launcher.py --store DIR --port N --out FILE [--trace]

Progress goes to stdout as one ``SETUP {json}`` line of
``time.monotonic()`` stamps taken between the set-up calls, so the
benchmark can split its set-up time by phase.  At shutdown the launcher
writes ``FILE``: its peak resident memory and, with ``--trace``, the
layer spans of :mod:`spans`, which are installed before anything is
built.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

#: the tenant every workload runs against
DATASET = "adult"
ROWS = 20_000
DATA_SEED = 0
MODEL = "random_forest"
TENANT = "adult"


def build_lewis():
    """Dataset, black box and explainer, exactly as ``repro`` CLI builds them.

    Returns ``(bundle, lewis, stamps)`` where ``stamps`` holds a
    ``time.monotonic()`` reading after each call.
    """
    from repro import Lewis, fit_table_model, load_dataset, train_test_split

    stamps = {}
    bundle = load_dataset(DATASET, n_rows=ROWS, seed=DATA_SEED)
    train, test = train_test_split(bundle.table, test_fraction=0.3, seed=DATA_SEED)
    stamps["dataset"] = time.monotonic()
    model = fit_table_model(
        MODEL, train, bundle.feature_names, bundle.label, seed=DATA_SEED
    )
    stamps["fit"] = time.monotonic()
    lewis = Lewis(
        model,
        data=test,
        graph=bundle.graph,
        positive_outcome=bundle.positive_label,
        threshold=0.5 if bundle.positive_label is None else None,
    )
    stamps["explainer"] = time.monotonic()
    return bundle, lewis, stamps


def build_tenant_schema() -> tuple[int, dict[str, tuple]]:
    """Row count and column domains of the served table, without a fit."""
    from repro import load_dataset, train_test_split

    bundle = load_dataset(DATASET, n_rows=ROWS, seed=DATA_SEED)
    _train, test = train_test_split(bundle.table, test_fraction=0.3, seed=DATA_SEED)
    return len(test), {name: test.column(name).categories for name in test.names}


def _stop_with_parent(parent: int) -> None:
    """SIGTERM this server once the benchmark that spawned it is gone."""
    while os.getppid() == parent:
        time.sleep(1.0)
    os.kill(os.getpid(), signal.SIGTERM)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    threading.Thread(
        target=_stop_with_parent, args=(os.getppid(),), daemon=True
    ).start()

    recorder = None
    if args.trace:
        import spans

        recorder = spans.install()

    from repro.service import ResultCache
    from repro.service.server import serve
    from repro.store import ArtifactStore, Registry, checkpoint_session, create_tenant

    stamps = {"imported": time.monotonic()}
    bundle, lewis, built = build_lewis()
    stamps.update(built)
    # `repro snapshot --store DIR` (tensors warmed before the snapshot)
    store = ArtifactStore(args.store)
    session = create_tenant(
        store, TENANT, lewis, default_actionable=bundle.actionable, snapshot=False
    )
    session.explain_global()
    checkpoint_session(store, session, TENANT)
    session.close()
    stamps["snapshot"] = time.monotonic()
    # `repro serve --store DIR --preload all` with its default budgets
    registry = Registry(
        args.store, max_bytes=256 << 20, cache=ResultCache(max_bytes=32 << 20),
        background=True,
    )
    registry.get(TENANT)
    stamps["preload"] = time.monotonic()
    print("SETUP " + json.dumps(stamps), flush=True)
    serve(host="127.0.0.1", port=args.port, registry=registry)

    result = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if recorder is not None:
        result["spans"] = recorder.export()
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
