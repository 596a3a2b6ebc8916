"""ExplainerSession behaviour: request objects, caching, updates."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.lewis import Lewis
from repro.data.table import Table
from repro.monitor import MonitorSet
from repro.service import (
    ExplainerSession,
    GlobalExplainRequest,
    LocalExplainRequest,
    RecourseBatchRequest,
    RecourseRequest,
    ResultCache,
    ScoresRequest,
    TableDelta,
)
from repro.service.session import model_fingerprint
from repro.utils import deadline
from repro.utils.exceptions import DomainError


def tiny_model(features: Table) -> np.ndarray:
    """Deterministic stand-in black box: positive iff a + b >= 2."""
    return (features.codes("a") + features.codes("b")) >= 2


def make_table(seed: int = 0, n: int = 240) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_dict(
        {
            "a": rng.integers(0, 3, n).tolist(),
            "b": rng.integers(0, 3, n).tolist(),
            "sex": rng.choice(["F", "M"], n).tolist(),
        },
        domains={"a": [0, 1, 2], "b": [0, 1, 2], "sex": ["F", "M"]},
    )


@pytest.fixture()
def session():
    lewis = Lewis(
        tiny_model,
        data=make_table(),
        feature_names=["a", "b"],
        attributes=["a", "b", "sex"],
        infer_orderings=False,
    )
    with ExplainerSession(lewis, default_actionable=["a", "b"]) as s:
        yield s


class TestRequestHandling:
    def test_global_matches_direct_lewis_call(self, session):
        response = session.explain_global()
        direct = session.lewis.explain_global()
        assert response["cached"] is False
        assert response["result"]["ranking"] == direct.ranking()
        by_attr = {r["attribute"]: r for r in response["result"]["attributes"]}
        for score in direct.attribute_scores:
            assert by_attr[score.attribute]["necessity"] == score.necessity
            assert by_attr[score.attribute]["sufficiency"] == score.sufficiency

    def test_context_request_coerces_json_labels(self, session):
        # JSON clients send "1"; the domain holds int 1.
        response = session.explain_context({"a": "1"})
        assert response["result"]["context"] == {"a": 1}

    def test_local_by_index_matches_direct(self, session):
        response = session.explain_local(index=5)
        direct = session.lewis.explain_local(index=5)
        assert response["result"]["outcome_positive"] == direct.outcome_positive
        assert [c["attribute"] for c in response["result"]["contributions"]] == [
            c.attribute for c in direct.contributions
        ]

    def test_local_requires_exactly_one_selector(self, session):
        with pytest.raises(ValueError):
            session.handle(LocalExplainRequest(index=None, individual=None))

    def test_scores_match_scores_batch(self, session):
        contrasts = [({"a": 2}, {"a": 0}), ({"b": 2}, {"b": 1})]
        response = session.scores(contrasts)
        direct = session.lewis.scores_batch(contrasts)
        assert [s["necessity"] for s in response["result"]["scores"]] == [
            t.necessity for t in direct
        ]

    def test_audit_defaults_to_known_protected_names(self, session):
        response = session.audit()
        verdicts = response["result"]["verdicts"]
        assert [v["attribute"] for v in verdicts] == ["sex"]
        assert set(verdicts[0]) >= {"necessity", "sufficiency", "is_counterfactually_fair"}

    def test_recourse_without_actionable_raises(self):
        lewis = Lewis(
            tiny_model,
            data=make_table(),
            feature_names=["a", "b"],
            attributes=["a", "b", "sex"],
            infer_orderings=False,
        )
        with ExplainerSession(lewis) as bare:
            with pytest.raises(ValueError, match="actionable"):
                bare.recourse(index=int(lewis.negative_indices()[0]))

    def test_responses_are_json_serializable(self, session):
        for response in (
            session.explain_global(),
            session.explain_context({"sex": "M"}),
            session.explain_local(index=0),
            session.audit(),
        ):
            json.dumps(response)


class TestCaching:
    def test_repeat_request_hits_cache(self, session):
        first = session.explain_global()
        second = session.explain_global()
        assert first["cached"] is False and second["cached"] is True
        assert second["result"] == first["result"]
        assert session.cache.stats()["hits"] == 1

    def test_distinct_params_miss(self, session):
        session.explain_global()
        response = session.explain_global(max_pairs_per_attribute=2)
        assert response["cached"] is False

    def test_equivalent_requests_share_an_entry(self, session):
        session.handle(GlobalExplainRequest(attributes=("a", "b")))
        response = session.handle(GlobalExplainRequest(attributes=("a", "b")))
        assert response["cached"] is True

    def test_shared_cache_distinguishes_data_states(self):
        """Same model + schema but different rows must never cross-serve."""
        cache = ResultCache()
        lewis_a = Lewis(
            tiny_model, data=make_table(0), feature_names=["a", "b"],
            attributes=["a", "b", "sex"],
            infer_orderings=False,
        )
        lewis_b = Lewis(
            tiny_model, data=make_table(1), feature_names=["a", "b"],
            attributes=["a", "b", "sex"],
            infer_orderings=False,
        )
        with ExplainerSession(lewis_a, cache=cache) as sa, ExplainerSession(
            lewis_b, cache=cache
        ) as sb:
            assert sa.fingerprint == sb.fingerprint  # model + schema agree
            assert sa.state_token != sb.state_token  # content does not
            ra = sa.explain_global()
            rb = sb.explain_global()
            assert ra["cached"] is False and rb["cached"] is False
            assert len(cache) == 2

    def test_shared_cache_serves_identical_sessions(self):
        cache = ResultCache()

        def build():
            return Lewis(
                tiny_model, data=make_table(0), feature_names=["a", "b"],
                attributes=["a", "b", "sex"],
                infer_orderings=False,
            )

        with ExplainerSession(build(), cache=cache) as sa, ExplainerSession(
            build(), cache=cache
        ) as sb:
            assert sa.state_token == sb.state_token
            sa.explain_global()
            assert sb.explain_global()["cached"] is True

    def test_divergent_update_histories_do_not_collide(self):
        """Equal version counters with different deltas must not collide."""
        cache = ResultCache()

        def build():
            return Lewis(
                tiny_model, data=make_table(0), feature_names=["a", "b"],
                attributes=["a", "b", "sex"],
                infer_orderings=False,
            )

        with ExplainerSession(build(), cache=cache) as sa, ExplainerSession(
            build(), cache=cache
        ) as sb:
            sa.update({"delete": [0]})
            sb.update({"delete": [1]})
            assert sa.table_version == sb.table_version == 1
            assert sa.state_token != sb.state_token
            assert sa.explain_global()["cached"] is False
            assert sb.explain_global()["cached"] is False


class TestUpdates:
    def test_update_bumps_version_and_invalidates(self, session):
        session.explain_global()
        v0 = session.table_version
        rows = [session.lewis.data.row(i) for i in range(3)]
        response = session.update({"insert": rows, "delete": [0]})
        assert response["result"]["version"] == v0 + 1
        assert response["result"]["purged"] >= 1
        after = session.explain_global()
        assert after["cached"] is False

    def test_update_parity_with_fresh_explainer(self, session):
        rows = [session.lewis.data.row(i) for i in range(10)]
        session.update({"insert": rows, "delete": [2, 4, 6]})
        incremental = session.explain_global()["result"]
        fresh_lewis = Lewis(
            tiny_model,
            data=session.lewis.data,
            feature_names=["a", "b"],
            attributes=["a", "b", "sex"],
            infer_orderings=False,
        )
        with ExplainerSession(fresh_lewis) as fresh:
            rebuilt = fresh.explain_global()["result"]
        assert incremental == rebuilt

    def test_handle_update_request_invalidates_too(self, session):
        """Updates routed through handle() must purge like session.update()."""
        from repro.service import UpdateRequest

        baseline = session.explain_global()
        rows = [session.lewis.data.row(i) for i in range(30)]
        response = session.handle(
            UpdateRequest(delta=TableDelta(insert=tuple(rows)))
        )
        assert response["kind"] == "update"
        assert response["result"]["purged"] >= 1
        after = session.explain_global()
        assert after["cached"] is False
        assert after["result"] != baseline["result"]

    def test_empty_update_keeps_version(self, session):
        v0 = session.table_version
        response = session.update(TableDelta())
        assert response["result"]["version"] == v0
        assert session.table_version == v0

    def test_update_rejects_unknown_label(self, session):
        from repro.utils.exceptions import DomainError

        with pytest.raises(DomainError):
            session.update({"insert": [{"a": 0, "b": 0, "sex": "Martian"}]})

    def test_delta_validation(self):
        with pytest.raises(ValueError, match="unknown update fields"):
            TableDelta.from_json({"upsert": []})
        with pytest.raises(ValueError, match="insert"):
            TableDelta.from_json({"insert": "nope"})
        with pytest.raises(ValueError, match="delete"):
            TableDelta.from_json({"delete": [1.5]})


class TestRequestIsolation:
    """Each queued request runs alone: a bad neighbour cannot fail it."""

    def _flush_pair(self, session, kind, bad, good):
        lane = session._batcher
        bad_future = lane.submit(kind, bad)
        good_future = lane.submit(kind, good)
        assert lane.flush() == 2
        return bad_future, good_future

    def test_bad_local_index_fails_alone(self, session):
        bad, good = self._flush_pair(
            session,
            "explain_local",
            LocalExplainRequest(index=10**6),
            LocalExplainRequest(index=5),
        )
        with pytest.raises(IndexError):
            bad.result(timeout=1)
        assert good.result(timeout=1) == session.explain_local(index=5)["result"]

    def test_bad_recourse_index_fails_alone(self, session):
        index = int(session.lewis.negative_indices()[0])
        bad, good = self._flush_pair(
            session,
            "recourse",
            RecourseRequest(index=10**6),
            RecourseRequest(index=index),
        )
        with pytest.raises(IndexError):
            bad.result(timeout=1)
        assert good.result(timeout=1) == session.recourse(index)["result"]

    def test_unknown_scores_label_fails_alone(self, session):
        contrasts = (({"a": 2}, {"a": 0}),)
        bad, good = self._flush_pair(
            session,
            "scores",
            ScoresRequest(contrasts=(({"a": 7}, {"a": 0}),)),
            ScoresRequest(contrasts=contrasts),
        )
        with pytest.raises(DomainError):
            bad.result(timeout=1)
        assert good.result(timeout=1) == session.scores(contrasts)["result"]

    def test_unknown_monitor_get_fails_alone(self, session):
        monitors = MonitorSet(session)
        bad, good = self._flush_pair(
            session, "monitor", ("get", "m404"), ("list", None)
        )
        with pytest.raises(KeyError):
            bad.result(timeout=1)
        assert good.result(timeout=1) == monitors.list()


class TestPerRequestDeadline:
    def test_each_request_runs_under_its_own_deadline(self, session):
        # A 150 ms budget is under the anytime floor, so that request
        # degrades; its queue neighbour has no deadline and stays exact.
        lane = session._batcher
        with deadline.scope(150):
            tight = lane.submit("recourse_batch", RecourseBatchRequest())
        unbounded = lane.submit("recourse_batch", RecourseBatchRequest())
        lane.flush()
        tight, unbounded = tight.result(timeout=5), unbounded.result(timeout=5)
        assert tight["degraded"] is True
        assert tight["degraded_reason"] == "deadline"
        assert "degraded" not in unbounded
        assert all(
            r is None or r["mode"] == "exact" for r in unbounded["recourses"]
        )


class TestIntrospection:
    def test_stats_shape(self, session):
        session.explain_global()
        stats = session.stats()
        assert stats["requests_served"] == 1
        assert stats["table_version"] == 0
        for section in ("cache", "engine", "scheduler"):
            assert isinstance(stats[section], dict)
        json.dumps(stats)

    def test_fingerprint_stable_and_model_sensitive(self, session):
        table = make_table()
        assert model_fingerprint(tiny_model, table) == model_fingerprint(
            tiny_model, table
        )

    def test_render_service_stats(self, session):
        from repro.report import render_service_stats

        session.explain_global()
        text = render_service_stats(session.stats(), title="stats")
        assert text.startswith("stats")
        assert "cache:" in text and "hits" in text
