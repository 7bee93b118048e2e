"""End-to-end tests for ``QUALITY(parameter)`` scoring pushdown.

The parameter form (``QUALITY(credibility) > 0.8``) resolves against
the relation's registered :class:`ScoringProfile` and is pushed into
the materialized score arrays (a ``ScoreFilter`` plan node); the tag
form (``QUALITY(column.indicator)``) keeps its own pushdown.  Every
pushed plan must agree with the planner-off per-cell path.
"""

from __future__ import annotations

import pytest

from repro.analysis import analyze_query
from repro.sql.errors import SQLError
from repro.quality.materialize import (
    ScoringProfile,
    clear_profiles,
    materializer_for,
    register_profile,
)
from repro.quality.scoring import credibility_scorer, timeliness_scorer
from repro.relational import hash_partitions
from repro.relational.schema import schema
from repro.sql import clear_plan_cache, execute
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import (
    IndicatorDefinition,
    IndicatorValue,
    TagSchema,
)
from repro.tagging.relation import TaggedRelation

SOURCES = [None, "audit", "phone", "fax"]


@pytest.fixture(autouse=True)
def _clean_state():
    clear_profiles()
    clear_plan_cache()
    yield
    clear_profiles()
    clear_plan_cache()


def make_relation(n=24):
    tag_schema = TagSchema(
        indicators=[
            IndicatorDefinition("source"),
            IndicatorDefinition("age", "FLOAT"),
        ],
        allowed={"v": ["source", "age"]},
    )
    relation = TaggedRelation(
        schema("readings", [("k", "INT"), ("v", "STR")]), tag_schema
    )
    for k in range(n):
        tags = []
        source = SOURCES[k % len(SOURCES)]
        if source is not None:
            tags.append(IndicatorValue("source", source))
        if k % 5:
            tags.append(IndicatorValue("age", float(10 * (k % 13))))
        relation.insert({"k": k, "v": QualityCell(f"v{k}", tags)})
    return relation


def register(ratings=None):
    return register_profile(
        ScoringProfile(
            "grades",
            [
                credibility_scorer(ratings or {"audit": 0.9, "phone": 0.3}),
                timeliness_scorer(100.0),
            ],
        ),
        relations=["readings"],
    )


def explain(sql, source):
    return "\n".join(row["plan"] for row in execute(f"EXPLAIN {sql}", source))


def canonical(result):
    return sorted(row.values_tuple() for row in result)


class TestPlanShape:
    def test_score_conjunct_becomes_score_filter(self):
        relation = make_relation()
        register()
        plan = explain(
            "SELECT k FROM readings WHERE QUALITY(credibility) > 0.5",
            relation,
        )
        assert "ScoreFilter [QUALITY(credibility) > 0.5" in plan
        assert "Filter" not in plan.replace("ScoreFilter", "")

    def test_residual_value_predicate_survives(self):
        relation = make_relation()
        register()
        plan = explain(
            "SELECT k FROM readings "
            "WHERE QUALITY(credibility) > 0.5 AND k >= 4",
            relation,
        )
        assert "ScoreFilter" in plan
        assert "Filter [k >= 4]" in plan

    def test_score_filter_stacks_on_tag_pushdown(self):
        relation = make_relation()
        register()
        plan = explain(
            "SELECT k FROM readings "
            "WHERE QUALITY(v.source) = 'audit' "
            "AND QUALITY(timeliness) >= 0.4",
            relation,
        )
        assert "ScoreFilter" in plan
        assert "QualityFilter" in plan

    def test_unregistered_relation_keeps_per_row_filter(self):
        relation = make_relation()
        register()
        clear_profiles()  # no binding: the rewrite must not fire
        register_profile(
            ScoringProfile(
                "unbound", [credibility_scorer({"audit": 0.9})]
            )
        )
        plan = explain(
            "SELECT k FROM readings WHERE QUALITY(credibility) > 0.5",
            relation,
        )
        assert "ScoreFilter" not in plan
        assert "Filter" in plan

    def test_order_by_score_reads_materialized_scores(self):
        relation = make_relation()
        register()
        plan = explain(
            "SELECT k FROM readings WHERE QUALITY(credibility) >= 0.3 "
            "ORDER BY QUALITY(credibility) DESC, k LIMIT 6",
            relation,
        )
        assert plan == "\n".join(
            [
                "Materialize [columnar -> rows]",
                "└─ Project [k]",
                "   └─ TopK [QUALITY(credibility) DESC -> materialized "
                "scores, k ASC, k=6]",
                "      └─ ScoreFilter [QUALITY(credibility) >= 0.3 -> "
                "materialized scores]",
                "         └─ Scan [readings (tagged, columnar)]",
            ]
        )
        unlimited = explain(
            "SELECT k FROM readings ORDER BY k, QUALITY(timeliness)",
            relation,
        )
        assert unlimited == "\n".join(
            [
                "Project [k]",
                "└─ Sort [k ASC, QUALITY(timeliness) ASC -> materialized "
                "scores]",
                "   └─ Scan [readings (tagged)]",
            ]
        )


class TestEquivalence:
    def test_pushdown_matches_planner_off_and_oracle(self):
        relation = make_relation()
        register()
        sql = (
            "SELECT k FROM readings WHERE QUALITY(credibility) > 0.5"
        )
        pushed = execute(sql, relation)
        reference = execute(sql, relation, planner=False)
        assert canonical(pushed) == canonical(reference)
        scores = materializer_for(relation).row_scores("credibility")
        oracle = sorted(
            (row.value("k"),)
            for row, score in zip(relation.row_batch(), scores)
            if score is not None and score > 0.5
        )
        assert canonical(pushed) == oracle
        assert 0 < len(pushed) < len(relation)

    def test_mixed_tag_score_and_value_predicates(self):
        relation = make_relation()
        register()
        sql = (
            "SELECT k FROM readings "
            "WHERE QUALITY(v.source) <> 'fax' "
            "AND QUALITY(timeliness) >= 0.4 AND k < 20"
        )
        assert canonical(execute(sql, relation)) == canonical(
            execute(sql, relation, planner=False)
        )

    def test_scores_in_projection_and_order_by(self):
        relation = make_relation()
        register()
        sql = (
            "SELECT k, QUALITY(credibility) AS cred FROM readings "
            "WHERE QUALITY(credibility) >= 0.3 "
            "ORDER BY QUALITY(credibility) DESC, k LIMIT 6"
        )
        pushed = execute(sql, relation)
        reference = execute(sql, relation, planner=False)
        assert [r.values_tuple() for r in pushed] == [
            r.values_tuple() for r in reference
        ]
        creds = [row["cred"] for row in pushed]
        assert creds == sorted(creds, reverse=True)

    def test_partitioned_relation_prunes_and_pushes(self):
        relation = make_relation(n=48)
        relation.repartition(hash_partitions("k", 8))
        register()
        sql = (
            "SELECT k FROM readings "
            "WHERE k = 5 AND QUALITY(timeliness) >= 0.1"
        )
        plan = explain(sql, relation)
        assert "partitions=1/8" in plan
        assert "ScoreFilter" in plan
        assert canonical(execute(sql, relation)) == canonical(
            execute(sql, relation, planner=False)
        )

    def test_unpruned_partitioned_scan_uses_flat_block(self):
        relation = make_relation(n=48)
        relation.repartition(hash_partitions("k", 8))
        register()
        sql = (
            "SELECT k FROM readings WHERE QUALITY(credibility) > 0.5"
        )
        assert canonical(execute(sql, relation)) == canonical(
            execute(sql, relation, planner=False)
        )


class TestDiagnosticsAndErrors:
    def test_dq212_for_unbound_relation(self):
        relation = make_relation()
        diagnostics = analyze_query(
            "SELECT k FROM readings WHERE QUALITY(credibility) > 0.5",
            relation,
        )
        assert "DQ212" in diagnostics.codes()
        assert diagnostics.has_errors

    def test_dq212_for_undefined_parameter(self):
        relation = make_relation()
        register()
        diagnostics = analyze_query(
            "SELECT k FROM readings WHERE QUALITY(accuracy) > 0.5",
            relation,
        )
        assert "DQ212" in diagnostics.codes()

    def test_registered_parameter_is_clean(self):
        relation = make_relation()
        register()
        diagnostics = analyze_query(
            "SELECT k FROM readings WHERE QUALITY(credibility) > 0.5",
            relation,
        )
        assert not diagnostics.has_errors

    def test_dq205_for_untagged_relation(self):
        from repro.relational.relation import Relation

        plain = Relation(schema("plain", [("k", "INT")]))
        plain.insert({"k": 1})
        diagnostics = analyze_query(
            "SELECT k FROM plain WHERE QUALITY(credibility) > 0.5", plain
        )
        assert "DQ205" in diagnostics.codes()
        with pytest.raises(SQLError):
            execute(
                "SELECT k FROM plain WHERE QUALITY(credibility) > 0.5",
                plain,
            )

    def test_execute_without_profile_raises(self):
        relation = make_relation()
        with pytest.raises(SQLError, match="no registered scoring profile"):
            execute(
                "SELECT k FROM readings "
                "WHERE QUALITY(credibility) > 0.5",
                relation,
            )

    @pytest.mark.parametrize("planner", [True, False])
    def test_order_by_score_without_profile_raises(self, planner):
        sql = "SELECT k FROM readings ORDER BY QUALITY(credibility) LIMIT 3"
        with pytest.raises(SQLError, match="no registered scoring profile"):
            execute(sql, make_relation(), planner=planner)
        # As before, an empty input never reaches the sort key.
        assert len(execute(sql, make_relation(n=0), planner=planner)) == 0


class TestPlanCacheInvalidation:
    def test_reregistration_invalidates_cached_plans(self):
        relation = make_relation()
        register()
        sql = (
            "SELECT k FROM readings WHERE QUALITY(credibility) > 0.5"
        )
        first = execute(sql, relation)
        assert len(first) > 0
        # Replace the profile with one that rates every source below
        # the cut; a stale cached plan would keep the old hits.
        register(ratings={"audit": 0.4, "phone": 0.1})
        assert len(execute(sql, relation)) == 0

    def test_score_free_statements_are_not_pinned(self):
        from repro.sql.plancache import PlanCache, execute_planned

        cache = PlanCache()
        relation = make_relation()
        register()
        plain_sql = "SELECT k FROM readings WHERE k > 3"
        scored_sql = (
            "SELECT k FROM readings WHERE QUALITY(credibility) > 0.5"
        )
        execute_planned(plain_sql, relation, cache=cache)
        execute_planned(scored_sql, relation, cache=cache)
        assert cache.lookup(plain_sql, relation)[0].scoring_version is None
        scored = cache.lookup(scored_sql, relation)[0]
        assert scored.scoring_version is not None
        # A registry mutation stales only the score-reading entry.
        register(ratings={"audit": 0.8})
        assert cache.lookup(plain_sql, relation) is not None
        assert cache.lookup(scored_sql, relation) is None
