"""Columnar sanitizer checks (armed by ``REPRO_VERIFY_PLANS``).

Unit tests drive the check functions directly with corrupted batches;
the end-to-end tests run real columnar statements with the sanitizer
wrappers installed and assert they stay silent on well-formed plans.
"""

import pytest

from repro.relational.relation import Relation
from repro.relational.schema import schema
from repro.sql.executor import execute
from repro.sql.physical import (
    ColumnarSanitizerError,
    _check_columnar_batch,
    _TaggedSource,
    _fragment_ordered,
    sanitize_enabled,
)
from repro.sql.plan import Limit, Scan, TopK
from repro.sql.plancache import clear_plan_cache

T_SCHEMA = schema("t", [("a", "INT"), ("b", "STR")], key=["a"])


class TestBatchCheck:
    def test_well_formed_batch_passes(self):
        _check_columnar_batch(
            "Filter", T_SCHEMA, ([[1, 2, 3], ["x", "y", "z"]], [0, 2]), True
        )
        _check_columnar_batch(
            "Scan", T_SCHEMA, ([[1, 2], ["x", "y"]], None), True
        )

    def test_array_count_mismatch_raises(self):
        with pytest.raises(ColumnarSanitizerError, match="arrays"):
            _check_columnar_batch("Filter", T_SCHEMA, ([[1, 2]], None), True)

    def test_array_length_mismatch_raises(self):
        with pytest.raises(ColumnarSanitizerError, match="length"):
            _check_columnar_batch(
                "Filter", T_SCHEMA, ([[1, 2], ["x"]], None), True
            )

    def test_selection_out_of_bounds_raises(self):
        with pytest.raises(ColumnarSanitizerError, match="out-of-bounds"):
            _check_columnar_batch(
                "Filter", T_SCHEMA, ([[1, 2], ["x", "y"]], [0, 5]), True
            )

    def test_ordered_fragment_requires_ascending_selection(self):
        with pytest.raises(ColumnarSanitizerError):
            _check_columnar_batch(
                "Filter", T_SCHEMA, ([[1, 2, 3], ["x", "y", "z"]], [2, 0]),
                True,
            )

    def test_unordered_fragment_allows_key_order(self):
        # TopK emits selection vectors in key order, not row order.
        _check_columnar_batch(
            "TopK", T_SCHEMA, ([[1, 2, 3], ["x", "y", "z"]], [2, 0, 1]),
            False,
        )

    def test_tagged_source_must_match_array_length(self):
        source = _TaggedSource(None, [(None, ["r0", "r1", "r2"])])
        with pytest.raises(ColumnarSanitizerError, match="tagged source"):
            _check_columnar_batch(
                "Filter", T_SCHEMA, ([[1, 2], ["x", "y"]], None, source), True
            )

    def test_unordered_fragment_rejects_duplicates(self):
        with pytest.raises(ColumnarSanitizerError):
            _check_columnar_batch(
                "TopK", T_SCHEMA, ([[1, 2, 3], ["x", "y", "z"]], [2, 2]),
                False,
            )


class TestFragmentOrder:
    def test_scan_and_row_preserving_operators_are_ordered(self):
        scan = Scan("t", columnar=True)
        assert _fragment_ordered(scan)
        assert _fragment_ordered(Limit(scan, 3))

    def test_topk_breaks_order_for_everything_above(self):
        from repro.sql.nodes import ColumnRef, OrderItem

        topk = TopK(
            Scan("t", columnar=True), (OrderItem(ColumnRef("a")),), 3
        )
        assert not _fragment_ordered(topk)
        assert not _fragment_ordered(Limit(topk, 2))


class TestEndToEnd:
    @pytest.fixture(autouse=True)
    def sanitized_columnar_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        clear_plan_cache()
        yield
        clear_plan_cache()

    def make_relation(self, n=30):
        relation = Relation(T_SCHEMA)
        for i in range(n):
            relation.insert({"a": i, "b": f"s{i % 5}"})
        return relation

    def test_flag_arms_sanitizer(self):
        assert sanitize_enabled()

    def test_columnar_statements_run_clean(self):
        relation = self.make_relation()
        result = execute("SELECT a FROM t WHERE b = 's1'", relation)
        assert len(result) == 6
        topk = execute(
            "SELECT a, b FROM t WHERE a > 3 ORDER BY a DESC LIMIT 4",
            relation,
        )
        assert [row["a"] for row in topk.rows] == [29, 28, 27, 26]

    def test_tagged_fragment_runs_clean(self):
        from repro.quality.materialize import (
            ScoringProfile,
            clear_profiles,
            register_profile,
        )
        from repro.quality.scoring import credibility_scorer
        from repro.tagging.cell import QualityCell
        from repro.tagging.indicators import (
            IndicatorDefinition,
            IndicatorValue,
            TagSchema,
        )
        from repro.tagging.relation import TaggedRelation

        tags = TagSchema(
            [IndicatorDefinition("source", "STR")], allowed={"b": ["source"]}
        )
        relation = TaggedRelation(T_SCHEMA, tags)
        for i in range(30):
            source = IndicatorValue("source", "s1" if i % 3 else "s2")
            relation.insert({"a": i, "b": QualityCell(f"s{i % 5}", [source])})
        register_profile(
            ScoringProfile(
                "cred", [credibility_scorer({"s1": 0.9, "s2": 0.4})]
            ),
            relations=["t"],
        )
        try:
            top = execute(
                "SELECT a FROM t WHERE QUALITY(credibility) > 0.5 AND a > 3 "
                "ORDER BY QUALITY(credibility) DESC, a DESC LIMIT 3",
                relation.read_snapshot(),
            )
        finally:
            clear_profiles()
        assert [row["a"].value for row in top.rows] == [29, 28, 26]

    @pytest.mark.parametrize(
        "indices, problem",
        [([0, 99], "out-of-bounds"), ([3, 1], "ascending")],
    )
    def test_row_quality_filter_checks_scan_indices(
        self, monkeypatch, indices, problem
    ):
        # A columnar=False QualityFilter reads through the tagged leaf,
        # so the batch check still vets a tag-store scan's hits.
        from repro.tagging.cell import QualityCell
        from repro.tagging.columnar import ColumnarTagStore
        from repro.tagging.indicators import (
            IndicatorDefinition,
            IndicatorValue,
            TagSchema,
        )
        from repro.tagging.relation import TaggedRelation

        tags = TagSchema(
            [IndicatorDefinition("source", "STR")], allowed={"b": ["source"]}
        )
        relation = TaggedRelation(T_SCHEMA, tags)
        for i in range(6):
            source = IndicatorValue("source", "s1")
            relation.insert({"a": i, "b": QualityCell(f"s{i}", [source])})
        monkeypatch.setattr(
            ColumnarTagStore, "scan", lambda self, constraints: list(indices)
        )
        with pytest.raises(ColumnarSanitizerError, match=problem):
            execute(
                "SELECT a FROM t WHERE QUALITY(b.source) = 's1'",
                relation,
                columnar=False,
            )

    def test_cached_sanitized_plan_reruns_clean(self):
        relation = self.make_relation()
        sql = "SELECT b FROM t WHERE a >= 25"
        first = execute(sql, relation)
        second = execute(sql, relation)
        assert len(first) == len(second) == 5
