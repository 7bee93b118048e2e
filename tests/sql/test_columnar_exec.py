"""Columnar access paths: planner choice, escape hatch, edge cases."""

import pytest

from repro.obs.stats import StatsCollector
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema
from repro.sql import clear_plan_cache, execute
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import IndicatorDefinition, IndicatorValue, TagSchema
from repro.tagging.relation import TaggedRelation

SCHEMA = RelationSchema(
    "t", [Column("a", "INT"), Column("b", "INT"), Column("c", "STR")]
)


def make_relation(n):
    return Relation.from_tuples(
        SCHEMA,
        [
            (i, None if i % 5 == 0 else i % 7, ["x", "y", "z"][i % 3])
            for i in range(n)
        ],
    )


def explain(sql, source, **kwargs):
    return "\n".join(
        row["plan"] for row in execute(f"EXPLAIN {sql}", source, **kwargs)
    )


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestAccessPathChoice:
    def test_scan_heavy_plan_goes_columnar_over_threshold(self):
        relation = make_relation(200)
        plan = explain("SELECT a FROM t WHERE a > 10", relation)
        assert "Materialize [columnar -> rows]" in plan
        assert "Scan [t (plain, columnar)]" in plan

    def test_bare_scan_stays_on_row_path(self):
        # SELECT * is a row_batch() passthrough — transposing to arrays
        # and materializing back would only add work.
        plan = explain("SELECT * FROM t", make_relation(200))
        assert "columnar" not in plan

    def test_limit_only_stays_on_row_path(self):
        plan = explain("SELECT * FROM t LIMIT 5", make_relation(200))
        assert "columnar" not in plan

    def test_topk_only_stays_on_row_path(self):
        plan = explain(
            "SELECT * FROM t ORDER BY a LIMIT 5", make_relation(200)
        )
        assert "columnar" not in plan

    def test_filter_then_topk_goes_columnar(self):
        plan = explain(
            "SELECT a, c FROM t WHERE b >= 2 ORDER BY a DESC LIMIT 5",
            make_relation(200),
        )
        assert "Materialize [columnar -> rows]" in plan
        # The whole chain sits inside the columnar fragment.
        assert plan.index("Materialize") < plan.index("Project")
        assert plan.index("Project") < plan.index("TopK")
        assert plan.index("TopK") < plan.index("Filter")

    def test_tagged_relation_goes_columnar(self):
        tags = TagSchema(
            [IndicatorDefinition("source", "STR")], allowed={"a": ["source"]}
        )
        tagged = TaggedRelation(SCHEMA, tags)
        for i in range(100):
            tagged.insert(
                {
                    "a": QualityCell(i, [IndicatorValue("source", "s1")]),
                    "b": QualityCell(i % 7),
                    "c": QualityCell("x"),
                }
            )
        plan = explain("SELECT a FROM t WHERE a > 10", tagged)
        assert plan.startswith("Materialize [columnar -> rows]")
        assert "Scan [t (tagged, columnar)]" in plan
        # The escape hatch keeps tagged plans on the row path.
        row_plan = explain("SELECT a FROM t WHERE a > 10", tagged, columnar=False)
        assert "columnar" not in row_plan

    def test_aggregate_above_columnar_filter(self):
        plan = explain(
            "SELECT COUNT(*) AS n FROM t WHERE a > 10", make_relation(200)
        )
        # The aggregate needs rows; the filter below it still vectorizes.
        assert "Aggregate" in plan
        assert "Materialize [columnar -> rows]" in plan
        assert plan.index("Aggregate") < plan.index("Materialize")

    def test_distinct_above_columnar_fragment(self):
        plan = explain(
            "SELECT DISTINCT c FROM t WHERE a > 10", make_relation(200)
        )
        assert "Distinct" in plan
        assert "Materialize [columnar -> rows]" in plan

    def test_escape_hatch_forces_row_plans(self):
        relation = make_relation(200)
        plan = explain(
            "SELECT a FROM t WHERE a > 10", relation, columnar=False
        )
        assert "columnar" not in plan

    def test_escape_hatch_same_result(self):
        relation = make_relation(200)
        sql = "SELECT a, c FROM t WHERE b >= 2 ORDER BY a DESC, c LIMIT 9"
        fast = execute(sql, relation)
        slow = execute(sql, relation, columnar=False)
        assert [r.values_tuple() for r in fast] == [
            r.values_tuple() for r in slow
        ]


class TestExplainAnalyze:
    def test_columnar_operators_annotated(self):
        relation = make_relation(200)
        lines = [
            row["plan"]
            for row in execute(
                "EXPLAIN ANALYZE SELECT a FROM t WHERE a > 10", relation
            )
        ]
        text = "\n".join(lines)
        assert "batch=columnar" in text
        scan_line = next(l for l in lines if "Scan [t (plain, columnar)]" in l)
        assert "rows=200" in scan_line
        assert "columns=3" in scan_line
        filter_line = next(l for l in lines if l.lstrip("│├└─ ").startswith("Filter"))
        assert "rows=189" in filter_line
        assert "batch=columnar" in filter_line
        materialize_line = next(l for l in lines if "Materialize" in l)
        assert "rows=189" in materialize_line
        assert "batch=columnar" not in materialize_line

    def test_stats_collector_sees_columnar_tree(self):
        relation = make_relation(200)
        collector = StatsCollector()
        execute("SELECT a FROM t WHERE a > 10", relation, stats=collector)
        text = "\n".join(collector.execution.render_lines())
        assert "batch=columnar" in text


class TestSelectionVectorEdgeCases:
    SQL = "SELECT a FROM t WHERE {where}"

    def run_both(self, sql, relation):
        clear_plan_cache()
        fast = execute(sql, relation)
        slow = execute(sql, relation, columnar=False)
        assert [r.values_tuple() for r in fast] == [
            r.values_tuple() for r in slow
        ]
        return fast

    def test_empty_result(self):
        result = self.run_both(
            "SELECT a FROM t WHERE a > 100000", make_relation(100)
        )
        assert len(result) == 0

    def test_all_pass(self):
        result = self.run_both(
            "SELECT a FROM t WHERE a >= 0", make_relation(100)
        )
        assert len(result) == 100

    def test_null_heavy_column(self):
        relation = Relation.from_tuples(
            SCHEMA,
            [(i, None, None if i % 2 else "x") for i in range(100)],
        )
        result = self.run_both("SELECT a FROM t WHERE b >= 0", relation)
        assert len(result) == 0  # NULL never compares true
        kept = self.run_both("SELECT a FROM t WHERE b IS NULL", relation)
        assert len(kept) == 100

    def test_not_over_nulls_passes_them(self):
        relation = Relation.from_tuples(
            SCHEMA, [(i, None if i % 2 else 1, "x") for i in range(100)]
        )
        # NOT(b = 1): rows with NULL b fail the inner test, so NOT keeps
        # them — the columnar complement must match.
        result = self.run_both("SELECT a FROM t WHERE NOT (b = 1)", relation)
        assert len(result) == 50

    def test_or_preserves_row_order(self):
        relation = make_relation(150)
        result = self.run_both(
            "SELECT a FROM t WHERE c = 'z' OR a < 20", relation
        )
        values = [row["a"] for row in result]
        assert values == sorted(values)  # ascending row order == a order

    def test_in_and_not_in(self):
        relation = make_relation(150)
        self.run_both("SELECT a FROM t WHERE c IN ('x', 'q')", relation)
        self.run_both("SELECT a FROM t WHERE b NOT IN (1, 2)", relation)

    def test_column_vs_column(self):
        relation = make_relation(150)
        self.run_both("SELECT a FROM t WHERE b < a", relation)

    def test_delete_then_scan_alignment(self):
        # A cached columnar plan re-executed after deletes must rebuild
        # the value store (version-gated) and return the live rows.
        relation = make_relation(200)
        sql = "SELECT a FROM t WHERE a >= 0"
        clear_plan_cache()
        first = execute(sql, relation)
        assert len(first) == 200
        relation.delete(lambda row: row["a"] < 100)
        second = execute(sql, relation)  # cache hit, fresh arrays
        assert len(second) == 100
        assert [row["a"] for row in second] == list(range(100, 200))

    def test_insert_then_scan_sees_new_rows(self):
        relation = make_relation(100)
        sql = "SELECT a FROM t WHERE a >= 0"
        clear_plan_cache()
        assert len(execute(sql, relation)) == 100
        relation.insert({"a": 500, "b": 1, "c": "x"})
        assert len(execute(sql, relation)) == 101
