"""Columnar equivalence properties: columnar ≡ row-path ≡ naive.

The columnar access path must be invisible in every result: for any
generated statement over a plain or tagged relation, the planner's
vectorized path (column arrays + selection vectors, late
materialization) has to agree byte-for-byte with the row-at-a-time
planned path (``columnar=False``), the unoptimized plan
(``planner=False``), and the naive AST-walking reference.  Access-path
choice ignores relation size, so even the tiny generated relations take
the columnar path.

Tagged statements mix value predicates (NULLs, mixed-type literals),
``QUALITY(column.indicator)`` and ``QUALITY(parameter)`` filters, and
ORDER BY on values and materialized scores with ties and LIMIT.  They
run on flat and partitioned relations, on a read snapshot taken after a
write, so the fragment reads value, tag and score arrays carried over
from the previous snapshot; the tests also check those carried arrays
against a fresh build.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.naive import naive_execute
from repro.quality.materialize import (
    ScoringProfile,
    clear_profiles,
    materializer_for,
    register_profile,
    row_parameter_score,
    tagged_positions,
)
from repro.quality.scoring import credibility_scorer
from repro.relational import hash_partitions
from repro.relational.schema import Column, RelationSchema
from repro.service.http import relation_to_payload
from repro.sql import clear_plan_cache, execute
from repro.tagging.cell import QualityCell
from repro.tagging.columnar import ColumnarTagStore
from repro.tagging.relation import TaggedRelation

from tests.sql.test_planner_equivalence import (
    SCHEMA,
    TAGS,
    canonical,
    plain_relations,
    predicates,
    statements,
    tagged_relations,
)

PROFILE = ScoringProfile(
    "credibility", [credibility_scorer({"s1": 0.9, "s2": 0.4})]
)
#: The oracle's copy of ``t`` carries each row's credibility score as
#: a plain column, so the naive interpreter can filter and sort on it.
ORACLE_SCHEMA = RelationSchema(
    "t", list(SCHEMA.columns) + [Column("cred", "FLOAT")]
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    clear_profiles()
    yield
    clear_plan_cache()
    clear_profiles()


def assert_columnar_three_way(sql, relation):
    clear_plan_cache()
    columnar_cold = canonical(execute(sql, relation))
    columnar_cached = canonical(execute(sql, relation))  # plan-cache hit
    row_planned = canonical(execute(sql, relation, columnar=False))
    unplanned = canonical(execute(sql, relation, planner=False))
    naive = canonical(naive_execute(sql, relation))
    assert columnar_cold == columnar_cached
    assert columnar_cold == row_planned
    assert columnar_cold == unplanned
    assert columnar_cold == naive


class TestColumnarEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(plain_relations(), statements(quality=False))
    def test_plain(self, relation, sql):
        assert_columnar_three_way(sql, relation)


# -- tagged relations ---------------------------------------------------------


@st.composite
def score_predicates(draw):
    """A WHERE conjunction over values, tags and the credibility score.

    Each conjunct is optional: a score comparison (pushed into a
    ScoreFilter), a tag comparison (pushed into a QualityFilter), a
    partition-key restriction (pruned on partitioned relations) and a
    generated value/tag predicate (NULLs, mixed-type literals, OR/NOT).
    """
    op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
    bound = draw(st.sampled_from(["0.4", "0.65", "0.9", "NULL", "'x'"]))
    tag_op = draw(st.sampled_from(["=", "<>", "<", ">="]))
    tag = draw(st.sampled_from(["a.source", "c.source", "a.age"]))
    tag_bound = draw(st.sampled_from(["'s1'", "'s2'", "1", "NULL"]))
    key = draw(st.sampled_from(["a = 1", "a IN (0, 2)", "a = 'x'"]))
    conjuncts = [
        f"QUALITY(credibility) {op} {bound}",
        f"QUALITY({tag}) {tag_op} {tag_bound}",
        key,
        draw(predicates(quality=True, depth=1)),
    ]
    chosen = [c for c in conjuncts if draw(st.booleans())]
    return " AND ".join(chosen) if chosen else None


@st.composite
def tagged_statements(draw):
    """Filtered, ordered and limited statements over tagged ``t``.

    The select list is always explicit (the oracle's copy of ``t``
    has the extra ``cred`` column).
    """
    columns = draw(
        st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True)
    )
    select = ", ".join(
        f"{column} AS r{position}" if draw(st.booleans()) else column
        for position, column in enumerate(columns)
    )
    where = draw(st.one_of(st.none(), score_predicates()))
    where_clause = f" WHERE {where}" if where else ""
    keys = draw(
        st.lists(
            st.sampled_from(
                ["a", "b", "c", "QUALITY(credibility)", "QUALITY(credibility)"]
            ),
            max_size=3,
            unique=True,
        )
    )
    order_clause = ""
    if keys:
        order_clause = " ORDER BY " + ", ".join(
            f"{key} DESC" if draw(st.booleans()) else key for key in keys
        )
    limit = draw(st.one_of(st.none(), st.integers(0, 6), st.integers(1, 4)))
    limit_clause = f" LIMIT {limit}" if limit is not None else ""
    return f"SELECT {select} FROM t{where_clause}{order_clause}{limit_clause}"


def oracle_relation(relation):
    """``relation`` with each row's credibility score as column ``cred``."""
    positions = tagged_positions(relation)
    oracle = TaggedRelation(ORACLE_SCHEMA, TAGS)
    for row in relation:
        cells = row.cells_dict()
        score = row_parameter_score(PROFILE, "credibility", row, positions)
        cells["cred"] = QualityCell(score)
        oracle.insert(cells)
    return oracle


def written(relation, partitioned):
    """A read snapshot of ``relation`` taken after a write that follows
    an earlier snapshot's reads, so its arrays are carried over."""
    if partitioned:
        relation.repartition(hash_partitions("a", 3))
    before = relation.read_snapshot()
    # Build the earlier snapshot's tag store and score blocks.
    execute("SELECT a FROM t WHERE QUALITY(credibility) >= 0.0", before)
    before.columnar_store()
    for bucket in range(3 if partitioned else 0):
        before.partition(bucket).columnar_store()
    relation.insert({"a": 1, "b": 2, "c": QualityCell("y")})
    relation.delete(lambda row: row.cells[1].value == 3)
    return relation.read_snapshot()


def assert_carried_arrays_fresh(snapshot):
    """Carried value/tag arrays and score blocks equal fresh builds."""
    segments = [(None, snapshot)]
    if snapshot.partition_spec is not None:
        segments += list(enumerate(snapshot.partitions()))
    for bucket, segment in segments:
        carried = segment.columnar_store()
        fresh = ColumnarTagStore.from_tagged_relation(segment)
        assert carried.tagged_rows is segment.row_batch()
        assert carried.column_arrays() == fresh.column_arrays()
        for column in TAGS.tagged_columns:
            for indicator in TAGS.allowed_for(column):
                assert carried.tag_array(column, indicator) == fresh.tag_array(
                    column, indicator
                )
        rows, scores = materializer_for(snapshot).score_array(
            "credibility", bucket
        )
        assert rows is segment.row_batch()
        positions = tagged_positions(segment)
        assert scores == [
            row_parameter_score(PROFILE, "credibility", row, positions)
            for row in rows
        ]


def assert_tagged_four_way(sql, snapshot):
    clear_plan_cache()
    columnar_cold = execute(sql, snapshot)
    columnar_cached = execute(sql, snapshot)  # plan-cache hit
    row_planned = execute(sql, snapshot, columnar=False)
    unplanned = execute(sql, snapshot, planner=False)
    naive = naive_execute(
        sql.replace("QUALITY(credibility)", "cred"), oracle_relation(snapshot)
    )
    expected = canonical(columnar_cold)
    assert canonical(columnar_cached) == expected
    assert canonical(row_planned) == expected
    assert canonical(unplanned) == expected
    assert canonical(naive) == expected
    payload = relation_to_payload(columnar_cold, include_tags=True)
    assert payload == relation_to_payload(row_planned, include_tags=True)
    assert payload == relation_to_payload(naive, include_tags=True)


class TestTaggedColumnarEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(tagged_relations(), tagged_statements(), st.booleans())
    def test_tagged(self, relation, sql, partitioned):
        register_profile(PROFILE, relations=["t"])
        snapshot = written(relation, partitioned)
        assert_tagged_four_way(sql, snapshot)
        assert_carried_arrays_fresh(snapshot)

    @settings(max_examples=60, deadline=None)
    @given(tagged_relations(), statements(quality=True), st.booleans())
    def test_tagged_generic_statements(self, relation, sql, partitioned):
        """The planner suite's tagged statements (star selects, QUALITY
        projections, aggregates, DISTINCT) on carried snapshots."""
        register_profile(PROFILE, relations=["t"])
        snapshot = written(relation, partitioned)
        clear_plan_cache()
        columnar = canonical(execute(sql, snapshot))
        assert canonical(execute(sql, snapshot, columnar=False)) == columnar
        assert canonical(execute(sql, snapshot, planner=False)) == columnar
        assert canonical(naive_execute(sql, snapshot)) == columnar

    def test_tagged_plans_take_the_columnar_path(self):
        relation = TaggedRelation(SCHEMA, TAGS)
        register_profile(PROFILE, relations=["t"])
        sql = (
            "EXPLAIN SELECT a, c FROM t WHERE QUALITY(credibility) > 0.5 "
            "AND b < 3 ORDER BY QUALITY(credibility) DESC, c LIMIT 2"
        )
        plan = [row["plan"] for row in execute(sql, relation)]
        assert plan[0] == "Materialize [columnar -> rows]"
        assert plan[-1].endswith("Scan [t (tagged, columnar)]")
