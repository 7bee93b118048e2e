"""Tests for materialized, incrementally maintained parameter scores."""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AssessmentError
from repro.obs import metrics
from repro.quality.materialize import (
    ScoreMaterializer,
    ScoringProfile,
    bind_profile,
    clear_profiles,
    materializer_for,
    parameter_defined,
    profile_for,
    register_profile,
    registry_version,
    row_parameter_score,
    tagged_positions,
)
from repro.quality.scoring import (
    QualityScorecard,
    credibility_scorer,
    timeliness_scorer,
)
from repro.relational import hash_partitions
from repro.relational.schema import schema
from repro.sql import execute
from repro.tagging.cell import QualityCell
from repro.tagging.columnar import ColumnarTagStore
from repro.tagging.indicators import (
    IndicatorDefinition,
    IndicatorValue,
    TagSchema,
)
from repro.tagging.relation import TaggedRelation

SOURCE_RATINGS = {"acct'g": 0.9, "estimate": 0.3}
SHELF_LIFE = 100.0


@pytest.fixture(autouse=True)
def _clean_registry():
    clear_profiles()
    yield
    clear_profiles()


def make_profile(name="grades", **kwargs):
    return ScoringProfile(
        name,
        [
            credibility_scorer(SOURCE_RATINGS),
            timeliness_scorer(SHELF_LIFE),
        ],
        **kwargs,
    )


def make_relation(name="readings"):
    tag_schema = TagSchema(
        indicators=[
            IndicatorDefinition("source"),
            IndicatorDefinition("age", "FLOAT"),
        ],
        allowed={"v": ["source", "age"]},
    )
    return TaggedRelation(
        schema(name, [("k", "INT"), ("v", "STR")]), tag_schema
    )


def tagged_cell(value, source=None, age=None):
    tags = []
    if source is not None:
        tags.append(IndicatorValue("source", source))
    if age is not None:
        tags.append(IndicatorValue("age", age))
    return QualityCell(value, tags)


def insert_row(relation, k, source=None, age=None):
    relation.insert({"k": k, "v": tagged_cell(f"v{k}", source, age)})


def expected_scores(relation, profile, parameter):
    """Fresh per-cell scorecard scores, rolled up per row (the oracle)."""
    scorecard = QualityScorecard(list(profile.scorers.values()))
    out = []
    for row in relation.row_batch():
        cells = [row[c] for c in relation.tag_schema.tagged_columns]
        scores = [
            scorecard.score_cell(cell, profile.context)[parameter]
            for cell in cells
        ]
        present = [s for s in scores if s is not None]
        out.append(sum(present) / len(present) if present else None)
    return out


class TestScoringProfile:
    def test_validation(self):
        with pytest.raises(AssessmentError):
            ScoringProfile("", [credibility_scorer(SOURCE_RATINGS)])
        with pytest.raises(AssessmentError):
            ScoringProfile("empty", [])
        with pytest.raises(AssessmentError):
            ScoringProfile(
                "dup",
                [
                    credibility_scorer(SOURCE_RATINGS),
                    credibility_scorer({"x": 0.5}),
                ],
            )
        with pytest.raises(AssessmentError):
            make_profile(thresholds={"ghost": 0.5})
        with pytest.raises(AssessmentError):
            make_profile(thresholds={"credibility": 1.5})

    def test_accessors(self):
        profile = make_profile(thresholds={"credibility": 0.5})
        assert profile.parameters == ("credibility", "timeliness")
        assert profile.defines("timeliness")
        assert not profile.defines("accuracy")
        assert profile.scorer("credibility").parameter == "credibility"
        with pytest.raises(AssessmentError):
            profile.scorer("accuracy")
        assert profile.threshold("credibility") == 0.5
        assert profile.threshold("timeliness") is None


class TestRegistry:
    def test_register_bumps_version_and_binds(self):
        before = registry_version()
        profile = register_profile(make_profile(), relations=["readings"])
        assert registry_version() == before + 1
        assert profile.version == registry_version()
        assert profile_for("readings") is profile
        assert profile_for(make_relation()) is profile
        assert profile_for("elsewhere") is None

    def test_bind_requires_registered_profile(self):
        with pytest.raises(AssessmentError):
            bind_profile("readings", "ghost")
        register_profile(make_profile())
        before = registry_version()
        bind_profile("readings", "grades")
        assert registry_version() == before + 1
        assert profile_for("readings").name == "grades"

    def test_snapshot_resolves_like_live_relation(self):
        relation = make_relation()
        insert_row(relation, 0, source="acct'g")
        register_profile(make_profile(), relations=["readings"])
        assert profile_for(relation.read_snapshot()) is profile_for(relation)

    def test_parameter_defined(self):
        assert not parameter_defined("credibility")
        register_profile(make_profile())
        assert parameter_defined("credibility")
        assert parameter_defined("timeliness")
        assert not parameter_defined("accuracy")


class TestMaterializer:
    def make_bound(self, n=10):
        relation = make_relation()
        sources = [None, "acct'g", "estimate", "rumor"]
        for k in range(n):
            insert_row(
                relation,
                k,
                source=sources[k % len(sources)],
                age=float(10 * k) if k % 3 else None,
            )
        profile = register_profile(make_profile(), relations=["readings"])
        return relation, profile

    def test_unbound_relation_raises(self):
        relation = make_relation()
        with pytest.raises(AssessmentError, match="no scoring profile"):
            materializer_for(relation).refresh()

    def test_row_scores_match_fresh_scorecard(self):
        relation, profile = self.make_bound()
        materializer = materializer_for(relation)
        for parameter in profile.parameters:
            assert materializer.row_scores(parameter) == pytest.approx(
                expected_scores(relation, profile, parameter)
            )

    def test_undefined_parameter_raises(self):
        relation, _ = self.make_bound()
        with pytest.raises(AssessmentError, match="no.*parameter"):
            materializer_for(relation).row_scores("accuracy")

    def test_mutation_invalidates_flat_block(self):
        relation, profile = self.make_bound()
        materializer = materializer_for(relation)
        assert len(materializer.row_scores("credibility")) == 10
        insert_row(relation, 99, source="acct'g")
        assert len(materializer.row_scores("credibility")) == 11
        assert materializer.row_scores("credibility") == pytest.approx(
            expected_scores(relation, profile, "credibility")
        )

    def test_incremental_refresh_recomputes_only_dirty_buckets(self):
        relation, _ = self.make_bound(n=32)
        relation.repartition(hash_partitions("k", 8))
        materializer = materializer_for(relation)
        with metrics.instrumented() as registry:
            materializer.refresh()  # cold: everything recomputes
            cold = registry.snapshot()
            assert cold["scores.recomputed"]["value"] == 32
            assert cold["scores.staleness"]["value"] == 1.0

            registry.reset()
            materializer.refresh()  # warm: everything reuses
            warm = registry.snapshot()
            assert warm["scores.recomputed"]["value"] == 0
            assert warm["scores.reused"]["value"] == 32
            assert warm["scores.staleness"]["value"] == 0.0

            registry.reset()
            insert_row(relation, 100, source="acct'g")
            materializer.refresh()  # one bucket dirty
            delta = registry.snapshot()
            dirty_bucket = relation.partition_spec.bucket_of(100)
            assert delta["scores.recomputed"]["value"] == len(
                relation.partition(dirty_bucket)
            )
            assert delta["scores.staleness"]["value"] == 1 / 8

    def test_profile_reregistration_drops_blocks(self):
        relation, _ = self.make_bound()
        materializer = materializer_for(relation)
        assert max(
            s
            for s in materializer.row_scores("credibility")
            if s is not None
        ) == pytest.approx(0.9)
        register_profile(
            ScoringProfile(
                "stricter",
                [credibility_scorer({"acct'g": 0.6})],
            ),
            relations=["readings"],
        )
        scores = materializer.row_scores("credibility")
        assert max(s for s in scores if s is not None) == pytest.approx(0.6)

    def test_filter_indices(self):
        relation, _ = self.make_bound()
        materializer = materializer_for(relation)
        scores = materializer.row_scores("credibility")
        hits = materializer.filter_indices([("credibility", ">", 0.5)])
        assert hits == [
            i
            for i, s in enumerate(scores)
            if s is not None and s > 0.5
        ]
        # None scores never match, even negated comparisons.
        negated = materializer.filter_indices([("credibility", "!=", 0.9)])
        assert all(scores[i] is not None for i in negated)
        # Candidates restrict the pool and order is preserved.
        restricted = materializer.filter_indices(
            [("credibility", ">", 0.5)], candidates=hits[1:]
        )
        assert restricted == hits[1:]
        assert materializer.filter_indices(
            [("credibility", ">", 0.5), ("credibility", "<", 0.1)]
        ) == []

    def test_filter_indices_rejects_bad_input(self):
        relation, _ = self.make_bound()
        materializer = materializer_for(relation)
        with pytest.raises(AssessmentError, match="unknown operator"):
            materializer.filter_indices([("credibility", "~", 0.5)])
        with pytest.raises(AssessmentError, match="no.*parameter"):
            materializer.filter_indices([("accuracy", ">", 0.5)])

    def test_materializer_cache_is_per_object(self):
        relation, _ = self.make_bound()
        assert materializer_for(relation) is materializer_for(relation)
        snapshot = relation.read_snapshot()
        assert materializer_for(snapshot) is not materializer_for(relation)
        assert materializer_for(snapshot).row_scores(
            "credibility"
        ) == materializer_for(relation).row_scores("credibility")

    def test_row_parameter_score_helper(self):
        relation, profile = self.make_bound(n=4)
        positions = (relation.schema.index_of("v"),)
        row = relation.row_batch()[0]  # source=None, age=None
        assert (
            row_parameter_score(profile, "credibility", row, positions)
            is None
        )


# -- the equivalence property -------------------------------------------------

_OPS = st.one_of(
    st.tuples(
        st.just("insert"),
        st.integers(0, 99),
        st.sampled_from([None, "acct'g", "estimate", "rumor"]),
        st.sampled_from([None, 0.0, 25.0, 150.0]),
    ),
    st.tuples(st.just("delete"), st.integers(0, 5)),
    st.tuples(
        st.just("repartition"), st.sampled_from([None, 2, 4, 8])
    ),
    st.tuples(
        st.just("update"),
        st.integers(0, 99),
        st.sampled_from([None, "acct'g", "rumor"]),
        st.sampled_from([None, 50.0]),
    ),
)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_OPS, max_size=12))
def test_materialized_scores_track_arbitrary_mutations(ops):
    """Materialized arrays ≡ fresh per-cell scorecard scores after any
    interleaving of inserts, deletes, updates, and repartitions."""
    clear_profiles()
    relation = make_relation()
    next_key = [1000]
    for k in range(6):
        insert_row(relation, k, source="acct'g", age=float(20 * k))
    profile = register_profile(make_profile(), relations=["readings"])
    materializer = materializer_for(relation)
    for op in ops:
        kind = op[0]
        if kind == "insert":
            insert_row(relation, next_key[0], op[2], op[3])
            next_key[0] += 1
        elif kind == "delete":
            target = op[1]
            relation.delete(lambda row: row.value("k") % 6 == target)
        elif kind == "repartition":
            spec = (
                None if op[1] is None else hash_partitions("k", op[1])
            )
            relation.repartition(spec)
        else:  # update = delete + reinsert with new tags
            target = op[1]
            if any(r.value("k") == target for r in relation.row_batch()):
                relation.delete(lambda row: row.value("k") == target)
                insert_row(relation, target, op[2], op[3])
        # Refresh after every op so incremental reuse paths are the
        # ones under test, not a single cold build at the end.
        materializer.refresh()
    for parameter in profile.parameters:
        oracle = expected_scores(relation, profile, parameter)
        flat = materializer.row_scores(parameter)
        assert flat == pytest.approx(oracle)
        if relation.partition_spec is not None:
            for bucket in range(relation.partition_spec.count):
                shard = relation.partition(bucket)
                assert materializer.row_scores(
                    parameter, bucket=bucket
                ) == pytest.approx(
                    expected_scores(shard, profile, parameter)
                )


# -- carrying derived state across read snapshots ------------------------------


def cells(k, source=None, age=None):
    return {"k": k, "v": tagged_cell(f"v{k}", source, age)}


def score_read(relation):
    """A service-style score read: ScoreFilter plus ORDER BY scores."""
    return execute(
        "SELECT k FROM readings WHERE QUALITY(credibility) > 0.1 "
        "ORDER BY QUALITY(credibility) DESC, v LIMIT 5",
        relation,
    )


class TestSnapshotCarry:
    def make_bound(self, n=64):
        relation = make_relation()
        relation.repartition(hash_partitions("k", 8))
        relation.insert_many(
            cells(k, ["acct'g", "estimate", None][k % 3], float(k % 40))
            for k in range(n)
        )
        register_profile(make_profile(), relations=["readings"])
        return relation

    def test_post_write_score_read_recomputes_only_inserted_rows(self):
        relation = self.make_bound()
        score_read(relation.read_snapshot())
        relation.insert_many(cells(1000 + k, "acct'g", 5.0) for k in range(16))
        relation.delete(lambda row: row.value("k") < 16)
        snapshot = relation.read_snapshot()
        with metrics.instrumented() as registry:
            registry.reset()
            score_read(snapshot)
            counts = registry.snapshot()
        assert counts["scores.recomputed"]["value"] == 16
        # 48 rows carried into the flat block, then 64 served from it.
        assert counts["scores.reused"]["value"] == 48 + 64
        assert materializer_for(snapshot).row_scores(
            "credibility"
        ) == ScoreMaterializer(snapshot).row_scores("credibility")

    def test_post_write_refresh_recomputes_only_inserted_rows(self):
        relation = self.make_bound()
        profile = profile_for(relation)
        materializer_for(relation.read_snapshot()).refresh()
        relation.insert_many(cells(1000 + k, "acct'g", 5.0) for k in range(16))
        materializer = materializer_for(relation.read_snapshot())
        with metrics.instrumented() as registry:
            registry.reset()
            materializer.refresh()
            counts = registry.snapshot()
        assert counts["scores.recomputed"]["value"] == 16
        assert counts["scores.reused"]["value"] == 64
        assert_scores_fresh(relation.read_snapshot(), profile, "buckets")

    def test_at_most_two_generations_stay_linked(self):
        relation = self.make_bound()
        first = relation.read_snapshot()
        score_read(first)
        relation.insert_many([cells(500)])
        unused = relation.read_snapshot()
        assert unused._predecessor is first
        relation.insert_many([cells(501)])
        latest = relation.read_snapshot()
        # The unused snapshot never derived state: its link is handed on.
        assert latest._predecessor is first
        first_ref = weakref.ref(first)
        del first, unused
        score_read(latest)
        assert latest._predecessor is None
        gc.collect()
        assert first_ref() is None

    def test_repartition_and_reregistration_start_over(self):
        relation = self.make_bound()
        score_read(relation.read_snapshot())
        relation.repartition(hash_partitions("k", 4))
        assert relation.read_snapshot()._predecessor is None
        score_read(relation.read_snapshot())
        relation.insert_many([cells(700, "acct'g")])
        register_profile(
            ScoringProfile("stricter", [credibility_scorer({"acct'g": 0.6})]),
            relations=["readings"],
        )
        snapshot = relation.read_snapshot()
        scores = materializer_for(snapshot).row_scores("credibility")
        assert max(s for s in scores if s is not None) == pytest.approx(0.6)

    def test_store_carry_matches_fresh_build(self):
        relation = self.make_bound()
        relation.read_snapshot().columnar_store()
        relation.insert_many(cells(900 + k, "rumor", 1.0) for k in range(5))
        relation.delete(lambda row: row.value("k") % 5 == 0)
        snapshot = relation.read_snapshot()
        assert snapshot._predecessor is not None
        assert_store_fresh(snapshot)


def assert_store_fresh(snapshot):
    carried = snapshot.columnar_store()
    fresh = ColumnarTagStore.from_tagged_relation(snapshot)
    assert carried.relation.rows == fresh.relation.rows
    for column in snapshot.tag_schema.tagged_columns:
        for indicator in snapshot.tag_schema.allowed_for(column):
            assert carried.tag_array(column, indicator) == fresh.tag_array(
                column, indicator
            )


def assert_scores_fresh(snapshot, profile, mode):
    materializer = materializer_for(snapshot)
    scratch = ScoreMaterializer(snapshot)
    for parameter in profile.parameters:
        if mode == "flat":
            carried = materializer.row_scores(parameter)
            assert carried == scratch.row_scores(parameter)
            assert carried == pytest.approx(
                expected_scores(snapshot, profile, parameter)
            )
        else:
            materializer.refresh()
            for bucket in range(snapshot.partition_spec.count):
                carried = materializer.row_scores(parameter, bucket=bucket)
                assert carried == scratch.row_scores(parameter, bucket=bucket)


def assert_order_matches_row_scores(snapshot, profile, parameter, limit):
    got = execute(
        f"SELECT k FROM readings ORDER BY QUALITY({parameter}) DESC, v "
        f"LIMIT {limit}",
        snapshot,
    )
    positions = tagged_positions(snapshot)
    scored = [
        (
            row_parameter_score(profile, parameter, row, positions),
            row.value("v"),
            row.value("k"),
        )
        for row in snapshot.row_batch()
    ]
    scored.sort(key=lambda item: item[1])
    scored.sort(key=lambda item: (item[0] is not None, item[0]), reverse=True)
    assert [row.value("k") for row in got] == [k for _, _, k in scored[:limit]]


_MUTATIONS = st.one_of(
    st.tuples(
        st.just("insert_many"),
        st.lists(
            st.tuples(
                st.sampled_from([None, "acct'g", "estimate", "rumor"]),
                st.sampled_from([None, 0.0, 25.0, 150.0]),
            ),
            min_size=1,
            max_size=6,
        ),
    ),
    st.tuples(st.just("delete"), st.integers(0, 5)),
    st.tuples(st.just("register"), st.sampled_from([0.9, 0.6])),
    st.tuples(st.just("repartition"), st.sampled_from([2, 4, 8])),
)
_USES = st.sampled_from(
    ["flat", "buckets", "store", "order", "skip", "pin", "drop"]
)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.tuples(_MUTATIONS, _USES), max_size=12))
def test_carried_snapshot_state_equals_fresh_derivation(steps):
    """Every snapshot's carried score and tag-store arrays ≡ a fresh
    build, over random interleavings of batch inserts, deletes, profile
    re-registrations and repartitions, each followed by one use of the
    next snapshot: a score, bucket, tag-store or ORDER BY read; no use;
    pinning it unused; or dropping every pinned snapshot and collecting
    garbage before the next snapshot's first use (so rows deleted in
    between are freed unless a predecessor still holds them, and a new
    row could reuse a freed row's ``id()``)."""
    clear_profiles()
    relation = make_relation()
    relation.repartition(hash_partitions("k", 4))
    relation.insert_many(
        cells(k, ["acct'g", "estimate", None][k % 3], float(10 * k))
        for k in range(12)
    )
    profile = register_profile(make_profile(), relations=["readings"])
    next_key = [100]
    pinned = []
    for (kind, arg), use in steps:
        if kind == "insert_many":
            batch = []
            for source, age in arg:
                batch.append(cells(next_key[0], source, age))
                next_key[0] += 1
            relation.insert_many(batch)
        elif kind == "delete":
            relation.delete(lambda row, t=arg: row.value("k") % 6 == t)
        elif kind == "register":
            profile = register_profile(
                ScoringProfile(
                    "grades",
                    [
                        credibility_scorer({"acct'g": arg, "rumor": 0.1}),
                        timeliness_scorer(SHELF_LIFE),
                    ],
                ),
                relations=["readings"],
            )
        else:
            relation.repartition(hash_partitions("k", arg))
        if use == "skip":
            continue
        if use == "pin":
            pinned.append(relation.read_snapshot())
        elif use == "drop":
            pinned.clear()
            gc.collect()
        elif use == "store":
            assert_store_fresh(relation.read_snapshot())
        elif use == "order":
            snapshot = relation.read_snapshot()
            for parameter in profile.parameters:
                assert_order_matches_row_scores(
                    snapshot, profile, parameter, 4
                )
        else:
            assert_scores_fresh(relation.read_snapshot(), profile, use)
    snapshot = relation.read_snapshot()
    assert_store_fresh(snapshot)
    assert_scores_fresh(snapshot, profile, "flat")
    assert_scores_fresh(snapshot, profile, "buckets")
    for parameter in profile.parameters:
        assert_order_matches_row_scores(snapshot, profile, parameter, 4)


def test_concurrent_readers_derive_consistent_state():
    """Readers racing on fresh snapshots (more threads than cores, short
    switch interval) beside a writer always see carried state equal to
    a fresh derivation: no lost seed, no half-built block or store."""
    import sys
    import threading

    relation = TestSnapshotCarry().make_bound(n=96)
    profile = profile_for(relation)
    problems = []
    done = threading.Event()

    def read():
        while not done.is_set():
            snapshot = relation.read_snapshot()
            try:
                scores = materializer_for(snapshot).row_scores("credibility")
                if scores != ScoreMaterializer(snapshot).row_scores(
                    "credibility"
                ):
                    problems.append("scores")
                store = snapshot.columnar_store()
                fresh = ColumnarTagStore.from_tagged_relation(snapshot)
                if store.tag_array("v", "source") != fresh.tag_array(
                    "v", "source"
                ):
                    problems.append("store")
                materializer_for(snapshot).refresh()
            except Exception as exc:  # reported below with the invariant
                problems.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    readers = [threading.Thread(target=read) for _ in range(4)]
    try:
        for reader in readers:
            reader.start()
        for batch in range(40):
            relation.insert_many(
                cells(2000 + 4 * batch + i, "acct'g", 1.0) for i in range(4)
            )
            relation.delete(lambda row, b=batch: row.value("k") == b)
    finally:
        done.set()
        for reader in readers:
            reader.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert problems == []
    assert_scores_fresh(relation.read_snapshot(), profile, "buckets")
