"""``insert_many`` is atomic on plain and tagged relations.

Every row of a batch is validated before any is appended, and the batch
lands under one lock hold with one version bump: a snapshot taken while
the batch is in flight sees all of it or none of it, and a bad row
leaves the relation exactly as it was.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping

import pytest

from repro.errors import DomainError
from repro.relational import hash_partitions
from repro.relational.relation import Relation
from repro.relational.schema import schema
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import (
    IndicatorDefinition,
    IndicatorValue,
    TagSchema,
)
from repro.tagging.relation import TaggedRelation

EVENTS = schema("events", [("id", "INT"), ("region", "STR")])
TAGS = TagSchema(
    indicators=[IndicatorDefinition("source")],
    allowed={"region": ["source"]},
)


def plain_row(i):
    return {"id": i, "region": f"r{i % 7}"}


def tagged_row(i):
    return {
        "id": i,
        "region": QualityCell(
            f"r{i % 7}", [IndicatorValue("source", f"s{i % 3}")]
        ),
    }


def make(flavor, partitioned):
    if flavor == "plain":
        relation, row = Relation(EVENTS), plain_row
    else:
        relation, row = TaggedRelation(EVENTS, TAGS), tagged_row
    if partitioned:
        relation.repartition(hash_partitions("region", 4))
    return relation, row


CASES = [
    ("plain", False),
    ("plain", True),
    ("tagged", False),
    ("tagged", True),
]


class ObservedRow(Mapping):
    """A row whose every read runs ``hook`` (validation reads it)."""

    def __init__(self, data, hook):
        self._data = data
        self._hook = hook

    def __getitem__(self, key):
        self._hook()
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)


def shard_total(relation):
    return sum(len(shard) for shard in relation.partitions())


@pytest.mark.parametrize("flavor,partitioned", CASES)
def test_snapshot_mid_batch_sees_none_of_it(flavor, partitioned):
    relation, row = make(flavor, partitioned)
    relation.insert_many([row(i) for i in range(5)])
    seen = []

    def look():
        snapshot = relation.read_snapshot()
        seen.append(len(snapshot))
        if partitioned:
            seen.append(shard_total(snapshot))

    batch = [row(10), ObservedRow(row(11), look), row(12)]
    assert relation.insert_many(batch) == 3
    assert seen and set(seen) == {5}
    after = relation.read_snapshot()
    assert len(after) == 8
    if partitioned:
        assert shard_total(after) == 8


@pytest.mark.parametrize("flavor,partitioned", CASES)
def test_concurrent_snapshots_never_see_part_of_a_batch(flavor, partitioned):
    relation, row = make(flavor, partitioned)
    batch_size, batches = 25, 40
    prepared = [
        [row(b * batch_size + i) for i in range(batch_size)]
        for b in range(batches)
    ]
    torn = []
    done = threading.Event()

    def read():
        while not done.is_set():
            snapshot = relation.read_snapshot()
            sizes = {len(snapshot)}
            if partitioned:
                sizes.add(shard_total(snapshot))
            if len(sizes) > 1 or sizes.pop() % batch_size:
                torn.append(len(snapshot))

    reader = threading.Thread(target=read)
    reader.start()
    try:
        for batch in prepared:
            relation.insert_many(batch)
    finally:
        done.set()
        reader.join()
    assert torn == []
    assert len(relation) == batch_size * batches


@pytest.mark.parametrize("flavor,partitioned", CASES)
def test_bad_row_mid_batch_leaves_relation_unchanged(flavor, partitioned):
    relation, row = make(flavor, partitioned)
    relation.insert_many([row(i) for i in range(5)])
    before_rows = list(relation.rows)
    before_version = relation.version
    before_dirty = relation.dirty_partitions
    before_shards = [list(shard.rows) for shard in relation.partitions()]
    bad = dict(row(99))
    bad["id"] = "not an int"
    with pytest.raises(DomainError):
        relation.insert_many([row(10), bad, row(12)])
    assert list(relation.rows) == before_rows
    assert relation.version == before_version
    assert relation.dirty_partitions == before_dirty
    assert [list(s.rows) for s in relation.partitions()] == before_shards


@pytest.mark.parametrize("flavor,partitioned", CASES)
def test_one_batch_is_one_version(flavor, partitioned):
    relation, row = make(flavor, partitioned)
    before = relation.version
    assert relation.insert_many([row(i) for i in range(16)]) == 16
    assert relation.version == before + 1
    assert relation.insert_many([]) == 0
    assert relation.version == before + 1
