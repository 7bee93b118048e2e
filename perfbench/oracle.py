"""Answer checking against the naive reference interpreter.

Every checked response must equal ``repro.experiments.naive.naive_execute``
on the same data, rendered in the documented reply format.  The naive
interpreter has no ``QUALITY(parameter)`` form, so the tagged workloads
check against an oracle copy of the relation with one extra plain
column, ``cred``, holding each row's credibility score, and the oracle
statement reads ``cred`` where the served one reads
``QUALITY(credibility)``.
"""

from __future__ import annotations

import json
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Optional

from repro.experiments.naive import naive_execute
from repro.quality.materialize import ScoringProfile, row_parameter_score
from repro.relational.schema import Column, RelationSchema
from repro.tagging.relation import TaggedRelation

#: Positions of the tagged cells (address, employees) in a customer row.
_TAGGED_POSITIONS = (1, 2)


def expected_payload(result: Any, tags: bool) -> dict[str, Any]:
    """The documented ``POST /query`` reply for ``result``.

    Built here from the relation's rows, not by the server's own
    serializer, so a serialization fault shows as a wrong answer.
    """
    columns = list(result.schema.column_names)
    tagged = isinstance(result, TaggedRelation)
    rows, row_tags = [], []
    for row in result:
        cells = [row[name] for name in columns]
        if tagged:
            rows.append([cell.value for cell in cells])
            row_tags.append(
                {name: cell.tags_dict() for name, cell in zip(columns, cells) if cell.tags}
            )
        else:
            rows.append(cells)
    document: dict[str, Any] = {"columns": columns, "rows": rows, "row_count": len(rows)}
    if tags and tagged:
        document["tags"] = row_tags
    return json.loads(json.dumps(document, default=str))


def _canonical_rows(document: dict[str, Any]) -> list[str]:
    rows = document.get("rows", [])
    tags = document.get("tags") or [None] * len(rows)
    return sorted(json.dumps([row, tag], sort_keys=True) for row, tag in zip(rows, tags))


def same_answer(body: bytes, expected: dict[str, Any], ordered: bool) -> bool:
    """Whether a response body carries exactly the expected answer."""
    try:
        got = json.loads(body)
    except ValueError:
        return False
    return same_document(got, expected, ordered)


def same_document(got: Any, expected: dict[str, Any], ordered: bool) -> bool:
    """Whether two reply documents carry the same answer.

    Without ORDER BY the row order is not part of the answer (pruned
    and partitioned scans may return buckets in another order), so rows
    are compared as a multiset.
    """
    if ordered or not isinstance(got, dict):
        return got == expected
    return (
        got.get("columns") == expected.get("columns")
        and got.get("row_count") == expected.get("row_count")
        and ("tags" in got) == ("tags" in expected)
        and _canonical_rows(got) == _canonical_rows(expected)
    )


class CustomerOracle:
    """Oracle rows for the customer relation, one per generated id."""

    def __init__(
        self,
        served_schema: RelationSchema,
        tag_schema: Any,
        profile: ScoringProfile,
    ) -> None:
        self.schema = RelationSchema(
            served_schema.name,
            list(served_schema.columns) + [Column("cred", "FLOAT")],
        )
        self.tag_schema = tag_schema
        self._profile = profile
        self._staging = TaggedRelation(self.schema, tag_schema)
        self._rows: dict[int, Any] = {}

    def add(self, index: int, cells: dict[str, Any]) -> None:
        """Register generated row ``index`` (served cells, pre-insert)."""
        row = SimpleNamespace(
            cells=(None, cells["address"], cells["employees"])
        )
        cred = row_parameter_score(
            self._profile, "credibility", row, _TAGGED_POSITIONS
        )
        self._rows[index] = self._staging.insert(dict(cells, cred=cred))

    def relation(self, ids: Iterable[int]) -> dict[str, TaggedRelation]:
        """The oracle source holding exactly rows ``ids``, in that order."""
        rows = [self._rows[index] for index in ids]
        return {
            self.schema.name: TaggedRelation.from_rows(
                self.schema, self.tag_schema, rows
            )
        }


class Checker:
    """Memoized oracle answers for (statement, state) pairs."""

    def __init__(self, source_for: Callable[[Any], Any]) -> None:
        self._source_for = source_for
        self._answers: dict[tuple[str, bool, Any], dict[str, Any]] = {}

    def expected(self, request: Any, state: Any = None) -> dict[str, Any]:
        sql = request.oracle_sql or request.sql
        key = (sql, request.tags, state)
        answer = self._answers.get(key)
        if answer is None:
            answer = expected_payload(
                naive_execute(sql, self._source_for(state)), request.tags
            )
            self._answers[key] = answer
        return answer

    def matches(self, response: Any, states: Optional[Iterable[Any]] = None) -> bool:
        """Whether the response equals the oracle on any of ``states``."""
        for state in states if states is not None else (None,):
            expected = self.expected(response.request, state)
            if same_answer(response.body, expected, response.request.ordered):
                return True
        return False
