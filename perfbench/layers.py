"""Per-layer timing from outside the program.

Nothing here reaches into ``src/``: each layer is timed around calls to
its public functions.

- ``service.core``: :class:`TimedService` is the server's
  ``QueryService`` with a timed ``execute``.  It pins the snapshot and
  submits (``service.submit_ms``: pin plus admission), and its
  ``runner`` hook times the worker's execution (``service.exec_ms``);
  the gap between the two is ``service.queue_wait_ms``.
- ``service.http``: client latency minus the time spent in ``execute``
  is ``http.overhead_ms``; ``relation_to_payload`` plus ``json.dumps``
  replayed on captured results is ``http.serialize_ms``.
- ``sql.*`` and ``analysis``: captured statements are replayed on the
  snapshot they were served from through ``parse``,
  ``run_strict_analysis``, ``plan_statement``, ``compile_plan`` and
  ``CompiledPlan.execute``, once more with an ``ExecutionStats`` tree
  for per-operator self time.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from repro.service.core import QueryService, pin_snapshot
from repro.service.http import relation_to_payload
from repro.sql import compile_plan, parse
from repro.sql.plancache import AnalysisMemo, plan_statement, run_strict_analysis

#: Operator kinds reported per plan (first word of the operator label).
OPERATOR_KINDS = (
    "Scan",
    "QualityFilter",
    "ScoreFilter",
    "Filter",
    "TopK",
    "Aggregate",
    "Project",
    "Materialize",
)


@dataclass
class Call:
    """One timed ``execute``: the four consecutive intervals, in seconds."""

    submit: float  # pin_snapshot + submit (admission)
    queue_wait: float  # submit returned -> runner started
    execute: float  # runner start -> runner end
    handoff: float  # runner end -> ticket.result() returned


@dataclass
class Capture:
    sql: str
    snapshot: Any
    result: Any


class TimedService(QueryService):
    """A ``QueryService`` whose ``execute`` records :class:`Call` timings.

    ``capture(sql, snapshot)`` decides which requests are kept, with
    their snapshot and result, for the replay.
    """

    def __init__(
        self,
        source: Any,
        *,
        capture: Callable[[str, Any], bool],
        **options: Any,
    ) -> None:
        self._timed_source = source
        self._capture = capture
        self._capture_lock = threading.Lock()
        self._runs: dict[int, tuple[float, float]] = {}
        self.calls: list[Call] = []
        self.captured: list[Capture] = []
        super().__init__(source, runner=self._timed_run, **options)

    def _timed_run(self, run: Callable[[], Any]) -> Any:
        start = perf_counter()
        result = run()
        # Keyed by the result object, which the ticket hands back as is.
        self._runs[id(result)] = (start, perf_counter())
        return result

    def execute(self, sql: str, **options: Any) -> Any:
        begin = perf_counter()
        snapshot = pin_snapshot(self._timed_source)
        ticket = self.submit(sql, snapshot=snapshot, **options)
        submitted = perf_counter()
        result = ticket.result()
        end = perf_counter()
        start, finish = self._runs.pop(id(result))
        self.calls.append(
            Call(submitted - begin, start - submitted, finish - start, end - finish)
        )
        with self._capture_lock:
            if self._capture(sql, snapshot):
                self.captured.append(Capture(sql, snapshot, result))
        return result


@dataclass
class Replay:
    """Replayed per-statement costs, in seconds, plus operator facts."""

    parse: list[float]
    strict: list[float]
    plan: list[float]
    compile: list[float]
    execute: list[float]
    serialize: list[float]
    operator_self: dict[str, float]
    operator_total: float
    rows_examined: int
    rows_returned: int


def _operator_self_times(stats: Any) -> dict[str, float]:
    """Self time per operator kind: inclusive time minus the children's."""
    totals: dict[str, float] = {}
    for node in stats.nodes:
        if not node.executed:
            continue
        children = sum(stats.nodes[child].seconds for child in node.children)
        kind = node.label.split(" ", 1)[0]
        totals[kind] = totals.get(kind, 0.0) + max(0.0, node.seconds - children)
    return totals


def replay(captures: list[Capture], tags_of: Callable[[str], bool], repeats: int) -> Replay:
    """Replay each captured statement on its pinned snapshot."""
    out = Replay([], [], [], [], [], [], {}, 0.0, 0, 0)
    for capture in captures:
        sql, snapshot = capture.sql, capture.snapshot
        for _ in range(repeats):
            t0 = perf_counter()
            statement = parse(sql)
            t1 = perf_counter()
            run_strict_analysis(statement, snapshot, sql, memo=AnalysisMemo())
            t2 = perf_counter()
            plan, relation, _ = plan_statement(statement, snapshot)
            t3 = perf_counter()
            binding = {statement.relation: relation}
            compiled = compile_plan(plan, binding)
            t4 = perf_counter()
            compiled.execute(binding)
            t5 = perf_counter()
            json.dumps(relation_to_payload(capture.result, tags_of(sql)), default=str)
            t6 = perf_counter()
            out.parse.append(t1 - t0)
            out.strict.append(t2 - t1)
            out.plan.append(t3 - t2)
            out.compile.append(t4 - t3)
            out.execute.append(t5 - t4)
            out.serialize.append(t6 - t5)
        stats = compiled.new_stats()
        compiled.execute(binding, stats)
        for kind, seconds in _operator_self_times(stats).items():
            out.operator_self[kind] = out.operator_self.get(kind, 0.0) + seconds
        out.operator_total += stats.total_seconds
        out.rows_examined += sum(
            node.rows_out
            for node in stats.nodes
            if node.executed and node.label.startswith("Scan ")
        )
        out.rows_returned += stats.rows
    return out


def distinct_capture(limit: int, per_snapshot: bool = False) -> Callable[[str, Any], bool]:
    """Keep the first request of each distinct statement, up to ``limit``.

    With ``per_snapshot`` the key is (statement, snapshot object), so a
    statement is kept again after a write has produced a new snapshot.
    """
    seen: set[Any] = set()

    def capture(sql: str, snapshot: Any) -> bool:
        key = (sql, id(snapshot)) if per_snapshot else sql
        if key in seen or len(seen) >= limit:
            return False
        seen.add(key)
        return True

    return capture
