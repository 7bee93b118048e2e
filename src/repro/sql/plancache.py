"""QSQL plan cache: skip lexing/parsing/planning on repeated statements.

A :class:`PlanCache` maps statement text to
:class:`PreparedStatement` entries — the parsed AST, the optimized
plan, and the compiled physical plan.  A cached entry is reused only
when the resolved relation still has the *identical* schema objects the
plan was compiled against (``relation.schema is entry.schema``), so
dropping and recreating a relation, or pointing the same statement at a
different catalog, always recompiles.  :class:`RelationSchema` and
:class:`TagSchema` instances are immutable, which makes identity a
sound validity token; row-level mutations never invalidate plans
because compiled plans bind relations at *execution* time, not compile
time (and the columnar store the plan routes through revalidates
against the relation's own mutation counter).

For :class:`~repro.relational.catalog.Database` sources, the entry
additionally records the database's ``catalog_version`` (bumped on
create/drop), making the cache key effectively
``(statement text, catalog version)``.

More facts participate in validation because the optimizer's plan
*shape* depends on them:

- the columnar execution mode (``execute(..., columnar=False)`` plans
  differently from the default — an entry compiled in one mode is never
  served to the other);
- the columnar sanitizer mode (``REPRO_VERIFY_PLANS``): sanitized
  compiled plans carry per-batch check wrappers, so an entry compiled
  in one mode is never served to the other;
- the relation's partition layout version: the optimizer bakes static
  partition pruning (the surviving bucket set) into the plan, so
  ``repartition()`` bumps the version and forces a replan.
- the scoring-profile registry version, for statements referencing the
  ``QUALITY(parameter)`` score form: the optimizer's
  ``push_score_predicates`` rewrite consults the registry (which
  profile is bound, which parameters it defines), so registering or
  re-binding a profile must replan such statements.

The plan-IR verifier (:mod:`repro.analysis.verifier`) audits exactly
this key-completeness contract as DQ409; with ``REPRO_VERIFY_PLANS=1``
every entry is re-verified on install and on each cache hit.

Strict-mode analysis is memoized alongside the plan cache in an
:class:`AnalysisMemo` keyed the same way (statement text + schema
identity + catalog version), so ``execute(..., strict=True)`` pays the
analysis pass once per (statement, schema) — including for statements
that *fail* analysis, which never reach the plan cache, and for the
``planner=False`` reference path, whose unoptimized plans are never
cached.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from contextlib import nullcontext
from time import perf_counter
from typing import Any, Mapping, Optional, Union

from repro.obs import metrics as _obs_metrics
from repro.obs.stats import ExecutionStats, StatsCollector
from repro.obs.trace import global_tracer
from repro.relational.catalog import Database
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema
from repro.sql.errors import SQLError
from repro.sql.executor import (
    _check_columns,
    _resolve_relation,
)
from repro.sql.optimizer import PlanContext, optimize
from repro.sql.parser import parse
from repro.sql.physical import CompiledPlan, compile_plan
from repro.sql.plan import PlanNode, logical_plan, render_plan
from repro.tagging.relation import TaggedRelation

AnyRelation = Union[Relation, TaggedRelation]
Source = Union[AnyRelation, Database, Mapping[str, AnyRelation]]


class PreparedStatement:
    """One cached statement: AST + optimized plan + compiled plan."""

    __slots__ = (
        "sql",
        "statement",
        "plan",
        "compiled",
        "relation_name",
        "schema",
        "tag_schema",
        "tagged",
        "catalog_version",
        "columnar_mode",
        "sanitize",
        "partition_layout",
        "scoring_version",
        "strict_checked",
    )

    def __init__(
        self,
        sql: str,
        statement: Any,
        plan: PlanNode,
        compiled: CompiledPlan,
        relation: AnyRelation,
        catalog_version: Optional[int],
        columnar: bool = True,
        sanitize: Optional[bool] = None,
    ) -> None:
        self.sql = sql
        self.statement = statement
        self.plan = plan
        self.compiled = compiled
        self.relation_name = statement.relation
        self.schema = relation.schema
        self.tagged = isinstance(relation, TaggedRelation)
        self.tag_schema = relation.tag_schema if self.tagged else None
        self.catalog_version = catalog_version
        #: The columnar on/off mode the plan was optimized under.
        self.columnar_mode = columnar
        #: Whether the compiled plan carries columnar sanitizer
        #: wrappers (REPRO_VERIFY_PLANS at compile time): part of the
        #: cache key so toggling the flag never serves the wrong build.
        #: Defaults to the current flag, matching compile_plan's own
        #: default.
        self.sanitize = _verify_enabled() if sanitize is None else sanitize
        #: The relation's partition layout version at plan time.  The
        #: optimizer bakes static partition pruning into the plan, so
        #: any ``repartition()`` (which bumps the version) must force a
        #: replan — the baked bucket set may be wrong for the new
        #: layout.  Unpartitioned relations report 0 and never bump.
        self.partition_layout = getattr(
            relation, "partition_layout_version", 0
        )
        #: The scoring-profile registry version at plan time, when the
        #: statement references QUALITY(parameter) score form (None
        #: otherwise).  ``push_score_predicates`` bakes the registry's
        #: answers into the plan shape, so any registry mutation must
        #: force a replan of score-referencing statements.
        self.scoring_version = _scoring_version_pin(statement, self.tagged)
        #: True once strict-mode analysis passed for this entry (the
        #: diagnostics depend only on the statement and the schemas the
        #: entry already pins by identity, so one clean run is enough).
        self.strict_checked = False

    def valid_for(
        self,
        relation: AnyRelation,
        source: Source,
        columnar: bool = True,
        sanitize: Optional[bool] = None,
    ) -> bool:
        if columnar != self.columnar_mode:
            return False
        if sanitize is None:
            sanitize = _verify_enabled()
        if sanitize != self.sanitize:
            return False
        if isinstance(relation, TaggedRelation) != self.tagged:
            return False
        if relation.schema is not self.schema:
            return False
        if self.tagged and relation.tag_schema is not self.tag_schema:
            return False
        if (
            getattr(relation, "partition_layout_version", 0)
            != self.partition_layout
        ):
            return False
        if self.scoring_version is not None:
            from repro.quality.materialize import registry_version

            if registry_version() != self.scoring_version:
                return False
        if isinstance(source, Database):
            return source.catalog_version == self.catalog_version
        return True


def _scoring_version_pin(statement: Any, tagged: bool) -> Optional[int]:
    """The scoring-registry version a plan's shape depends on, or None.

    Only tagged statements referencing the ``QUALITY(parameter)`` score
    form consult the registry at plan time; pinning anything else would
    needlessly invalidate unrelated plans on every profile registration.
    """
    if not tagged or not statement.uses_quality_scores():
        return None
    from repro.quality.materialize import registry_version

    return registry_version()


class PlanCache:
    """Statement-text → prepared-statement cache with LRU eviction.

    Thread-safe: lookup/store/clear/stats hold an internal lock, so
    concurrent sessions sharing the default cache never corrupt the
    LRU order (``move_to_end``/``popitem``) or lose hit/miss counts.
    """

    def __init__(self, max_statements: int = 256) -> None:
        self.max_statements = max_statements
        self._entries: OrderedDict[str, list[PreparedStatement]] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self._lock = threading.RLock()

    def lookup(
        self,
        sql: str,
        source: Source,
        columnar: bool = True,
        sanitize: Optional[bool] = None,
    ) -> Optional[tuple[PreparedStatement, AnyRelation]]:
        """A (prepared, resolved relation) pair, or None on miss."""
        with self._lock:
            entries = self._entries.get(sql)
            if entries is None:
                self.misses += 1
                return None
            for entry in entries:
                try:
                    relation = _resolve_relation(entry.statement, source)
                except SQLError:
                    continue  # cold path re-raises with identical context
                if entry.valid_for(relation, source, columnar, sanitize):
                    self._entries.move_to_end(sql)
                    self.hits += 1
                    return entry, relation
            self.misses += 1
            return None

    def store(self, entry: PreparedStatement) -> None:
        with self._lock:
            entries = self._entries.setdefault(entry.sql, [])
            # Drop entries this one supersedes (same relation shape but a
            # stale catalog version or dropped schema).  Entries differing
            # in columnar or sanitizer mode answer *different* lookups, so
            # they coexist rather than replace each other.
            entries[:] = [
                e
                for e in entries
                if e.schema is not entry.schema
                or e.columnar_mode != entry.columnar_mode
                or e.sanitize != entry.sanitize
            ]
            entries.append(entry)
            self._entries.move_to_end(entry.sql)
            while len(self._entries) > self.max_statements:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "statements": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }


class _AnalysisVerdict:
    """One memoized strict-analysis result and its validity tokens."""

    __slots__ = ("schema", "tagged", "tag_schema", "catalog_version", "diagnostics")

    def __init__(
        self, relation: AnyRelation, source: Source, diagnostics: Any
    ) -> None:
        self.schema = relation.schema
        self.tagged = isinstance(relation, TaggedRelation)
        self.tag_schema = relation.tag_schema if self.tagged else None
        self.catalog_version = (
            source.catalog_version if isinstance(source, Database) else None
        )
        self.diagnostics = diagnostics

    def valid_for(self, relation: AnyRelation, source: Source) -> bool:
        if isinstance(relation, TaggedRelation) != self.tagged:
            return False
        if relation.schema is not self.schema:
            return False
        if self.tagged and relation.tag_schema is not self.tag_schema:
            return False
        if isinstance(source, Database):
            return source.catalog_version == self.catalog_version
        return True


class AnalysisMemo:
    """Memoized ``strict=True`` analysis verdicts, keyed like the plan
    cache: statement text, validated by schema/tag-schema identity and
    catalog version.  Stores failing verdicts too — rejected statements
    never reach the plan cache, so without the memo every retry would
    re-run the full analysis pass."""

    def __init__(self, max_statements: int = 256) -> None:
        self.max_statements = max_statements
        self._entries: OrderedDict[str, list[_AnalysisVerdict]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self._lock = threading.RLock()

    def lookup(
        self, sql: str, relation: AnyRelation, source: Source
    ) -> Optional[Any]:
        """The memoized Diagnostics, or None when analysis must run."""
        with self._lock:
            entries = self._entries.get(sql)
            if entries is not None:
                for entry in entries:
                    if entry.valid_for(relation, source):
                        self._entries.move_to_end(sql)
                        self.hits += 1
                        return entry.diagnostics
            self.misses += 1
            return None

    def store(
        self,
        sql: str,
        relation: AnyRelation,
        source: Source,
        diagnostics: Any,
    ) -> None:
        with self._lock:
            verdict = _AnalysisVerdict(relation, source, diagnostics)
            entries = self._entries.setdefault(sql, [])
            entries[:] = [e for e in entries if e.schema is not verdict.schema]
            entries.append(verdict)
            self._entries.move_to_end(sql)
            while len(self._entries) > self.max_statements:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "statements": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }


#: The process-wide default cache used by ``execute(..., planner=True)``.
_DEFAULT_CACHE = PlanCache()

#: The process-wide strict-analysis memo (both execute paths).
_DEFAULT_ANALYSIS_MEMO = AnalysisMemo()


def default_plan_cache() -> PlanCache:
    return _DEFAULT_CACHE


def default_analysis_memo() -> AnalysisMemo:
    return _DEFAULT_ANALYSIS_MEMO


def clear_plan_cache() -> None:
    """Empty the default cache and the strict-analysis memo."""
    _DEFAULT_CACHE.clear()
    _DEFAULT_ANALYSIS_MEMO.clear()


def plan_cache_stats() -> dict[str, int]:
    """Hit/miss counters of the default cache."""
    return _DEFAULT_CACHE.stats()


# -- planning + execution ----------------------------------------------------


def plan_statement(
    statement: Any,
    source: Source,
    *,
    columnar: bool = True,
    planner: bool = True,
) -> tuple[PlanNode, AnyRelation, bool]:
    """Resolve, pre-check, lower, and optimize one parsed statement.

    ``planner=False`` stops after lowering: the unoptimized logical plan.
    """
    relation = _resolve_relation(statement, source)
    tagged = isinstance(relation, TaggedRelation)
    _check_columns(statement, relation)
    if statement.uses_quality() and not tagged:
        raise SQLError(
            "QUALITY(...) requires a tagged relation; the source is untagged"
        )
    plan = logical_plan(statement, tagged)
    if not planner:
        return plan, relation, tagged
    context = PlanContext.from_relations({statement.relation: relation})
    return optimize(plan, context, columnar=columnar), relation, tagged


_EXPLAIN_SCHEMA = RelationSchema("explain", [Column("plan", "STR")])


def explain_relation(plan: PlanNode) -> Relation:
    """Render a plan tree as the single-column relation EXPLAIN returns."""
    result = Relation(_EXPLAIN_SCHEMA)
    for line in render_plan(plan):
        result.insert({"plan": line})
    return result


def explain_analyze_relation(stats: ExecutionStats) -> Relation:
    """Render an executed stats tree as EXPLAIN ANALYZE's relation."""
    result = Relation(_EXPLAIN_SCHEMA)
    for line in stats.render_lines():
        result.insert({"plan": line})
    return result


def _verify_enabled() -> bool:
    """The REPRO_VERIFY_PLANS flag (read directly; the verifier module
    itself is only imported when the flag is actually on)."""
    return os.environ.get("REPRO_VERIFY_PLANS", "") not in ("", "0")


def _span(name: str, **attributes: Any):
    """A tracer span when ambient instrumentation is on, else a no-op."""
    if _obs_metrics.enabled():
        return global_tracer().span(name, **attributes)
    return nullcontext()


def run_strict_analysis(
    statement: Any,
    source: Source,
    sql: str,
    memo: Optional[AnalysisMemo] = None,
) -> None:
    """Strict-mode gate: analyze (or recall) and raise on errors.

    Consults the :class:`AnalysisMemo` first; the analysis verdict
    depends only on the statement and the schemas the memo validates
    by identity, so a hit replays the memoized diagnostics without
    re-running the analyzer.  Statements whose relation cannot be
    resolved are analyzed uncached (the diagnostics explain the
    unknown relation; there is nothing to key validity on).
    """
    from repro.analysis.diagnostics import QueryAnalysisError
    from repro.analysis.query import analyze_statement

    if memo is None:
        memo = _DEFAULT_ANALYSIS_MEMO
    relation: Optional[AnyRelation] = None
    try:
        relation = _resolve_relation(statement, source)
    except SQLError:
        pass
    if relation is not None:
        cached = memo.lookup(sql, relation, source)
        if cached is not None:
            if cached.has_errors:
                raise QueryAnalysisError(cached, sql)
            return
    diagnostics = analyze_statement(statement, source, sql=sql)
    if relation is not None:
        memo.store(sql, relation, source, diagnostics)
    if diagnostics.has_errors:
        raise QueryAnalysisError(diagnostics, sql)


def _verify_entry(
    entry: PreparedStatement, relation: AnyRelation, source: Source
) -> None:
    """REPRO_VERIFY_PLANS hook: audit one cache entry, raise on DQ409."""
    from repro.analysis.verifier import (
        PlanVerificationError,
        verify_cache_entry,
    )

    diagnostics = verify_cache_entry(entry, relation, source)
    if diagnostics.has_errors:
        raise PlanVerificationError(diagnostics, entry.sql)


def _record_execution(
    sql: str,
    compiled: CompiledPlan,
    binding: Mapping[str, Any],
    collector: Optional[StatsCollector],
    cache_hit: bool,
    planned: bool = True,
) -> tuple[AnyRelation, Optional[ExecutionStats]]:
    """Execute a compiled plan, feeding the ambient and per-call sinks.

    The fast path — no collector, instrumentation off — falls through
    to a bare ``compiled.execute`` with no timers and no stats tree.
    """
    obs_on = _obs_metrics.enabled()
    if collector is None and not obs_on:
        return compiled.execute(binding), None
    stats = compiled.new_stats() if collector is not None else None
    start = perf_counter()
    result = compiled.execute(binding, stats)
    elapsed = perf_counter() - start
    if obs_on:
        registry = _obs_metrics.global_registry()
        registry.counter(
            "qsql.executions", "QSQL statements executed"
        ).inc()
        registry.histogram(
            "qsql.statement_seconds",
            description="wall time per statement execution",
        ).observe(elapsed)
    if collector is not None:
        collector._fill(
            sql, stats, elapsed, len(result), planned=planned,
            cache_hit=cache_hit,
        )
    return result, stats


def execute_planned(
    sql: str,
    source: Source,
    *,
    strict: bool = False,
    cache: Optional[PlanCache] = None,
    collector: Optional[StatsCollector] = None,
    columnar: bool = True,
    planner: bool = True,
) -> AnyRelation:
    """The execute path behind ``executor.execute``.

    ``planner=False`` skips the cache and the optimizer: the unoptimized
    logical plan is compiled and run once, and never stored.

    ``collector`` is the per-call statistics hook: when given, the
    compiled plan executes against a fresh
    :class:`~repro.obs.stats.ExecutionStats` tree and the collector is
    filled with it (plus total time, row count, and cache-hit status).
    Ambient metrics — cache hits/misses, executions, statement-latency
    histogram — flow into the global registry whenever
    :func:`repro.obs.enabled` is on.
    """
    if cache is None:
        cache = _DEFAULT_CACHE
    obs_on = _obs_metrics.enabled()
    verify = _verify_enabled()
    found = (
        cache.lookup(sql, source, columnar, sanitize=verify)
        if planner
        else None
    )
    if found is not None:
        if obs_on:
            _obs_metrics.global_registry().counter(
                "qsql.plancache.hits", "plan-cache lookups reusing an entry"
            ).inc()
        prepared, relation = found
        if verify:
            _verify_entry(prepared, relation, source)
        if strict and not prepared.strict_checked:
            run_strict_analysis(prepared.statement, source, sql)
            prepared.strict_checked = True
        binding = {prepared.relation_name: relation}
        result, _ = _record_execution(
            sql, prepared.compiled, binding, collector, cache_hit=True
        )
        return result

    if obs_on and planner:
        _obs_metrics.global_registry().counter(
            "qsql.plancache.misses", "plan-cache lookups requiring planning"
        ).inc()
    with _span("qsql.parse"):
        statement = parse(sql)
    if strict:
        run_strict_analysis(statement, source, sql)
    with _span("qsql.plan", relation=statement.relation):
        plan, relation, _ = plan_statement(
            statement, source, columnar=columnar, planner=planner
        )
    if statement.explain and not statement.analyze:
        return explain_relation(plan)
    binding = {statement.relation: relation}
    with _span("qsql.compile"):
        compiled = compile_plan(plan, binding, sanitize=verify)
    if statement.explain:
        # EXPLAIN ANALYZE: run the statement against a fresh stats tree
        # and return the annotated plan instead of the result.  Like
        # EXPLAIN, the entry is not cached (its output depends on the
        # data, not just the statement text).
        stats = compiled.new_stats()
        start = perf_counter()
        result = compiled.execute(binding, stats)
        elapsed = perf_counter() - start
        if collector is not None:
            collector._fill(
                sql, stats, elapsed, len(result), planned=planner,
                cache_hit=False,
            )
        return explain_analyze_relation(stats)
    if not planner:
        result, _ = _record_execution(
            sql, compiled, binding, collector, cache_hit=False, planned=False
        )
        return result
    catalog_version = (
        source.catalog_version if isinstance(source, Database) else None
    )
    entry = PreparedStatement(
        sql,
        statement,
        plan,
        compiled,
        relation,
        catalog_version,
        columnar,
        sanitize=verify,
    )
    entry.strict_checked = strict
    if verify:
        _verify_entry(entry, relation, source)
    cache.store(entry)
    result, _ = _record_execution(
        sql, compiled, binding, collector, cache_hit=False
    )
    return result
