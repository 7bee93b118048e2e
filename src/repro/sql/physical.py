"""QSQL physical executor: logical plans → batch operators.

:func:`compile_plan` lowers a logical plan — optimized, or as lowered
for ``execute(..., planner=False)`` — into a tree of
closures that each map a *binding* (relation name → live relation) to a
list of rows.  Compilation resolves every column position, output
schema, and predicate closure once; execution then runs over whole row
batches with no per-row name resolution.

Row semantics live in :mod:`repro.sql.executor`: filters reuse
:func:`repro.sql.executor._compile_predicate`, whose leaves apply the
one comparison rule of :func:`~repro.sql.executor._leaf_test` (NULL is
never true, an incomparable pair is false) — the rule the columnar
selection, constant folding and the analyzer apply too.  Aggregation
and QUALITY-materializing projections call the executor's own
implementations over a trusted batch relation, and DISTINCT delegates
to the algebra modules.  ``Sort`` and ``TopK`` rank positions with one
routine, :func:`_rank`, over one key array per ORDER BY item, on both
batch shapes; a ``QUALITY(parameter)`` key over a tagged relation's
own rows reads the relation's materialized scores
(:meth:`~repro.quality.materialize.ScoreMaterializer.score_array`),
resolved once per execution instead of one scorer call per row.  The
operators only the optimizer emits are:

- ``QualityFilter`` / ``ScoreFilter`` — the tagged leaf
  (:func:`_compile_tagged_leaf`) on both batch shapes: it scans the
  relation's lazily cached
  :meth:`~repro.tagging.relation.TaggedRelation.columnar_store` tag
  arrays and the materialized score arrays instead of evaluating
  per-cell closures; a row plan gathers the surviving ``TaggedRow``
  objects right above it;
- ``TopK`` — ``Sort`` plus ``LIMIT`` in one bounded selection;
- ``HashJoin`` — build-side hash index chosen by the optimizer;
- ``Materialize`` + columnar ``Scan``/``Filter``/``Project``/``TopK``/
  ``Limit`` — the vectorized fragment the optimizer's
  :func:`~repro.sql.optimizer.choose_access_paths` emits, over a plain
  relation or a tagged one (whose fragment may start at the
  ``QualityFilter``/``ScoreFilter`` over the scan).  Inside the
  fragment, operators pass ``(column arrays, selection vector, tagged
  source)`` batches: predicates run over whole arrays, projection
  reorders array references, TopK/Limit shrink the selection vector,
  and ``Materialize`` builds ``Row`` objects late, only for the
  surviving positions — or, in a tagged fragment, gathers the
  relation's own ``TaggedRow`` objects.

Compiled plans close over *names and schemas only*, never over relation
instances: the binding supplies relations at run time, which is what
makes cached plans safe to re-execute after data mutations (the plan
cache revalidates schema identity, not data).

Instrumentation (:mod:`repro.obs`): every compiled operator's batch
function takes ``(binding, stats)``.  With ``stats=None`` — the default
— the only cost is one ``None`` check per *operator* per execution
(never per row).  With an :class:`~repro.obs.stats.ExecutionStats`, a
thin per-operator wrapper (installed at compile time, shared by every
execution of a cached plan) records rows out and inclusive wall time
into the preorder-numbered stats tree; that tree is what
``EXPLAIN ANALYZE`` renders.  ``compile_plan(..., instrument=False)``
omits the wrappers entirely — the baseline the observability-overhead
benchmark measures against.

Sanitizer mode (``compile_plan(..., sanitize=True)``, defaulted from
``REPRO_VERIFY_PLANS``): debug wrappers validate every columnar batch
at every fragment operator — arrays match the operator's schema and
share one length, the selection vector is in-bounds, duplicate-free,
and ascending wherever the operator preserves row order (TopK emits
key order, so order checks stop above it) — plus array↔row alignment
at the Materialize boundary.  The tagged leaf is a fragment operator
on both batch shapes, so its tag-store and score-array hits are
checked on row plans too.  This is the dynamic cross-check of the plan
verifier's static columnar claims (:mod:`repro.analysis.verifier`);
violations raise :class:`ColumnarSanitizerError`.
"""

from __future__ import annotations

import heapq
import operator
import os
from time import perf_counter
from typing import Any, Callable, Mapping, Optional

from repro.errors import QueryError
from repro.obs import metrics as _obs_metrics
from repro.obs.stats import ExecutionStats
from repro.relational import algebra as plain_algebra
from repro.relational import arrays as _codec
from repro.relational.relation import Relation, Row
from repro.relational.schema import Column, RelationSchema
from repro.sql.errors import SQLError
from repro.sql.executor import (
    _COMPARATORS,
    _FLIPPED,
    _compile_operand,
    _compile_predicate,
    _computed_projection,
    _execute_aggregate,
    _item_output_domain,
    _leaf_test,
)
from repro.sql.nodes import (
    BoolOp,
    Literal,
    NotOp,
    QualityRef,
    QualityScoreRef,
    SelectStatement,
)
from repro.sql.plan import (
    Aggregate,
    Distinct,
    Filter,
    HashJoin,
    Limit,
    Materialize,
    PlanNode,
    Project,
    QualityFilter,
    Scan,
    ScoreFilter,
    Sort,
    TopK,
    score_source,
)
from repro.tagging import algebra as tagged_algebra
from repro.tagging.indicators import TagSchema
from repro.tagging.relation import TaggedRelation, TaggedRow

#: A runtime binding: relation name → live relation instance.
Binding = Mapping[str, Any]

#: Preorder op-id assignment: id(plan node) → op id.  None disables
#: instrumentation wrappers (see ``compile_plan(instrument=False)``).
OpIds = Optional[dict[int, int]]


def sanitize_enabled() -> bool:
    """The ``REPRO_VERIFY_PLANS`` flag: plan verification and the
    columnar sanitizer arm together."""
    return os.environ.get("REPRO_VERIFY_PLANS", "") not in ("", "0")


class ColumnarSanitizerError(SQLError):
    """A columnar batch violated the selection-vector / array
    invariants the executor relies on.

    Only raised in sanitizer mode; in normal operation these
    invariants hold by construction and are never checked.
    """


class CompiledNode:
    """One compiled operator: a batch function plus output-shape facts."""

    __slots__ = ("run", "schema", "tagged", "tag_schema")

    def __init__(
        self,
        run: Callable[[Binding, Optional[ExecutionStats]], list],
        schema: RelationSchema,
        tagged: bool,
        tag_schema: Optional[TagSchema],
    ) -> None:
        self.run = run
        self.schema = schema
        self.tagged = tagged
        self.tag_schema = tag_schema


class CompiledPlan:
    """A fully compiled plan, executable against any schema-identical
    binding of the relations it was compiled for."""

    __slots__ = ("_root", "_skeleton")

    def __init__(
        self,
        root: CompiledNode,
        skeleton: tuple[tuple[str, tuple[int, ...]], ...] = (),
    ) -> None:
        self._root = root
        self._skeleton = skeleton

    @property
    def schema(self) -> RelationSchema:
        return self._root.schema

    @property
    def tagged(self) -> bool:
        return self._root.tagged

    def new_stats(self) -> ExecutionStats:
        """A fresh stats tree matching this plan's operators.

        Compiled plans are cached and reused across executions, so the
        per-execution state lives here, never in the closures: pass the
        returned tree to :meth:`execute` and read it afterwards.
        """
        return ExecutionStats.from_skeleton(self._skeleton)

    def execute(
        self, binding: Binding, stats: Optional[ExecutionStats] = None
    ) -> Any:
        rows = self._root.run(binding, stats)
        if self._root.tagged:
            return TaggedRelation.from_rows(
                self._root.schema, self._root.tag_schema, rows
            )
        return Relation.from_rows(self._root.schema, rows)


def _materialize(node: CompiledNode, rows: list) -> Any:
    """Wrap a row batch back into a relation (trusted constructors)."""
    if node.tagged:
        return TaggedRelation.from_rows(node.schema, node.tag_schema, rows)
    return Relation.from_rows(node.schema, rows)


def _assign_op_ids(
    plan: PlanNode,
) -> tuple[dict[int, int], tuple[tuple[str, tuple[int, ...]], ...]]:
    """Preorder-number the plan; returns (ids, stats skeleton)."""
    ids: dict[int, int] = {}
    skeleton: list[tuple[str, list[int]]] = []

    def walk(node: PlanNode) -> int:
        op_id = len(skeleton)
        ids[id(node)] = op_id
        entry: tuple[str, list[int]] = (node.label(), [])
        skeleton.append(entry)
        for child in node.children():
            entry[1].append(walk(child))
        return op_id

    walk(plan)
    return ids, tuple(
        (label, tuple(children)) for label, children in skeleton
    )


def compile_plan(
    plan: PlanNode,
    relations: Binding,
    *,
    instrument: bool = True,
    sanitize: Optional[bool] = None,
) -> CompiledPlan:
    """Compile an optimized plan against the relations' schemas.

    ``instrument=False`` skips the per-operator stats wrappers (the
    plan can no longer report into an ``ExecutionStats`` tree); it
    exists so the overhead benchmark has an uninstrumented baseline.
    ``sanitize`` installs the columnar batch sanitizer wrappers; the
    default follows the ``REPRO_VERIFY_PLANS`` environment flag.
    """
    if sanitize is None:
        sanitize = sanitize_enabled()
    ids, skeleton = _assign_op_ids(plan)
    root = _compile(plan, relations, ids if instrument else None, sanitize)
    return CompiledPlan(root, skeleton if instrument else ())


def execute_plan(plan: PlanNode, relations: Binding) -> Any:
    """Convenience: compile and immediately run against ``relations``."""
    return compile_plan(plan, relations).execute(relations)


def _record_partition_scan(rows_scanned: int, pruned: int) -> None:
    """Obs counters for one pruned-scan execution (enabled() guarded)."""
    registry = _obs_metrics.global_registry()
    registry.counter(
        "partition.scanned",
        "rows fed from surviving partitions by pruned scans",
    ).inc(rows_scanned)
    registry.counter(
        "partition.pruned",
        "partitions statically eliminated by pruned scans",
    ).inc(pruned)


def _surviving_partitions(plan: Scan, relation: Any) -> Optional[list]:
    """The shards a pruned scan reads, or None to fall back to a full
    scan (unpartitioned binding, or a layout that no longer matches the
    plan's metadata — the Filter above makes the superset scan safe)."""
    spec = getattr(relation, "partition_spec", None)
    if (
        spec is None
        or spec.count != plan.partition_total
        or spec.column != plan.partition_key
    ):
        return None
    return [relation.partition(bucket) for bucket in plan.partitions]


def _compile(
    plan: PlanNode, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    if isinstance(plan, Scan):
        node = _compile_scan(plan, relations, ids)
    elif isinstance(plan, (QualityFilter, ScoreFilter)):
        # The tagged leaf of a columnar fragment, gathered back to rows.
        leaf = _compile_columnar(plan, relations, ids, sanitize)
        node = _compile_tagged_materialize(leaf, sanitize)
    elif isinstance(plan, Filter):
        node = _compile_filter(plan, relations, ids, sanitize)
    elif isinstance(plan, Project):
        node = _compile_project(plan, relations, ids, sanitize)
    elif isinstance(plan, HashJoin):
        node = _compile_hash_join(plan, relations, ids, sanitize)
    elif isinstance(plan, Aggregate):
        node = _compile_aggregate(plan, relations, ids, sanitize)
    elif isinstance(plan, (Sort, TopK)):
        node = _compile_order(plan, relations, ids, sanitize)
    elif isinstance(plan, Distinct):
        node = _compile_distinct(plan, relations, ids, sanitize)
    elif isinstance(plan, Limit):
        node = _compile_limit(plan, relations, ids, sanitize)
    elif isinstance(plan, Materialize):
        node = _compile_materialize(plan, relations, ids, sanitize)
    else:
        raise SQLError(f"cannot compile plan node {plan!r}")
    if ids is None:
        return node
    op_id = ids[id(plan)]
    inner = node.run

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
        if stats is None:
            return inner(binding, None)
        start = perf_counter()
        out = inner(binding, stats)
        stats.record(op_id, len(out), perf_counter() - start)
        return out

    return CompiledNode(run, node.schema, node.tagged, node.tag_schema)


def _compile_scan(
    plan: Scan, relations: Binding, ids: OpIds = None
) -> CompiledNode:
    name = plan.relation
    try:
        relation = relations[name]
    except KeyError:
        raise SQLError(f"unknown relation {name!r} in plan binding") from None
    tagged = isinstance(relation, TaggedRelation)

    if plan.partitions is None:

        def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
            return binding[name].row_batch()

    else:
        op_id = None if ids is None else ids[id(plan)]
        pruned_count = plan.partition_total - len(plan.partitions)
        note = f"{len(plan.partitions)}/{plan.partition_total}"

        def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
            live = binding[name]
            shards = _surviving_partitions(plan, live)
            if shards is None:
                return live.row_batch()
            out: list = []
            rows_by_partition: list[int] = []
            for shard in shards:
                batch = shard.row_batch()
                rows_by_partition.append(len(batch))
                out.extend(batch)
            if _obs_metrics.enabled():
                _record_partition_scan(len(out), pruned_count)
            if stats is not None and op_id is not None:
                stats.annotate(
                    op_id,
                    partitions=note,
                    partition_rows=tuple(rows_by_partition),
                )
            return out

    return CompiledNode(
        run,
        relation.schema,
        tagged,
        relation.tag_schema if tagged else None,
    )


def _compile_filter(
    plan: Filter, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    child = _compile(plan.child, relations, ids, sanitize)
    predicate_expr = plan.predicate
    if isinstance(predicate_expr, Literal):
        # Only the optimizer produces literal predicates; TRUE filters
        # are dropped there, so a surviving literal is falsy.
        if predicate_expr.value:
            run = child.run
        else:
            run = lambda binding, stats: []  # noqa: E731
        return CompiledNode(run, child.schema, child.tagged, child.tag_schema)
    predicate = _compile_predicate(
        predicate_expr, child.schema, child.tagged, child.tag_schema
    )
    child_run = child.run

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
        return [row for row in child_run(binding, stats) if predicate(row)]

    return CompiledNode(run, child.schema, child.tagged, child.tag_schema)


def _compile_project(
    plan: Project, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    child = _compile(plan.child, relations, ids, sanitize)
    items = plan.items
    child_run = child.run
    if any(
        isinstance(item.expr, (QualityRef, QualityScoreRef)) for item in items
    ):
        # QUALITY(...) in the select list materializes tag values into a
        # plain relation — delegate to the executor's implementation.
        stub = SelectStatement(
            columns=None,
            relation=child.schema.name,
            select_items=items,
        )
        probe = _materialize(child, [])
        out_schema = _computed_projection(stub, probe, child.tagged).schema

        def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
            temp = _materialize(child, child_run(binding, stats))
            return _computed_projection(stub, temp, child.tagged).row_batch()

        return CompiledNode(run, out_schema, False, None)

    names = [item.expr.column for item in items]  # type: ignore[union-attr]
    if not names:
        raise QueryError("projection requires at least one column")
    renames = {
        item.expr.column: item.alias  # type: ignore[union-attr]
        for item in items
        if item.alias and item.alias != item.expr.column  # type: ignore[union-attr]
    }
    positions = child.schema.positions_of(names)
    out_schema = child.schema.project(names, None)
    if child.tagged:
        out_tags = child.tag_schema.project(names)
        if renames:
            out_schema = out_schema.rename_columns(renames)
            out_tags = out_tags.rename_columns(renames)

        def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
            make = TaggedRow._from_validated
            return [
                make(out_schema, tuple(row.cells[p] for p in positions))
                for row in child_run(binding, stats)
            ]

        return CompiledNode(run, out_schema, True, out_tags)
    if renames:
        out_schema = out_schema.rename_columns(renames)

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
        make = Row._from_validated
        return [
            make(out_schema, tuple(row.at(p) for p in positions))
            for row in child_run(binding, stats)
        ]

    return CompiledNode(run, out_schema, False, None)


def _compile_hash_join(
    plan: HashJoin, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    left = _compile(plan.left, relations, ids, sanitize)
    right = _compile(plan.right, relations, ids, sanitize)
    if left.tagged or right.tagged:
        raise SQLError("hash-join plans support plain relations only")
    overlap = set(left.schema.column_names) & set(right.schema.column_names)
    if overlap:
        raise SQLError(
            f"hash-join inputs share column names {sorted(overlap)}; "
            f"project/rename one side first"
        )
    left_positions = tuple(left.schema.position(l) for l, _ in plan.on)
    right_positions = tuple(right.schema.position(r) for _, r in plan.on)
    out_schema = RelationSchema(
        f"{left.schema.name}_{right.schema.name}",
        list(left.schema.columns) + list(right.schema.columns),
    )
    build_left = plan.build_side == "left"
    single = len(plan.on) == 1
    left_run, right_run = left.run, right.run
    op_id = None if ids is None else ids[id(plan)]

    def key_of(row: Row, positions: tuple[int, ...]) -> Any:
        if single:
            return row.at(positions[0])
        return tuple(row.at(p) for p in positions)

    def null_key(key: Any) -> bool:
        if single:
            return key is None
        return any(part is None for part in key)

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
        left_rows = left_run(binding, stats)
        right_rows = right_run(binding, stats)
        make = Row._from_validated
        out: list[Row] = []
        emit = out.append
        if build_left:
            build_rows, probe_rows = left_rows, right_rows
            build_positions, probe_positions = (
                left_positions, right_positions,
            )
        else:
            build_rows, probe_rows = right_rows, left_rows
            build_positions, probe_positions = (
                right_positions, left_positions,
            )
        if stats is not None and op_id is not None:
            stats.annotate(
                op_id,
                build_rows=len(build_rows),
                probe_rows=len(probe_rows),
            )
        index: dict[Any, list[Row]] = {}
        for row in build_rows:
            key = key_of(row, build_positions)
            if null_key(key):
                continue
            index.setdefault(key, []).append(row)
        if build_left:
            for rrow in probe_rows:
                key = key_of(rrow, probe_positions)
                if null_key(key):
                    continue
                rvalues = rrow.values_tuple()
                for lrow in index.get(key, ()):
                    emit(make(out_schema, lrow.values_tuple() + rvalues))
        else:
            for lrow in probe_rows:
                key = key_of(lrow, probe_positions)
                if null_key(key):
                    continue
                lvalues = lrow.values_tuple()
                for rrow in index.get(key, ()):
                    emit(make(out_schema, lvalues + rrow.values_tuple()))
        return out

    return CompiledNode(run, out_schema, False, None)


def _compile_aggregate(
    plan: Aggregate, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    child = _compile(plan.child, relations, ids, sanitize)
    stub = SelectStatement(
        columns=None,
        relation=child.schema.name,
        select_items=plan.items,
        group_by=plan.group_by,
    )
    probe = _materialize(child, [])
    out_schema = RelationSchema(
        f"{child.schema.name}_agg",
        [
            Column(item.output_name, _item_output_domain(item, probe))
            for item in plan.items
        ],
    )
    child_run = child.run
    tagged = child.tagged

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
        temp = _materialize(child, child_run(binding, stats))
        return _execute_aggregate(stub, temp, tagged).row_batch()

    return CompiledNode(run, out_schema, False, None)


def _check_aggregate_order(plan: Sort | TopK, child: CompiledNode) -> None:
    """The executor's post-aggregation ORDER BY validation, verbatim."""
    for item in plan.order_by:
        if isinstance(item.key, (QualityRef, QualityScoreRef)):
            raise SQLError("ORDER BY QUALITY(...) cannot follow aggregation")
        child.schema.column(item.key.column)


#: Marks a row missing from a materialized score index.
_UNSCORED = object()


def _order_keys(
    plan: Sort | TopK, key_of: Callable[[Any], Callable], sanitize: bool
) -> Callable[[Any, Optional["_TaggedSource"], Optional[list]], list]:
    """The ``(key array, descending)`` pairs :func:`_rank` orders by.

    Returns ``keys(batch, source, sel)``.  A key on
    ``QUALITY(parameter)`` over the scanned relation's own rows
    (:func:`~repro.sql.plan.score_source`) reads the materialized
    scores aligned with ``source`` (:func:`_source_scores`); every other
    key's array is ``key_of(key node)(batch)``, compiled once.
    """
    scored = score_source(plan.child) is not None
    specs = [  # (array builder, or None for a score key; parameter; desc)
        (None, item.key.parameter, item.descending)
        if scored and isinstance(item.key, QualityScoreRef)
        else (key_of(item.key), None, item.descending)
        for item in plan.order_by
    ]

    def keys(batch: Any, source: Any, sel: Optional[list]) -> list:
        return [
            (
                array_of(batch) if array_of is not None
                else _source_scores(plan, source, parameter, sel, sanitize),
                descending,
            )
            for array_of, parameter, descending in specs
        ]

    return keys


def _score_profile(name: str, parameter: str) -> Any:
    """The profile scoring ``parameter`` on relation ``name``; raises
    the executor's error when none is registered."""
    from repro.quality.materialize import profile_for

    profile = profile_for(name)
    if profile is None or not profile.defines(parameter):
        raise SQLError(
            f"QUALITY({parameter}) has no registered scoring "
            f"profile defining {parameter!r} for relation {name!r}"
        )
    return profile


def _check_materialized_score(
    plan: PlanNode, stored: Any, fresh: Any
) -> None:
    """Sanitizer: a materialized sort score equals the row's own score."""
    if stored != fresh:
        raise ColumnarSanitizerError(
            f"{plan.label()}: materialized score {stored!r} differs from "
            f"the row's score {fresh!r}"
        )


def _compile_order(
    plan: Sort | TopK, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    """Sort, or TopK: rank the batch's positions (:func:`_rank`) by one
    key array per ORDER BY item and gather the rows."""
    child = _compile(plan.child, relations, ids, sanitize)
    if isinstance(plan.child, Aggregate):
        _check_aggregate_order(plan, child)
    count = plan.count if isinstance(plan, TopK) else None
    if count is not None and count < 0:
        raise QueryError("limit must be non-negative")

    def key_of(key: Any) -> Callable[[list], list]:
        get = _compile_operand(key, child.schema, child.tagged, child.tag_schema)
        return lambda rows: list(map(get, rows))

    keys = _order_keys(plan, key_of, sanitize)
    name = score_source(plan.child)
    child_run = child.run

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
        rows = child_run(binding, stats)
        if not rows or count == 0:
            # An empty input never reaches the sort keys (a score key
            # would need a profile).
            return []
        source = None if name is None else _TaggedSource(
            binding[name], [(None, rows)]
        )
        ranked = _rank(range(len(rows)), count, keys(rows, source, None))
        return [rows[i] for i in ranked]

    return CompiledNode(run, child.schema, child.tagged, child.tag_schema)


def _rank(
    positions: Any, count: Optional[int], keys: list, pairs: bool = False
) -> list:
    """The first ``count`` of ``positions`` ordered by ``keys`` (all of
    them, fully sorted, when ``count`` is None).

    ``keys`` are ``(array, descending)`` pairs, most significant first,
    indexed by position; ties keep ``positions`` order.  Values compare
    raw, at C speed; a NULL (or incomparable) value raises ``TypeError``
    there, and the ranking reruns over None-safe ``(value is not None,
    value)`` pairs (``pairs=True``), so NULL sorts first ascending.
    One key under a count is a stable bounded heap (all-DESC is
    ``nlargest``, which is ``sorted(..., reverse=True)[:n]`` and keeps
    ties in order).  Otherwise the positions that can reach the top on
    the leading key alone (:func:`_leading_candidates`) go through
    repeated stable single-key sorts, least-significant first, which
    order as one composite key with per-key direction would.
    """
    ranks = [
        (_pair_key(array) if pairs else array.__getitem__, descending)
        for array, descending in keys
    ]
    try:
        if count is not None and len(ranks) == 1:
            key, descending = ranks[0]
            select = heapq.nlargest if descending else heapq.nsmallest
            return select(count, positions, key=key)
        ranked = list(positions)
        if count is not None and len(ranked) > count:
            ranked = _leading_candidates(ranked, count, *ranks[0])
        for key, descending in reversed(ranks):
            ranked.sort(key=key, reverse=descending)
        return ranked[:count]
    except TypeError:
        if pairs:
            raise
        return _rank(positions, count, keys, pairs=True)


def _pair_key(array: list) -> Callable[[int], tuple]:
    """A position's None-safe sort key."""

    def key(i: int) -> tuple:
        value = array[i]
        return (value is not None, value)

    return key


def _leading_candidates(
    positions: list, count: int, key: Callable, descending: bool
) -> list:
    """The positions that can reach the top ``count`` on the leading key.

    Every position of the top ``count`` has a leading key no worse than
    the ``count``-th best (ties included), so only those need the full
    ranking.  They keep their input order, so the stable ranking over
    them returns what it would over all positions.
    """
    leading = list(map(key, positions))
    if descending:
        cut = heapq.nlargest(count, leading)[-1]
        return [i for i, lead in zip(positions, leading) if not lead < cut]
    cut = heapq.nsmallest(count, leading)[-1]
    return [i for i, lead in zip(positions, leading) if not cut < lead]


def _compile_distinct(
    plan: Distinct, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    child = _compile(plan.child, relations, ids, sanitize)
    child_run = child.run

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
        temp = _materialize(child, child_run(binding, stats))
        if child.tagged:
            return tagged_algebra.distinct_values(temp).row_batch()
        return plain_algebra.distinct(temp).row_batch()

    return CompiledNode(run, child.schema, child.tagged, child.tag_schema)


def _compile_limit(
    plan: Limit, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    child = _compile(plan.child, relations, ids, sanitize)
    if plan.count < 0:
        raise QueryError("limit must be non-negative")
    count = plan.count
    child_run = child.run

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
        return child_run(binding, stats)[:count]

    return CompiledNode(run, child.schema, child.tagged, child.tag_schema)


# -- columnar execution ------------------------------------------------------
#
# Inside a Materialize boundary, operators exchange *columnar batches*:
# ``(columns, sel, source)`` where ``columns`` is the list of per-column
# value arrays in schema order, ``sel`` is the selection vector — the
# row positions still alive, in ascending row order (``None`` means
# "every position") — and ``source`` is the :class:`_TaggedSource` the
# arrays align with in a tagged fragment (``None`` in a plain one).
# Filters shrink ``sel`` without touching the arrays; Project reorders
# array references; only Materialize builds (or, tagged, gathers) rows.

#: A columnar batch: (column arrays in schema order, selection vector,
#: tagged source or None).
ColumnarBatch = tuple[list, Optional[list], Optional["_TaggedSource"]]


class _TaggedSource:
    """The tagged rows a tagged fragment's arrays align with.

    ``parts`` lists ``(bucket, rows)`` for each storage segment the
    fragment's leaf read, in array order (``bucket`` is None for the
    flat relation); ``rows`` is their concatenation, so position ``i``
    of every array belongs to ``rows[i]``.  ``relation`` is the bound
    relation, whose score materializer serves ``QUALITY(parameter)``
    sort keys.
    """

    __slots__ = ("relation", "parts", "rows")

    def __init__(self, relation: Any, parts: list[tuple[Any, list]]) -> None:
        self.relation = relation
        self.parts = parts
        if len(parts) == 1:
            self.rows = parts[0][1]
        else:
            self.rows = [row for _, rows in parts for row in rows]


class _ColumnarNode:
    """One compiled columnar operator.

    ``tag_schema`` is set in a tagged fragment: the output rows carry
    tags under it.  ``cells`` then maps each output column to the cell
    position of the source row it comes from (``None`` while the
    fragment still emits the source rows' own column order).
    """

    __slots__ = ("run", "schema", "tag_schema", "cells")

    def __init__(
        self,
        run: Callable[[Binding, Optional[ExecutionStats]], ColumnarBatch],
        schema: RelationSchema,
        tag_schema: Optional[TagSchema] = None,
        cells: Optional[tuple[int, ...]] = None,
    ) -> None:
        self.run = run
        self.schema = schema
        self.tag_schema = tag_schema
        self.cells = cells

    def derived(
        self,
        run: Callable[[Binding, Optional[ExecutionStats]], ColumnarBatch],
    ) -> "_ColumnarNode":
        """The same output shape produced by another batch function."""
        return _ColumnarNode(run, self.schema, self.tag_schema, self.cells)


def _batch_rows(batch: tuple) -> int:
    """Live rows in a columnar batch (selection size, or full length)."""
    columns, sel = batch[0], batch[1]
    if sel is not None:
        return len(sel)
    return len(columns[0]) if columns else 0


def _compile_materialize(
    plan: Materialize, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    """Columnar fragment → row land: gather survivors, build rows late.

    A plain fragment builds ``Row`` objects from the surviving array
    positions.  A tagged fragment builds nothing for its survivors: it
    gathers the source's own ``TaggedRow`` objects (tags and all), and
    only a projection inside the fragment rebuilds them with the
    projected cells.
    """
    child = _compile_columnar(plan.child, relations, ids, sanitize)
    if child.tag_schema is not None:
        return _compile_tagged_materialize(child, sanitize)
    out_schema = child.schema
    child_run = child.run

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
        columns, sel, _ = child_run(binding, stats)
        make = Row._from_validated
        if sel is None:
            # zip(*columns) transposes at C level — one tuple per row.
            rows = [make(out_schema, values) for values in zip(*columns)]
        else:
            gathered = [[array[i] for i in sel] for array in columns]
            rows = [make(out_schema, values) for values in zip(*gathered)]
        if sanitize:
            expected = _batch_rows((columns, sel))
            if len(rows) != expected:
                # zip() truncates to the shortest array, so a length
                # mismatch the batch checks missed surfaces here as
                # silently dropped rows.
                raise ColumnarSanitizerError(
                    f"Materialize: built {len(rows)} rows from a batch "
                    f"selecting {expected} positions (array/row "
                    f"misalignment)"
                )
        return rows

    return CompiledNode(run, out_schema, False, None)


def _compile_tagged_materialize(
    child: _ColumnarNode, sanitize: bool
) -> CompiledNode:
    """A tagged fragment's boundary: the source rows at ``sel``."""
    out_schema = child.schema
    cells = child.cells
    child_run = child.run

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
        columns, sel, source = child_run(binding, stats)
        rows = source.rows
        picked = list(rows) if sel is None else [rows[i] for i in sel]
        if sanitize:
            _check_tagged_alignment(columns, sel, rows, cells)
        if cells is None:
            return picked
        make = TaggedRow._from_validated
        return [
            make(out_schema, tuple([row.cells[p] for p in cells]))
            for row in picked
        ]

    return CompiledNode(run, out_schema, True, child.tag_schema)


def _check_tagged_alignment(
    columns: list, sel: Optional[list], rows: list, cells: Optional[tuple]
) -> None:
    """Sanitizer: each surviving source row holds the array values."""
    positions = cells if cells is not None else range(len(columns))
    for i in _base_positions(columns, sel):
        row_cells = rows[i].cells
        for array, p in zip(columns, positions):
            value = row_cells[p].value
            if array[i] is not value and array[i] != value:
                raise ColumnarSanitizerError(
                    f"Materialize: value array holds {array[i]!r} at "
                    f"position {i} but the source row's cell holds "
                    f"{value!r} (array/row misalignment)"
                )


def _fragment_ordered(plan: PlanNode) -> bool:
    """Whether a fragment operator's selection vector is in row order.

    Scans emit full batches and the tagged leaves (QualityFilter,
    ScoreFilter) ascending store-scan hits (trivially ordered);
    Filter/Project/Limit preserve their input's order; TopK emits *key*
    order (heap output), so everything from it up is unordered.
    """
    if isinstance(plan, (Scan, QualityFilter, ScoreFilter)):
        return True
    if isinstance(plan, TopK):
        return False
    return _fragment_ordered(plan.children()[0])


def _check_columnar_batch(
    label: str, schema: RelationSchema, batch: tuple, ordered: bool
) -> None:
    """Sanitizer: one batch's array and selection-vector invariants.

    ``batch`` is ``(columns, sel)`` or a full :data:`ColumnarBatch`; a
    tagged batch's source rows must match the arrays' length.
    """
    columns, sel = batch[0], batch[1]
    source = batch[2] if len(batch) > 2 else None
    if len(columns) != len(schema.column_names):
        raise ColumnarSanitizerError(
            f"{label}: batch carries {len(columns)} arrays but the "
            f"operator schema has {len(schema.column_names)} columns"
        )
    lengths = {len(array) for array in columns}
    if len(lengths) > 1:
        raise ColumnarSanitizerError(
            f"{label}: column arrays disagree on length "
            f"({sorted(lengths)}); rows would be built misaligned"
        )
    length = lengths.pop() if lengths else 0
    if source is not None and len(source.rows) != length:
        raise ColumnarSanitizerError(
            f"{label}: arrays have {length} entries but the tagged "
            f"source holds {len(source.rows)} rows; Materialize would "
            f"gather misaligned rows"
        )
    if sel is None:
        return
    previous = -1
    seen: set[int] = set()
    for index in sel:
        if not isinstance(index, int) or not -1 < index < length:
            raise ColumnarSanitizerError(
                f"{label}: selection vector holds out-of-bounds "
                f"position {index!r} (arrays have {length} entries)"
            )
        if ordered:
            if index <= previous:
                raise ColumnarSanitizerError(
                    f"{label}: selection vector is not strictly "
                    f"ascending ({index} after {previous}) although "
                    f"this operator preserves row order"
                )
            previous = index
        else:
            if index in seen:
                raise ColumnarSanitizerError(
                    f"{label}: selection vector selects position "
                    f"{index} twice"
                )
            seen.add(index)


def _compile_columnar(
    plan: PlanNode, relations: Binding, ids: OpIds, sanitize: bool = False
) -> _ColumnarNode:
    """Compile one operator of a columnar fragment (plus stats wrapper)."""
    if isinstance(plan, (QualityFilter, ScoreFilter)) or (
        isinstance(plan, Scan)
        and isinstance(relations.get(plan.relation), TaggedRelation)
    ):
        node = _compile_tagged_leaf(plan, relations, ids, sanitize)
    elif isinstance(plan, Scan):
        node = _compile_columnar_scan(plan, relations, ids)
    elif isinstance(plan, Filter):
        node = _compile_columnar_filter(plan, relations, ids, sanitize)
    elif isinstance(plan, Project):
        node = _compile_columnar_project(plan, relations, ids, sanitize)
    elif isinstance(plan, TopK):
        node = _compile_columnar_topk(plan, relations, ids, sanitize)
    elif isinstance(plan, Limit):
        node = _compile_columnar_limit(plan, relations, ids, sanitize)
    else:
        raise SQLError(f"cannot compile columnar plan node {plan!r}")
    if sanitize:
        label = plan.label()
        schema = node.schema
        ordered = _fragment_ordered(plan)
        checked = node.run

        def run_checked(
            binding: Binding, stats: Optional[ExecutionStats]
        ) -> ColumnarBatch:
            batch = checked(binding, stats)
            _check_columnar_batch(label, schema, batch, ordered)
            return batch

        node = node.derived(run_checked)
    if ids is None:
        return node
    op_id = ids[id(plan)]
    inner = node.run
    is_scan = isinstance(plan, Scan)

    def run(
        binding: Binding, stats: Optional[ExecutionStats]
    ) -> ColumnarBatch:
        if stats is None:
            return inner(binding, None)
        start = perf_counter()
        batch = inner(binding, stats)
        stats.record(op_id, _batch_rows(batch), perf_counter() - start)
        if is_scan:
            stats.annotate(op_id, batch="columnar", columns=len(batch[0]))
        else:
            stats.annotate(op_id, batch="columnar")
        return batch

    return node.derived(run)


def _compile_columnar_scan(
    plan: Scan, relations: Binding, ids: OpIds = None
) -> _ColumnarNode:
    name = plan.relation
    try:
        relation = relations[name]
    except KeyError:
        raise SQLError(f"unknown relation {name!r} in plan binding") from None

    if plan.partitions is None:

        def run(
            binding: Binding, stats: Optional[ExecutionStats]
        ) -> ColumnarBatch:
            return binding[name].columnar_store().column_arrays(), None, None

    else:
        op_id = None if ids is None else ids[id(plan)]
        pruned_count = plan.partition_total - len(plan.partitions)
        note = f"{len(plan.partitions)}/{plan.partition_total}"
        width = len(relation.schema.column_names)

        def run(
            binding: Binding, stats: Optional[ExecutionStats]
        ) -> ColumnarBatch:
            live = binding[name]
            shards = _surviving_partitions(plan, live)
            if shards is None:
                return live.columnar_store().column_arrays(), None, None
            if len(shards) == 1:
                # Zero-copy: a single surviving partition serves its own
                # version-gated column arrays directly.
                columns = shards[0].columnar_store().column_arrays()
                rows_by_partition = [len(columns[0]) if columns else 0]
            else:
                parts = [
                    shard.columnar_store().column_arrays()
                    for shard in shards
                ]
                rows_by_partition = [
                    len(part[0]) if part else 0 for part in parts
                ]
                columns = [
                    [value for part in parts for value in part[index]]
                    for index in range(width)
                ]
            fed = sum(rows_by_partition)
            if _obs_metrics.enabled():
                _record_partition_scan(fed, pruned_count)
            if stats is not None and op_id is not None:
                stats.annotate(
                    op_id,
                    partitions=note,
                    partition_rows=tuple(rows_by_partition),
                )
            return columns, None, None

    return _ColumnarNode(run, relation.schema)


def _compile_tagged_leaf(
    plan: PlanNode, relations: Binding, ids: OpIds, sanitize: bool = False
) -> _ColumnarNode:
    """The leaf of a tagged fragment: a tagged Scan, or the
    QualityFilter / ScoreFilter directly over one.

    Emits the store's value arrays with the filters' selection vector:
    tag constraints scan the :class:`~repro.tagging.columnar.ColumnarTagStore`
    arrays, score constraints the materialized score arrays, and no row
    list is built.  Partitioned scans follow the plain columnar scan's
    per-shard rules: a layout that no longer matches reads the flat
    relation, one surviving shard is served zero-copy, several are
    concatenated (hit positions offset by the shards before them).
    A row plan's QualityFilter / ScoreFilter compiles as this leaf too,
    with :func:`_compile_tagged_materialize` gathering its rows.
    """
    score_constraints: Optional[list] = None
    tag_constraints: Optional[list] = None
    node = plan
    if isinstance(node, ScoreFilter):
        score_constraints = list(node.constraints)
        node = node.child
    if isinstance(node, QualityFilter):
        tag_constraints = list(node.constraints)
        node = node.child
    if not isinstance(node, Scan):
        raise SQLError(
            f"{type(plan).__name__} must sit directly above a tagged Scan"
        )
    scan = node
    name = scan.relation
    try:
        relation = relations[name]
    except KeyError:
        raise SQLError(f"unknown relation {name!r} in plan binding") from None
    if not isinstance(relation, TaggedRelation):
        raise SQLError(f"{plan.label()} requires a tagged relation")
    schema = relation.schema
    width = len(schema.column_names)
    # The leaf reads storage directly, so a swallowed Scan's closure
    # never runs: credit its row count (and partition note) here, so the
    # annotated tree still shows the filter's input size.
    scan_id = None if ids is None else ids[id(scan)]
    swallowed = scan is not plan
    label = plan.label()
    pruned_count = note = None
    if scan.partitions is not None:
        pruned_count = scan.partition_total - len(scan.partitions)
        note = f"{len(scan.partitions)}/{scan.partition_total}"

    from repro.quality.materialize import materializer_for

    def read(segment: Any, bucket: Any, materializer: Any) -> tuple:
        """One segment's (store, selection vector or None)."""
        store = segment.columnar_store()
        sel = None
        if tag_constraints is not None:
            sel = store.scan(tag_constraints)
        if score_constraints is not None:
            sel = materializer.filter_indices(
                score_constraints, bucket=bucket, candidates=sel
            )
            if sanitize:
                _check_score_alignment(label, materializer, bucket, store)
        return store, sel

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> ColumnarBatch:
        live = binding[name]
        materializer = (
            None if score_constraints is None else materializer_for(live)
        )
        shards = (
            None if scan.partitions is None
            else _surviving_partitions(scan, live)
        )
        if shards is None:
            store, sel = read(live, None, materializer)
            columns = store.column_arrays()
            parts = [(None, store.tagged_rows)]
        else:
            reads = [
                read(shard, bucket, materializer)
                for bucket, shard in zip(scan.partitions, shards)
            ]
            parts = [
                (bucket, store.tagged_rows)
                for bucket, (store, _) in zip(scan.partitions, reads)
            ]
            if len(reads) == 1:
                store, sel = reads[0]
                columns = store.column_arrays()
            else:
                arrays = [store.column_arrays() for store, _ in reads]
                columns = [
                    [value for part in arrays for value in part[index]]
                    for index in range(width)
                ]
                sel = None
                if any(hits is not None for _, hits in reads):
                    sel = []
                    offset = 0
                    for store, hits in reads:
                        length = len(store)
                        sel.extend(
                            range(offset, offset + length) if hits is None
                            else (offset + i for i in hits)
                        )
                        offset += length
        source = _TaggedSource(live, parts)
        if shards is not None and _obs_metrics.enabled():
            _record_partition_scan(len(source.rows), pruned_count)
        if stats is not None and scan_id is not None:
            if swallowed:
                stats.record(scan_id, len(source.rows), 0.0)
                stats.annotate(scan_id, batch="columnar", columns=width)
            if shards is not None:
                stats.annotate(
                    scan_id,
                    partitions=note,
                    partition_rows=tuple(len(rows) for _, rows in parts),
                )
        return columns, sel, source

    return _ColumnarNode(run, schema, relation.tag_schema)


def _check_score_alignment(
    label: str, materializer: Any, bucket: Any, store: Any
) -> None:
    """Sanitizer: a score block's rows are the store's rows, in order,
    so score-filter hits index the store's value arrays correctly."""
    block_rows = materializer.block_rows(bucket)
    rows = store.tagged_rows
    if block_rows is rows:
        return
    if block_rows is None or len(block_rows) != len(rows) or not all(
        map(operator.is_, block_rows, rows)
    ):
        raise ColumnarSanitizerError(
            f"{label}: the score block's rows are not the tag store's "
            f"rows; score-filter hits would select misaligned values"
        )


def _compile_columnar_filter(
    plan: Filter, relations: Binding, ids: OpIds, sanitize: bool = False
) -> _ColumnarNode:
    child = _compile_columnar(plan.child, relations, ids, sanitize)
    child_run = child.run
    predicate_expr = plan.predicate
    if isinstance(predicate_expr, Literal):
        # As on the row path: TRUE filters were dropped by the
        # optimizer, so a surviving literal is falsy — nothing passes.
        if predicate_expr.value:
            return child

        def run_empty(
            binding: Binding, stats: Optional[ExecutionStats]
        ) -> ColumnarBatch:
            columns, _, source = child_run(binding, stats)
            return columns, [], source

        return child.derived(run_empty)
    predicate = _compile_columnar_predicate(predicate_expr, child.schema)

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> ColumnarBatch:
        columns, sel, source = child_run(binding, stats)
        return columns, predicate(columns, sel), source

    return child.derived(run)


def _base_positions(columns: list, sel: Optional[list]):
    """The positions a predicate must examine, in ascending row order."""
    if sel is not None:
        return sel
    return range(len(columns[0]) if columns else 0)


def _compile_columnar_predicate(
    expr: Any, schema: RelationSchema
) -> Callable[[list, Optional[list]], list]:
    """Compile a WHERE tree into a whole-array selection function.

    Returns ``fn(columns, sel) -> hits`` where ``hits`` is the new
    selection vector (ascending row positions).  Each leaf applies the
    row closure's value test (:func:`repro.sql.executor._leaf_test`) to
    array entries — a column compared with a constant through
    :func:`repro.relational.arrays.matching`, the same rule as one
    comprehension — and NOT/OR complement/merge those per-row outcomes,
    so a row survives the columnar filter iff it survives the row
    closure.
    """
    if isinstance(expr, BoolOp):
        left_run = _compile_columnar_predicate(expr.left, schema)
        right_run = _compile_columnar_predicate(expr.right, schema)
        if expr.op == "AND":
            # Conjunction = composition: the right side only probes the
            # left side's survivors (same short-circuit as the row path).
            return lambda columns, sel: right_run(
                columns, left_run(columns, sel)
            )

        def run_or(columns: list, sel: Optional[list]) -> list:
            left_hits = left_run(columns, sel)
            seen = set(left_hits)
            remaining = [
                i for i in _base_positions(columns, sel) if i not in seen
            ]
            # Disjoint ascending runs — sorted() restores row order.
            return sorted(left_hits + right_run(columns, remaining))

        return run_or
    if isinstance(expr, NotOp):
        inner_run = _compile_columnar_predicate(expr.operand, schema)

        def run_not(columns: list, sel: Optional[list]) -> list:
            hits = set(inner_run(columns, sel))
            return [
                i for i in _base_positions(columns, sel) if i not in hits
            ]

        return run_not
    leaf = _leaf_test(expr)
    if leaf is None:
        raise SQLError(f"unknown expression node {expr!r}")
    test, operands = leaf
    constants = [isinstance(operand, Literal) for operand in operands]
    if all(constants):
        # fold_constants normally removes these; evaluate once anyway.
        if test(*(operand.value for operand in operands)):
            return lambda columns, sel: list(_base_positions(columns, sel))
        return lambda columns, sel: []
    if any(constants):
        # A column against a constant, turned to read ``column <op> c``.
        column, constant = operands if constants[1] else operands[::-1]
        op = expr.op if constants[1] else _FLIPPED[expr.op]
        if constant.value is None:
            return lambda columns, sel: []  # test(v, NULL) is never true
        position = schema.position(column.column)
        compare, value = _COMPARATORS[op], constant.value
        return lambda columns, sel: _codec.matching(
            columns[position], compare, value, sel
        )
    positions = [schema.position(operand.column) for operand in operands]
    if len(positions) == 1:
        (p,) = positions

        def run_one(columns: list, sel: Optional[list]) -> list:
            array = columns[p]
            return [i for i in _base_positions(columns, sel) if test(array[i])]

        return run_one
    left_p, right_p = positions

    def run_two(columns: list, sel: Optional[list]) -> list:
        left, right = columns[left_p], columns[right_p]
        return [
            i for i in _base_positions(columns, sel) if test(left[i], right[i])
        ]

    return run_two


def _compile_columnar_project(
    plan: Project, relations: Binding, ids: OpIds, sanitize: bool = False
) -> _ColumnarNode:
    child = _compile_columnar(plan.child, relations, ids, sanitize)
    names = [item.expr.column for item in plan.items]  # type: ignore[union-attr]
    if not names:
        raise QueryError("projection requires at least one column")
    renames = {
        item.expr.column: item.alias  # type: ignore[union-attr]
        for item in plan.items
        if item.alias and item.alias != item.expr.column  # type: ignore[union-attr]
    }
    positions = child.schema.positions_of(names)
    out_schema = child.schema.project(names, None)
    out_tags = cells = None
    if child.tag_schema is not None:
        out_tags = child.tag_schema.project(names)
        if renames:
            out_tags = out_tags.rename_columns(renames)
        # Output column j reads cell cells[j] of the source row.
        cells = tuple(
            positions if child.cells is None
            else [child.cells[p] for p in positions]
        )
    if renames:
        out_schema = out_schema.rename_columns(renames)
    child_run = child.run

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> ColumnarBatch:
        columns, sel, source = child_run(binding, stats)
        # Projection over arrays is free: reorder the references.
        return [columns[p] for p in positions], sel, source

    return _ColumnarNode(run, out_schema, out_tags, cells)


def _compile_columnar_topk(
    plan: TopK, relations: Binding, ids: OpIds, sanitize: bool = False
) -> _ColumnarNode:
    """Bounded selection over key arrays: the selection vector shrinks
    to the top ``count`` positions, in key order (:func:`_rank`).

    A key is a column's value array or, for ``QUALITY(parameter)`` over
    a tagged fragment that still emits its source rows, the source's
    aligned materialized score array (:func:`_order_keys`).
    """
    child = _compile_columnar(plan.child, relations, ids, sanitize)
    if plan.count < 0:
        raise QueryError("limit must be non-negative")
    keys = _order_keys(
        plan,
        lambda key: operator.itemgetter(child.schema.position(key.column)),
        sanitize,
    )
    count = plan.count
    child_run = child.run

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> ColumnarBatch:
        columns, sel, source = child_run(binding, stats)
        base = _base_positions(columns, sel)
        if not base or not count:
            # As on the row path, an empty input never reaches the sort
            # keys (a score key would need a profile).
            return columns, [], source
        return columns, _rank(base, count, keys(columns, source, sel)), source

    return child.derived(run)


def _source_scores(
    plan: PlanNode,
    source: "_TaggedSource",
    parameter: str,
    sel: Optional[list],
    sanitize: bool,
) -> list:
    """``parameter``'s materialized scores aligned with ``source.rows``.

    Each segment's score block is read in place when its rows are the
    very list the fragment's arrays came from (always the case on a
    frozen snapshot), so an unpartitioned read copies nothing.  A
    block built over another copy of the rows (a live relation) is
    matched by row identity instead, and a row missing from it is
    scored directly.  The sanitizer re-scores every ranked position.
    """
    from repro.quality.materialize import (
        materializer_for,
        row_parameter_score,
        tagged_positions,
    )

    relation = source.relation
    profile = _score_profile(relation.schema.name, parameter)
    materializer = materializer_for(relation)
    positions = tagged_positions(relation)
    arrays = []
    for bucket, rows in source.parts:
        block_rows, scores = materializer.score_array(parameter, bucket)
        if block_rows is not rows:
            # As the row TopK keys do: the flat block's id index, and a
            # row missing from it scored directly.
            lookup = materializer.score_index(parameter).get
            scores = [lookup(id(row), _UNSCORED) for row in rows]
            for index, score in enumerate(scores):
                if score is _UNSCORED:
                    scores[index] = row_parameter_score(
                        profile, parameter, rows[index], positions
                    )
        arrays.append(scores)
    scores = arrays[0] if len(arrays) == 1 else [s for a in arrays for s in a]
    if sanitize:
        for i in range(len(scores)) if sel is None else sel:
            fresh = row_parameter_score(
                profile, parameter, source.rows[i], positions
            )
            _check_materialized_score(plan, scores[i], fresh)
    return scores


def _compile_columnar_limit(
    plan: Limit, relations: Binding, ids: OpIds, sanitize: bool = False
) -> _ColumnarNode:
    child = _compile_columnar(plan.child, relations, ids, sanitize)
    if plan.count < 0:
        raise QueryError("limit must be non-negative")
    count = plan.count
    child_run = child.run

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> ColumnarBatch:
        columns, sel, source = child_run(binding, stats)
        if sel is not None:
            return columns, sel[:count], source
        length = len(columns[0]) if columns else 0
        if count >= length:
            return columns, None, source
        return columns, list(range(count)), source

    return child.derived(run)
