"""QSQL execution over relations, tagged relations, and databases.

``execute(sql, source)`` accepts:

- a :class:`~repro.tagging.relation.TaggedRelation` (full QSQL,
  including ``QUALITY(...)`` references);
- a :class:`~repro.relational.relation.Relation` (QUALITY references
  are rejected — untagged data has no tags to query);
- a :class:`~repro.relational.catalog.Database` or a mapping of
  relation name → relation/tagged relation (the FROM clause resolves
  against it).

Results preserve the input's flavor: tagged sources yield tagged
relations (tags travel through the query, per the attribute-based
model), plain sources yield plain relations.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Mapping, Optional, Union

from repro.relational.catalog import Database
from repro.relational.relation import Relation, Row
from repro.sql.errors import SQLError
from repro.sql.nodes import (
    AggregateCall,
    BoolOp,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Literal,
    NotOp,
    QualityRef,
    QualityScoreRef,
    SelectItem,
    SelectStatement,
)
from repro.tagging.relation import TaggedRelation, TaggedRow

AnyRelation = Union[Relation, TaggedRelation]

#: QSQL comparison operator → its ``operator`` module function (the
#: same result as ``a <op> b``, with no Python frame per call).
_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
#: Mirror of each comparison when its operands swap sides.
_FLIPPED = {"=": "=", "<>": "<>", "!=": "!=", "<": ">", "<=": ">=",
            ">": "<", ">=": "<="}


def _resolve_relation(
    statement: SelectStatement,
    source: AnyRelation | Database | Mapping[str, AnyRelation],
) -> AnyRelation:
    if isinstance(source, (Relation, TaggedRelation)):
        if source.schema.name != statement.relation:
            raise SQLError(
                f"FROM {statement.relation!r} does not match the supplied "
                f"relation {source.schema.name!r}"
            )
        return source
    if isinstance(source, Database):
        return source.relation(statement.relation)
    if isinstance(source, Mapping):
        try:
            return source[statement.relation]
        except KeyError:
            raise SQLError(
                f"unknown relation {statement.relation!r} "
                f"(available: {sorted(source)})"
            ) from None
    raise SQLError(
        f"cannot execute against source of type {type(source).__name__}"
    )


def _compile_operand(
    operand: Any, schema: Any, tagged: bool, tag_schema: Any = None
) -> Callable[[Row | TaggedRow], Any]:
    """Compile an operand node into a per-row getter.

    Column positions resolve once at compile time, so the per-row work
    is a tuple index instead of a name lookup and isinstance dispatch.
    ``tag_schema`` is only needed for ``QUALITY(parameter)`` score
    references (it names the scorable columns).
    """
    if isinstance(operand, Literal):
        value = operand.value
        return lambda row: value
    if isinstance(operand, ColumnRef):
        position = schema.position(operand.column)
        if tagged:
            return lambda row: row.cells[position].value
        return lambda row: row.at(position)
    if isinstance(operand, QualityRef):
        if not tagged:
            raise SQLError(
                "QUALITY(...) requires a tagged relation; the source is untagged"
            )
        position = schema.position(operand.column)
        indicator = operand.indicator
        return lambda row: row.cells[position].tag_value(indicator)
    if isinstance(operand, QualityScoreRef):
        if not tagged or tag_schema is None:
            raise SQLError(
                "QUALITY(...) requires a tagged relation; the source is untagged"
            )
        from repro.quality.materialize import (
            profile_for,
            row_parameter_score,
        )

        parameter = operand.parameter
        name = schema.name
        positions = tuple(
            schema.position(column)
            for column in tag_schema.tagged_columns
        )

        def get(row: TaggedRow) -> Any:
            # Resolved per row (a dict lookup) so cached closures never
            # pin a superseded profile registration.
            profile = profile_for(name)
            if profile is None or not profile.defines(parameter):
                raise SQLError(
                    f"QUALITY({parameter}) has no registered scoring "
                    f"profile defining {parameter!r} for relation "
                    f"{name!r}"
                )
            return row_parameter_score(profile, parameter, row, positions)

        return get
    raise SQLError(f"unknown operand node {operand!r}")


def _check_columns(statement: SelectStatement, relation: AnyRelation) -> None:
    """Validate every referenced column upfront (fail fast, not per-row).

    Routed through the analyzer's reference resolver
    (:func:`repro.analysis.query.reference_diagnostics`), the single
    implementation of name resolution — an unknown column raises here
    with exactly the DQ202 message.  Unknown-column errors take
    precedence over QUALITY-on-untagged, matching the historical check
    order; unknown *indicators* (DQ203/DQ204) do not raise — at
    execution time a missing tag reads as NULL.
    """
    from repro.errors import UnknownColumnError
    from repro.analysis.query import reference_diagnostics

    diagnostics = reference_diagnostics(statement, relation)
    for diagnostic in diagnostics:
        if diagnostic.code == "DQ202":
            raise UnknownColumnError(diagnostic.message)
    for diagnostic in diagnostics:
        if diagnostic.code == "DQ205":
            raise SQLError(
                "QUALITY(...) requires a tagged relation; the source is "
                "untagged"
            )


def _leaf_test(expr: Any) -> Optional[tuple[Callable[..., bool], tuple]]:
    """One leaf predicate as ``(value test, operand nodes)``.

    The test takes the operands' values, in order, and is QSQL's one
    comparison rule: a NULL operand is never true (nor is a NULL ``IN``
    target), and a pair the comparison rejects with ``TypeError`` is
    false.  The row closure, the columnar selection, constant folding
    and the analyzer all apply it; None means ``expr`` is not a leaf.
    """
    if isinstance(expr, Comparison):
        compare = _COMPARATORS[expr.op]

        def test(a: Any, b: Any) -> bool:
            if a is None or b is None:
                return False
            try:
                return compare(a, b)
            except TypeError:
                return False

        return test, (expr.left, expr.right)
    if isinstance(expr, InList):
        options = expr.options
        if expr.negated:
            return (
                lambda value: value is not None and value not in options,
                (expr.operand,),
            )
        return (
            lambda value: value is not None and value in options,
            (expr.operand,),
        )
    if isinstance(expr, IsNull):
        if expr.negated:
            return (lambda value: value is not None), (expr.operand,)
        return (lambda value: value is None), (expr.operand,)
    return None


def _compile_predicate(
    expr: Any, schema: Any, tagged: bool, tag_schema: Any = None
) -> Callable[[Row | TaggedRow], bool]:
    """Compile a WHERE tree into one per-row predicate closure.

    The AST is walked once here; each leaf applies :func:`_leaf_test`
    to its operands' per-row getters, and the returned closures
    short-circuit AND/OR without re-dispatching on node types per row.
    """
    if isinstance(expr, BoolOp):
        left_test = _compile_predicate(expr.left, schema, tagged, tag_schema)
        right_test = _compile_predicate(expr.right, schema, tagged, tag_schema)
        if expr.op == "AND":
            return lambda row: left_test(row) and right_test(row)
        return lambda row: left_test(row) or right_test(row)
    if isinstance(expr, NotOp):
        inner = _compile_predicate(expr.operand, schema, tagged, tag_schema)
        return lambda row: not inner(row)
    leaf = _leaf_test(expr)
    if leaf is None:
        raise SQLError(f"unknown expression node {expr!r}")
    test, operands = leaf
    getters = [
        _compile_operand(operand, schema, tagged, tag_schema)
        for operand in operands
    ]
    if len(getters) == 1:
        get = getters[0]
        return lambda row: test(get(row))
    left, right = getters
    return lambda row: test(left(row), right(row))


def _operand_domain(
    operand: Union[ColumnRef, QualityRef, QualityScoreRef],
    relation: AnyRelation,
):
    from repro.relational.types import FLOAT, STR

    if isinstance(operand, ColumnRef):
        return relation.schema.column(operand.column).domain
    if isinstance(operand, QualityScoreRef):
        return FLOAT  # parameter scores live in [0, 1]
    if isinstance(relation, TaggedRelation):
        try:
            return relation.tag_schema.definition(operand.indicator).domain
        except Exception:
            return STR
    return STR  # pragma: no cover - QUALITY on plain rejected earlier


def _item_output_domain(item: SelectItem, relation: AnyRelation):
    from repro.relational.types import FLOAT, INT

    expr = item.expr
    if isinstance(expr, AggregateCall):
        if expr.func == "COUNT":
            return INT
        if expr.func in ("SUM", "AVG"):
            return FLOAT
        assert expr.operand is not None  # parser guarantees for MIN/MAX
        return _operand_domain(expr.operand, relation)
    return _operand_domain(expr, relation)


def _execute_aggregate(
    statement: SelectStatement, relation: AnyRelation, tagged: bool
) -> Relation:
    """GROUP BY + aggregate evaluation; always yields a plain relation."""
    from repro.relational.algebra import AGGREGATES
    from repro.relational.schema import Column, RelationSchema

    items = statement.select_items or ()
    out_columns = [
        Column(item.output_name, _item_output_domain(item, relation))
        for item in items
    ]
    out_schema = RelationSchema(f"{statement.relation}_agg", out_columns)

    tag_schema = relation.tag_schema if tagged else None
    key_getters = [
        _compile_operand(key_ref, relation.schema, tagged, tag_schema)
        for key_ref in statement.group_by
    ]
    groups: dict[tuple[Any, ...], list[Any]] = {}
    order: list[tuple[Any, ...]] = []
    for row in relation:
        key = tuple(get(row) for get in key_getters)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    if not statement.group_by and not groups:
        groups[()] = []
        order.append(())

    def item_evaluator(item: SelectItem) -> Callable[[list, dict], Any]:
        expr = item.expr
        if isinstance(expr, AggregateCall):
            if expr.operand is None:  # COUNT(*)
                return lambda rows, key_values: len(rows)
            get = _compile_operand(
                expr.operand, relation.schema, tagged, tag_schema
            )
            combine = AGGREGATES[expr.func.lower()]
            return lambda rows, key_values: combine([get(row) for row in rows])
        # A grouping key (validated by the parser).
        return lambda rows, key_values: key_values[expr]

    evaluators = [(item.output_name, item_evaluator(item)) for item in items]
    result = Relation(out_schema)
    for key in order:
        rows = groups[key]
        key_values = dict(zip(statement.group_by, key))
        # Aggregates compute *new* values, so they go through the
        # validating insert, unlike pass-through rows elsewhere.
        result.insert(
            {name: evaluate(rows, key_values) for name, evaluate in evaluators}
        )
    return result


def _computed_projection(
    statement: SelectStatement, relation: AnyRelation, tagged: bool
) -> Relation:
    """Materialize a select list containing QUALITY(...) value columns."""
    from repro.relational.schema import Column, RelationSchema

    items = statement.select_items or ()
    out_schema = RelationSchema(
        relation.schema.name,
        [
            Column(item.output_name, _item_output_domain(item, relation))
            for item in items
        ],
    )
    tag_schema = relation.tag_schema if tagged else None
    getters = [
        (
            item.output_name,
            _compile_operand(item.expr, relation.schema, tagged, tag_schema),
        )
        for item in items
    ]
    result = Relation(out_schema)
    for row in relation:
        result.insert({name: get(row) for name, get in getters})
    return result


def execute(
    sql: str,
    source: AnyRelation | Database | Mapping[str, AnyRelation],
    *,
    strict: bool = False,
    planner: bool = True,
    columnar: bool = True,
    stats: Any = None,
) -> AnyRelation:
    """Parse and execute a QSQL SELECT; returns a (tagged) relation.

    Aggregate queries (``COUNT``/``SUM``/``AVG``/``MIN``/``MAX``, with
    optional ``GROUP BY``) always return a *plain* relation — aggregated
    values have no single manufacturing history to tag.

    With ``strict=True`` the statement first runs through the static
    analyzer (:mod:`repro.analysis`); error-severity diagnostics raise
    :class:`~repro.analysis.diagnostics.QueryAnalysisError` *before*
    any row is touched, with every problem reported at once.

    Every statement runs through the query pipeline: the AST lowers to
    a logical plan (:mod:`repro.sql.plan`) that the physical executor
    (:mod:`repro.sql.physical`) compiles and runs.  By default the
    optimizer (:mod:`repro.sql.optimizer`) rewrites the plan first and
    the result is cached (:mod:`repro.sql.plancache`): repeated
    statement texts skip lexing, parsing, and planning, and QUALITY
    predicates route through the relation's columnar tag store.
    ``planner=False`` runs the *unoptimized* logical plan instead — no
    rewrites, row-at-a-time, not cached — semantically equivalent, and
    kept as the reference baseline.  ``EXPLAIN`` and ``EXPLAIN
    ANALYZE`` render whichever plan the mode runs.

    With the optimizer on, scan-heavy fragments over plain relations
    execute *columnar*: per-column value arrays plus a selection
    vector, with ``Row`` objects materialized only at the plan's
    ``Materialize`` boundary (EXPLAIN shows the chosen access path).
    ``columnar=False`` is the escape hatch forcing row-at-a-time plans;
    ``planner=False`` plans are always row-at-a-time.

    ``stats`` accepts a :class:`~repro.obs.stats.StatsCollector`: after
    the call it holds the per-operator execution tree (what
    ``EXPLAIN ANALYZE`` renders) plus total time, row count, and
    whether a cached plan was reused.  Collection is per-call and never
    changes the result.
    """
    # Imported lazily: plancache depends on this module.
    from repro.sql.plancache import execute_planned

    return execute_planned(
        sql,
        source,
        strict=strict,
        collector=stats,
        columnar=columnar,
        planner=planner,
    )
