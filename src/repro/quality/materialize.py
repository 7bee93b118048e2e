"""Materialized, incrementally maintained parameter scores.

ROADMAP item 4 (the paper's Step 2/3 at scale): registered
:class:`~repro.quality.scoring.ParameterScorer` functions map objective
*indicators* to subjective *parameters* (timeliness, credibility), and
the acceptable score is context-relative — the §4 mass-mailing vs
fund-raising example.  This module makes those scores first-class
storage:

- a :class:`ScoringProfile` names one application view: its parameter
  scorers, the scoring context (e.g. ``today``), and per-parameter
  acceptability thresholds;
- a module-level registry binds profiles to relations *by schema name*,
  so frozen :meth:`~repro.tagging.relation.TaggedRelation.read_snapshot`
  copies (same schema object, different relation object) resolve to the
  same profile — service snapshots read frozen score columns for free;
- a :class:`ScoreMaterializer` keeps **version-gated score arrays**
  beside the relation's :class:`~repro.tagging.columnar.ColumnarTagStore`:
  one aligned ``parameter → [score | None]`` array per partition shard
  (or one flat block when unpartitioned), recomputed **only when that
  shard's mutation counter moved** — the incremental-maintenance
  contract the BENCH_SCORING floor enforces;
- a read snapshot's materializer **carries its predecessor's blocks**:
  each block is derived from the previous snapshot's block by row
  identity (``TaggedRow`` objects are immutable and shared between
  snapshots), so after a write only the inserted rows are scored.

The QSQL surface (``WHERE QUALITY(credibility) > 0.8``) routes here:
the optimizer's ``push_score_predicates`` rewrite compiles such
conjuncts into a ``ScoreFilter`` plan node whose physical operator
calls :meth:`ScoreMaterializer.filter_indices`, and ``ORDER BY
QUALITY(credibility)`` keys read :meth:`ScoreMaterializer.score_index`.

Observability (under :func:`repro.obs.metrics.enabled`): the
``scores.recomputed`` / ``scores.reused`` counters count row-scores per
refresh (a block carried from a predecessor counts its carried rows as
reused and its newly scored rows as recomputed), and the
``scores.staleness`` gauge reports the fraction of score blocks found
stale on the most recent refresh.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Iterable, Mapping, Optional, Sequence

from repro.errors import AssessmentError
from repro.obs import metrics as _obs_metrics
from repro.quality.scoring import ParameterScorer
from repro.relational import arrays as _codec
from repro.tagging.query import OPERATORS
from repro.tagging.relation import TaggedRelation

__all__ = [
    "ScoreMaterializer",
    "ScoringProfile",
    "bind_profile",
    "clear_profiles",
    "materializer_for",
    "parameter_defined",
    "profile_for",
    "register_profile",
    "registered_profiles",
    "registry_version",
]

#: Bucket key of the flat (unpartitioned / canonical-order) score block.
_FLAT = -1


class ScoringProfile:
    """One application view's parameter scorers and thresholds.

    Parameters
    ----------
    name:
        The view's name (e.g. ``"fund_raising"``).
    scorers:
        The :class:`ParameterScorer` objects defining this view's
        parameters; parameter names must be unique.
    context:
        The scoring context passed to every scorer (e.g. ``today`` for
        timeliness decay).
    thresholds:
        Optional per-parameter acceptability thresholds in [0, 1] —
        the context-dependent cut the application considers "good
        enough" (documentation + tooling; queries state their own).
    doc:
        Human-readable description of the view.
    """

    def __init__(
        self,
        name: str,
        scorers: Sequence[ParameterScorer],
        *,
        context: Optional[Mapping[str, Any]] = None,
        thresholds: Optional[Mapping[str, float]] = None,
        doc: str = "",
    ) -> None:
        if not name:
            raise AssessmentError("scoring profile must be named")
        if not scorers:
            raise AssessmentError(
                f"scoring profile {name!r} requires at least one scorer"
            )
        parameters = [scorer.parameter for scorer in scorers]
        if len(set(parameters)) != len(parameters):
            raise AssessmentError(
                f"scoring profile {name!r} has duplicate parameters: "
                f"{parameters}"
            )
        self.name = name
        self.scorers: dict[str, ParameterScorer] = {
            scorer.parameter: scorer for scorer in scorers
        }
        self.context = dict(context or {})
        self.thresholds = dict(thresholds or {})
        unknown = set(self.thresholds) - set(parameters)
        if unknown:
            raise AssessmentError(
                f"scoring profile {name!r} has thresholds for unknown "
                f"parameters: {sorted(unknown)}"
            )
        for parameter, threshold in self.thresholds.items():
            if not 0.0 <= float(threshold) <= 1.0:
                raise AssessmentError(
                    f"threshold for {parameter!r} must be in [0, 1], "
                    f"got {threshold!r}"
                )
        self.doc = doc
        #: Assigned by :func:`register_profile`; plan caches pin it.
        self.version = 0

    @property
    def parameters(self) -> tuple[str, ...]:
        """The parameter names this profile defines, in scorer order."""
        return tuple(self.scorers)

    def defines(self, parameter: str) -> bool:
        return parameter in self.scorers

    def scorer(self, parameter: str) -> ParameterScorer:
        try:
            return self.scorers[parameter]
        except KeyError:
            raise AssessmentError(
                f"scoring profile {self.name!r} defines no parameter "
                f"{parameter!r} (defined: {list(self.scorers)})"
            ) from None

    def threshold(self, parameter: str) -> Optional[float]:
        """The view's acceptability cut for ``parameter`` (or None)."""
        return self.thresholds.get(parameter)

    def __repr__(self) -> str:
        return (
            f"ScoringProfile({self.name!r}, "
            f"parameters={list(self.scorers)})"
        )


# -- the profile registry -----------------------------------------------------

_registry_lock = threading.RLock()
_profiles: dict[str, ScoringProfile] = {}
_bindings: dict[str, str] = {}  # relation/schema name → profile name
_registry_version = 0


def registry_version() -> int:
    """Monotonic registry mutation counter (plan-cache pin)."""
    return _registry_version


def register_profile(
    profile: ScoringProfile,
    relations: Iterable[str] = (),
) -> ScoringProfile:
    """Register (or replace) a profile, optionally binding relations.

    Every registration bumps :func:`registry_version`, so cached plans
    keyed on the old version replan and stale materializations rebuild.
    """
    global _registry_version
    with _registry_lock:
        _registry_version += 1
        profile.version = _registry_version
        _profiles[profile.name] = profile
        for relation in relations:
            _bindings[relation] = profile.name
    return profile


def bind_profile(relation_name: str, profile_name: str) -> None:
    """Bind one relation (by schema name) to a registered profile."""
    global _registry_version
    with _registry_lock:
        if profile_name not in _profiles:
            raise AssessmentError(
                f"unknown scoring profile {profile_name!r} "
                f"(registered: {sorted(_profiles)})"
            )
        _bindings[relation_name] = profile_name
        _registry_version += 1


def profile_for(source: Any) -> Optional[ScoringProfile]:
    """The profile bound to a relation (object or schema name), or None.

    Resolution is by *schema name*, so a frozen ``read_snapshot()``
    relation resolves exactly like the live relation it was cut from.
    """
    if isinstance(source, str):
        name = source
    else:
        schema = getattr(source, "schema", None)
        name = getattr(schema, "name", None)
    if name is None:
        return None
    with _registry_lock:
        profile_name = _bindings.get(name)
        if profile_name is None:
            return None
        return _profiles.get(profile_name)


def registered_profiles() -> dict[str, ScoringProfile]:
    """A copy of the registered profiles, by name."""
    with _registry_lock:
        return dict(_profiles)


def parameter_defined(parameter: str) -> bool:
    """True when *any* registered profile defines ``parameter``."""
    with _registry_lock:
        return any(
            profile.defines(parameter) for profile in _profiles.values()
        )


def clear_profiles() -> None:
    """Drop every profile and binding (test isolation support)."""
    global _registry_version
    with _registry_lock:
        _profiles.clear()
        _bindings.clear()
        _registry_version += 1


# -- per-row scoring ----------------------------------------------------------


def row_parameter_score(
    profile: ScoringProfile,
    parameter: str,
    row: Any,
    positions: Sequence[int],
) -> Optional[float]:
    """One row's parameter score: mean over its scorable tagged cells.

    ``positions`` are the cell positions of the relation's tagged
    columns; cells the scorer cannot score (missing tags) drop out, and
    a row with no scorable cell scores ``None`` (SQL NULL semantics).
    """
    scorer = profile.scorer(parameter)
    context = profile.context
    cells = row.cells
    total = 0.0
    scorable = 0
    for position in positions:
        score = scorer.score(cells[position], context)
        if score is not None:
            total += score
            scorable += 1
    if not scorable:
        return None
    return total / scorable


def tagged_positions(relation: TaggedRelation) -> tuple[int, ...]:
    """Cell positions of the relation's tagged columns (schema order)."""
    index_of = relation.schema.index_of
    return tuple(
        index_of(column) for column in relation.tag_schema.tagged_columns
    )


def _record_refresh(recomputed: int, reused: int, staleness: float) -> None:
    registry = _obs_metrics.global_registry()
    registry.counter(
        "scores.recomputed", "row-scores recomputed by materializer refresh"
    ).inc(recomputed)
    registry.counter(
        "scores.reused", "row-scores served from fresh score blocks"
    ).inc(reused)
    registry.gauge(
        "scores.staleness",
        "fraction of score blocks found stale on the last refresh",
    ).set(staleness)


class _ScoreBlock:
    """One segment's score arrays, pinned to the segment's version.

    ``rows`` are the rows the arrays align with: a frozen segment's own
    row list, or a copy of a live one.  Holding them keeps their ids
    unique, which :meth:`ScoreMaterializer.score_index` and snapshot
    carry-over rely on.
    """

    __slots__ = ("token", "rows", "scores", "index")

    def __init__(
        self,
        token: int,
        rows: list,
        scores: dict[str, list[Optional[float]]],
    ) -> None:
        self.token = token
        self.rows = rows
        self.scores = scores
        #: parameter → {id(row): score}, built on first ORDER BY use.
        self.index: dict[str, dict[int, Optional[float]]] = {}


class ScoreMaterializer:
    """Version-gated materialized score columns for one tagged relation.

    Blocks mirror the relation's storage layout: one per partition
    shard (keyed by bucket) plus an on-demand flat block (canonical row
    order) for unpruned access.  :meth:`refresh` recomputes only the
    blocks whose segment version moved since the last build; a profile
    re-registration or a ``repartition()`` (layout version bump) drops
    every block.

    A read snapshot's materializer starts from its predecessor's blocks
    as *seeds* (:meth:`adopt`): a block first asked for is derived from
    its seed by row identity, scoring only the rows the seed lacks.
    """

    def __init__(self, relation: TaggedRelation) -> None:
        # A weak backref: the relation holds its materializer, and a
        # strong ref back would make every snapshot a reference cycle.
        self._relation_ref = weakref.ref(relation)
        self._lock = threading.RLock()
        self._profile: Optional[ScoringProfile] = None
        self._profile_version = -1
        self._layout_version = -1
        self._blocks: dict[int, _ScoreBlock] = {}
        self._seeds: dict[int, _ScoreBlock] = {}

    # -- plumbing -------------------------------------------------------------

    def _relation(self) -> TaggedRelation:
        relation = self._relation_ref()
        if relation is None:  # pragma: no cover - defensive
            raise AssessmentError("the materialized relation was dropped")
        if relation._predecessor is not None:
            # Outside this materializer's lock: inheriting takes the
            # relation's lock and then ours (via adopt).
            relation._inherit()
        return relation

    def adopt(self, previous: "ScoreMaterializer") -> None:
        """Seed this (unused) materializer with a predecessor's blocks.

        Called by :meth:`TaggedRelation._inherit
        <repro.tagging.relation.TaggedRelation._inherit>` when a read
        snapshot first needs derived state.  Seeds only count under the
        profile registration and partition layout they were built for:
        :meth:`_resolve_profile` drops them on any change.
        """
        with previous._lock:
            profile = previous._profile
            profile_version = previous._profile_version
            layout_version = previous._layout_version
            seeds = dict(previous._blocks)
        with self._lock:
            if profile is None or self._profile is not None:
                return
            self._profile = profile
            self._profile_version = profile_version
            self._layout_version = layout_version
            self._seeds = seeds

    def _resolve_profile(self, relation: TaggedRelation) -> ScoringProfile:
        """Resolve the bound profile; any change drops every block."""
        profile = profile_for(relation)
        if profile is None:
            raise AssessmentError(
                f"no scoring profile is bound to relation "
                f"{relation.schema.name!r}; register one with "
                f"repro.quality.materialize.register_profile"
            )
        if (
            profile is not self._profile
            or profile.version != self._profile_version
            or relation.partition_layout_version != self._layout_version
        ):
            self._blocks = {}
            self._seeds = {}
            self._profile = profile
            self._profile_version = profile.version
            self._layout_version = relation.partition_layout_version
        return profile

    def _compute_block(
        self,
        segment: TaggedRelation,
        profile: ScoringProfile,
        seed: Optional[_ScoreBlock] = None,
    ) -> tuple[_ScoreBlock, int]:
        """A fresh block for ``segment`` and the count of rows scored.

        With a ``seed`` (the predecessor's block for the same bucket),
        rows found in the seed by identity keep their scores and only
        the others are scored.
        """
        token = segment.version
        rows = segment.row_batch()
        if not segment.frozen:
            rows = list(rows)
        positions = tagged_positions(segment)
        if seed is None:
            plan = [(-1, len(rows))]
        else:
            # Seeds only exist for frozen snapshots, whose rows are the
            # segment's own list: the identity map the segment's tag
            # store carried its arrays by serves here too.
            plan = segment.carry_plan(seed.rows)
        fresh = _codec.fresh_positions(plan)
        scores: dict[str, list[Optional[float]]] = {}
        for parameter in profile.parameters:
            old = () if seed is None else seed.scores[parameter]
            array = _codec.carry(old, plan)
            for index in fresh:
                array[index] = row_parameter_score(
                    profile, parameter, rows[index], positions
                )
            scores[parameter] = array
        return _ScoreBlock(token, rows, scores), len(fresh)

    def _segment(self, relation: TaggedRelation, bucket: int) -> TaggedRelation:
        if bucket == _FLAT:
            return relation
        return relation.partition(bucket)

    def _ensure_blocks(
        self, relation: TaggedRelation, buckets: Sequence[int]
    ) -> dict[int, _ScoreBlock]:
        """Bring the named blocks up to date; returns bucket → block."""
        profile = self._resolve_profile(relation)
        recomputed = 0
        reused = 0
        stale = 0
        out: dict[int, _ScoreBlock] = {}
        for bucket in buckets:
            segment = self._segment(relation, bucket)
            block = self._blocks.get(bucket)
            if block is not None and block.token == segment.version:
                reused += len(block.rows)
                out[bucket] = block
                continue
            seed = self._seeds.pop(bucket, None)
            if seed is not None and seed.rows is segment.row_batch():
                # The predecessor shares this (frozen) segment.
                block, scored = seed, 0
            else:
                stale += 1
                block, scored = self._compute_block(segment, profile, seed)
            recomputed += scored
            reused += len(block.rows) - scored
            self._blocks[bucket] = block
            out[bucket] = block
        if _obs_metrics.enabled():
            _record_refresh(
                recomputed, reused, stale / len(buckets) if buckets else 0.0
            )
        return out

    def _scores(
        self, block: _ScoreBlock, parameter: str
    ) -> list[Optional[float]]:
        """One parameter's array of a block; raises if it is undefined."""
        try:
            return block.scores[parameter]
        except KeyError:
            profile = self._profile
            assert profile is not None
            raise AssessmentError(
                f"scoring profile {profile.name!r} defines no "
                f"parameter {parameter!r} "
                f"(defined: {list(profile.parameters)})"
            ) from None

    # -- public API -----------------------------------------------------------

    def refresh(self) -> None:
        """Bring every storage-layout block up to date (incrementally).

        Partitioned relations refresh one block per shard — only shards
        whose mutation counter moved recompute; unpartitioned relations
        refresh the single flat block.
        """
        relation = self._relation()
        with self._lock:
            if relation.partition_spec is None:
                buckets: Sequence[int] = (_FLAT,)
            else:
                buckets = range(relation.partition_spec.count)
            self._ensure_blocks(relation, list(buckets))

    def row_scores(
        self, parameter: str, bucket: Optional[int] = None
    ) -> list[Optional[float]]:
        """A copy of the materialized score array for one block (flat
        by default), aligned with that block's row order."""
        return list(self.score_array(parameter, bucket)[1])

    def score_array(
        self, parameter: str, bucket: Optional[int] = None
    ) -> tuple[list, list[Optional[float]]]:
        """``(rows, scores)`` of one block (flat by default), no copy.

        ``scores[i]`` is the score of ``rows[i]``; a caller holding
        arrays aligned with another row list checks ``rows`` against
        it (identity) before indexing by position.  Treat both lists
        as read-only.
        """
        relation = self._relation()
        key = _FLAT if bucket is None else bucket
        with self._lock:
            block = self._ensure_blocks(relation, [key])[key]
            return block.rows, self._scores(block, parameter)

    def block_rows(self, bucket: Optional[int] = None) -> Optional[list]:
        """The rows the current block (flat by default) aligns with, or
        None when none is built; never refreshes (a sanitizer probe)."""
        with self._lock:
            block = self._blocks.get(_FLAT if bucket is None else bucket)
            return None if block is None else block.rows

    def score_index(self, parameter: str) -> dict[int, Optional[float]]:
        """``{id(row): score}`` over the relation's rows (flat block).

        Built once per flat block and kept with it; the block holds its
        rows, so an id found here is one of those rows.  The ORDER BY
        path reads sort keys from it instead of re-running scorers.
        """
        relation = self._relation()
        with self._lock:
            block = self._ensure_blocks(relation, [_FLAT])[_FLAT]
            index = block.index.get(parameter)
            if index is None:
                scores = self._scores(block, parameter)
                index = dict(zip(map(id, block.rows), scores))
                block.index[parameter] = index
            return index

    def filter_indices(
        self,
        constraints: Sequence[tuple[str, str, Any]],
        bucket: Optional[int] = None,
        candidates: Optional[Sequence[int]] = None,
    ) -> list[int]:
        """Row indices of one block satisfying a score conjunction.

        Each constraint is ``(parameter, op, operand)`` with ``op``
        from :data:`repro.tagging.query.OPERATORS`.  ``None`` scores
        (no scorable cell) never match, mirroring SQL NULL semantics.
        ``candidates`` restricts the scan to those (ascending) indices —
        the path a stacked tag-constraint scan feeds.
        """
        relation = self._relation()
        key = _FLAT if bucket is None else bucket
        with self._lock:
            block = self._ensure_blocks(relation, [key])[key]
            hits: Optional[Sequence[int]] = candidates
            for parameter, op, operand in constraints:
                if op not in OPERATORS:
                    raise AssessmentError(f"unknown operator {op!r}")
                array = self._scores(block, parameter)
                hits = _codec.matching(array, OPERATORS[op], operand, hits)
                if not hits:
                    break
            if hits is None:
                return []
            return list(hits) if hits is candidates else hits


def materializer_for(relation: TaggedRelation) -> ScoreMaterializer:
    """The score materializer of one tagged relation object.

    Held by the relation itself, so it lives and dies with it.  A
    frozen read snapshot gets its own materializer, whose blocks (like
    the snapshot) never go stale, and which derives them from the
    previous snapshot's blocks: after a write, the next snapshot's
    first score read scores only the inserted rows.
    """
    materializer = relation._score_state
    if materializer is not None:
        return materializer
    with relation._lock:
        materializer = relation._score_state
        if materializer is None:
            materializer = ScoreMaterializer(relation)
            relation._score_state = materializer
        return materializer
