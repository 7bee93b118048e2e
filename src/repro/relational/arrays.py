"""Array-codec helpers shared by the columnar side-tables.

Two stores keep aligned array-per-key layouts next to a row store: the
columnar *tag* store (:class:`repro.tagging.columnar.ColumnarTagStore`,
one array per ``(column, indicator)`` pair) and the columnar *value*
store (:class:`repro.relational.columnar.ColumnarRelation`, one array
per column).  Both need the same three maintenance moves — grow every
array by one slot on append, compact every array to a keep-list on
delete, and detect length divergence from the backing row store — so
the moves live here, once, and the two side-tables cannot drift.

A fourth move serves read snapshots: :func:`carry_plan` maps a new
row list onto its predecessor's by row identity and :func:`carry` moves
each array across, so a snapshot derives its side-tables from the
previous snapshot's instead of rebuilding them.

:func:`matching` is the scan both columnar query paths share: the
positions whose value passes a comparison, with SQL NULL semantics.
"""

from __future__ import annotations

from itertools import compress, count, repeat
from operator import eq, is_, is_not
from typing import (
    Any,
    Callable,
    Iterable,
    Mapping,
    MutableMapping,
    Optional,
    Sequence,
)

__all__ = [
    "append_blank",
    "carry",
    "carry_plan",
    "compact_in_place",
    "fresh_positions",
    "gather",
    "keep_indices",
    "matching",
    "misaligned",
]


def append_blank(arrays: Iterable[list], value: Any = None) -> None:
    """Grow every array by one slot (a fresh, untagged/unset position)."""
    for array in arrays:
        array.append(value)


def keep_indices(rows: Iterable[Any], predicate) -> list[int]:
    """Positions of ``rows`` that *survive* a delete-``predicate``."""
    return [
        index for index, row in enumerate(rows) if not predicate(row)
    ]


def gather(array: Sequence[Any], keep: Sequence[int]) -> list[Any]:
    """The kept positions of one array, in ``keep`` order."""
    return [array[index] for index in keep]


#: A carry plan: segments covering a new row list in order, each
#: ``(old_start, length)`` — a run of rows shared with the old list in
#: the same order, or, with ``old_start == -1``, a block of rows it lacks.
CarryPlan = list[tuple[int, int]]

#: First chunk size of the galloping identity scans.
_CHUNK = 64


def carry_plan(old_rows: Sequence[Any], new_rows: Sequence[Any]) -> CarryPlan:
    """Map ``new_rows`` onto ``old_rows`` by identity, as runs.

    Snapshots of one relation keep their rows' relative order (deletes
    drop rows, inserts append), so the map is a few long runs: both
    lists are walked in step, a shared run is measured a chunk at a
    time with C-level identity checks, and a row out of step is looked
    for ahead in ``old_rows``; a row not found there (or met after the
    walk has passed the end of ``old_rows``) is in a fresh block.  When
    the searches would cost more than the two lists' length (fresh rows
    interleaved with old ones), the plan comes from an ``id()`` index
    instead.  Either way a run only ever pairs a new row with the very
    same object, and carrying recomputes a fresh row from the row
    itself, which yields the same entries as carrying it would.

    Identity is only meaningful while both lists are alive: a dead
    row's ``id()`` can be reused by a new object, so callers must hold
    ``old_rows`` (and the rows in it) for the duration of the call.
    """
    segments: CarryPlan = []
    new_count, old_count = len(new_rows), len(old_rows)
    budget = new_count + old_count
    i = j = 0
    while i < new_count:
        if j < old_count and new_rows[i] is old_rows[j]:
            length = _shared_run(new_rows, i, old_rows, j)
            segments.append((j, length))
            i += length
            j += length
            continue
        if j < old_count:
            found, scanned = _find_identity(old_rows, new_rows[i], j, budget)
            budget -= scanned
            if budget < 0:
                return _indexed_plan(old_rows, new_rows)
            if found >= 0:
                j = found  # old_rows[j:found] were deleted
                continue
        if segments and segments[-1][0] < 0:
            segments[-1] = (-1, segments[-1][1] + 1)
        else:
            segments.append((-1, 1))
        i += 1
    return segments


def _shared_run(new: Sequence[Any], i: int, old: Sequence[Any], j: int) -> int:
    """How many rows from ``new[i]`` and ``old[j]`` on are the same objects."""
    limit = min(len(new) - i, len(old) - j)
    length = 0
    chunk = _CHUNK
    while length < limit:
        step = min(chunk, limit - length)
        a, b = i + length, j + length
        mismatch = next(
            compress(count(), map(is_not, new[a:a + step], old[b:b + step])),
            None,
        )
        if mismatch is not None:
            return length + mismatch
        length += step
        chunk *= 2
    return length


def _find_identity(
    rows: Sequence[Any], target: Any, start: int, budget: int
) -> tuple[int, int]:
    """``(position of target in rows[start:], rows scanned)``; the
    position is -1 when absent or when the scan outgrew ``budget``."""
    scanned = 0
    chunk = _CHUNK
    while start + scanned < len(rows) and scanned <= budget:
        a = start + scanned
        b = min(a + chunk, len(rows))
        hit = next(compress(count(a), map(is_, rows[a:b], repeat(target))), -1)
        if hit >= 0:
            return hit, hit - start + 1
        scanned += b - a
        chunk *= 2
    return -1, scanned


def _indexed_plan(old_rows: Sequence[Any], new_rows: Sequence[Any]) -> CarryPlan:
    """The exact plan from an ``id()`` index of ``old_rows``."""
    where = dict(zip(map(id, old_rows), range(len(old_rows))))
    segments: CarryPlan = []
    for at in map(where.get, map(id, new_rows), repeat(-1)):
        if segments:
            start, length = segments[-1]
            if (at < 0 and start < 0) or (start >= 0 and at == start + length):
                segments[-1] = (start, length + 1)
                continue
        segments.append((at, 1))
    return segments


def fresh_positions(plan: CarryPlan) -> list[int]:
    """The new positions a plan's fresh blocks cover, ascending."""
    fresh: list[int] = []
    position = 0
    for start, length in plan:
        if start < 0:
            fresh.extend(range(position, position + length))
        position += length
    return fresh


def carry(array: Sequence[Any], plan: CarryPlan) -> list[Any]:
    """Move one array across a :func:`carry_plan`; fresh slots are None.

    Each shared run is one slice copy, each fresh block one fill.
    """
    out: list[Any] = []
    for start, length in plan:
        if start < 0:
            out += repeat(None, length)
        else:
            out += array[start:start + length]
    return out


def compact_in_place(
    arrays: MutableMapping[Any, list], keep: Sequence[int]
) -> None:
    """Rebuild every array of a keyed mapping down to the kept positions.

    The delete-compaction move: after the backing row store drops the
    same positions, every array stays aligned with it.
    """
    for key, array in arrays.items():
        arrays[key] = [array[index] for index in keep]


def misaligned(
    expected: int, arrays: Mapping[Any, Sequence[Any]]
) -> Optional[tuple[Any, int]]:
    """The first ``(key, length)`` whose array diverges from ``expected``.

    ``None`` means every array matches the backing store's row count.
    Divergence is how a store detects that its backing relation was
    mutated behind its back.
    """
    for key, array in arrays.items():
        if len(array) != expected:
            return key, len(array)
    return None


def matching(
    array: Sequence[Any],
    compare: Callable[[Any, Any], Any],
    operand: Any,
    pool: Optional[Sequence[int]] = None,
) -> list[int]:
    """Positions whose value ``v`` passes ``compare(v, operand)``.

    ``pool`` restricts the scan to those (ascending) positions; None
    scans the whole array.  A None value never matches (SQL NULL), and
    neither does a value the comparison rejects with ``TypeError``.
    One comprehension does the common case; if any comparison raises,
    the exact per-element loop reruns, so that the one value reads as
    no match instead of aborting the scan.  Equality with a non-None
    operand over the whole array hops hit to hit with ``list.index``,
    a C-level search with no Python step per element.
    """
    hits: list[int] = []
    try:
        if pool is None:
            if compare is eq and operand is not None:
                index = -1
                try:
                    while True:
                        index = array.index(operand, index + 1)
                        hits.append(index)
                except ValueError:
                    return hits
            return [
                index
                for index, value in enumerate(array)
                if value is not None and compare(value, operand)
            ]
        return [
            index
            for index in pool
            if array[index] is not None and compare(array[index], operand)
        ]
    except TypeError:
        hits = []
    for index in range(len(array)) if pool is None else pool:
        value = array[index]
        if value is None:
            continue
        try:
            if compare(value, operand):
                hits.append(index)
        except TypeError:
            continue
    return hits
