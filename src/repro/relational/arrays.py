"""Array-codec helpers shared by the columnar side-tables.

Two stores keep aligned array-per-key layouts next to a row store: the
columnar *tag* store (:class:`repro.tagging.columnar.ColumnarTagStore`,
one array per ``(column, indicator)`` pair) and the columnar *value*
store (:class:`repro.relational.columnar.ColumnarRelation`, one array
per column).  Both need the same three maintenance moves — grow every
array by one slot on append, compact every array to a keep-list on
delete, and detect length divergence from the backing row store — so
the moves live here, once, and the two side-tables cannot drift.

A fourth move serves read snapshots: :func:`row_positions` maps a new
row list onto its predecessor's by row identity and :func:`carry` moves
each array across, so a snapshot derives its side-tables from the
previous snapshot's instead of rebuilding them.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Iterable, Mapping, MutableMapping, Optional, Sequence

__all__ = [
    "append_blank",
    "carry",
    "compact_in_place",
    "gather",
    "keep_indices",
    "misaligned",
    "row_positions",
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


def row_positions(old_rows: Sequence[Any], new_rows: Sequence[Any]) -> list[int]:
    """Each new row's position in ``old_rows`` by identity, -1 if absent.

    Identity is only meaningful while both lists are alive: a dead
    row's ``id()`` can be reused by a new object, so callers must hold
    ``old_rows`` (and the rows in it) for the duration of the call.
    """
    where = dict(zip(map(id, old_rows), range(len(old_rows))))
    return list(map(where.get, map(id, new_rows), repeat(-1)))


def carry(array: Sequence[Any], positions: Sequence[int]) -> list[Any]:
    """Move one array across :func:`row_positions`; new slots are None."""
    padded = list(array)
    padded.append(None)  # position -1 reads this slot
    return list(map(padded.__getitem__, positions))


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
