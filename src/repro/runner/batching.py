"""Deterministic batch planning for width-grouped campaign tasks.

Fault campaigns run their specimens in lockstep groups of up to
:data:`~repro.sim.batch.BATCH_WIDTH` (one leader machine per group, see
:mod:`repro.sim.batch`).  To keep every campaign's
byte-identical-at-any-``--jobs`` invariant, the partition of a specimen
list into groups must depend **only** on the submission order and the
width — never on worker count, scheduling or timing
(:func:`group_width` derives a width from the item count alone).  This
module is the single home of that rule: ``run_tasks(..., width=W)``
(:func:`~repro.runner.pool.run_tasks`) partitions here and fans the
groups out in submission order, so flattening the per-group result
lists reproduces the per-specimen result order exactly.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: a grouped campaign splits into at least this many groups (when it has
#: that many items), so small campaigns still spread over the workers;
#: a constant, never the worker count, so the partition stays the same
#: at every ``--jobs``
MIN_GROUPS = 4


def group_width(count: int, cap: int) -> int:
    """The width that splits ``count`` items into at least
    :data:`MIN_GROUPS` groups, and never exceeds ``cap``."""
    return min(cap, max(1, -(-count // MIN_GROUPS)))


def make_batches(items: Sequence[T], width: int) -> List[List[T]]:
    """Partition ``items`` into submission-order groups of ``width``.

    The final group holds the remainder; a width of 1 degenerates to one
    group per item (the scalar-equivalence test case W=1 == scalar).
    """
    if width < 1:
        raise ValueError(f"batch width must be >= 1, got {width}")
    items = list(items)
    return [items[start:start + width]
            for start in range(0, len(items), width)]


def in_position_order(pairs: Iterable[Tuple[int, T]],
                      count: int) -> List[T]:
    """Place ``(position, result)`` pairs, yielded in any order, into one
    list of ``count`` results in position order."""
    results: List[Optional[T]] = [None] * count
    for position, result in pairs:
        results[position] = result
    return results
