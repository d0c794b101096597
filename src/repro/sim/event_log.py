"""The simulator's append-only event log with O(own events) erasure.

Aborted transactions leave no trace in the final schedule (no recovery
theory in the paper — an aborted attempt "never happened"), so the log
keeps a per-transaction index of recorded positions and an abort
*tombstones* exactly those instead of rebuilding the whole list;
:func:`assemble` skips tombstones and re-indexes each transaction's
surviving events.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.schedules import Event, Schedule
from ..core.steps import Step
from ..core.transactions import Transaction


class EventLog:
    """Recorded events plus the per-transaction position index."""

    def __init__(self) -> None:
        self.events: List[Optional[Event]] = []
        #: Per-transaction index into ``events`` (positions of the txn's
        #: recorded events), so an abort erases O(own events), not O(log).
        self.by_txn: Dict[str, List[int]] = {}

    def record(self, name: str, event: Event) -> None:
        self.by_txn.setdefault(name, []).append(len(self.events))
        self.events.append(event)

    def erase(self, name: str) -> None:
        """Drop an aborted transaction's events in O(own events):
        tombstone the indexed positions (:func:`assemble` skips them)
        instead of rebuilding the whole log."""
        for i in self.by_txn.pop(name, ()):
            self.events[i] = None

    def forget(self, name: str) -> None:
        """Make a committed transaction's events permanent (drops the
        erasure index)."""
        self.by_txn.pop(name, None)


def assemble(events: Sequence[Optional[Event]]) -> Schedule:
    """Build a Schedule from raw events, reconstructing each transaction
    from its own event subsequence (erased aborts tombstone their positions
    to ``None`` and leave per-transaction gaps in the recorded indices, so
    tombstones are skipped and events re-indexed).

    A recorded event whose index is already right is reused as is (a
    restarted attempt records from 0 again, so in simulator logs that is
    every event): allocating one per event made the cyclic collector
    re-walk the growing list over and over (more than half of this
    function's time at 288k events)."""
    steps_by_txn: Dict[str, List[Step]] = {}
    reindexed: List[Event] = []
    for e in events:
        if e is None:
            continue  # erased by an abort
        seq = steps_by_txn.setdefault(e.txn, [])
        reindexed.append(e if e.index == len(seq) else Event(e.txn, len(seq), e.step))
        seq.append(e.step)
    txns = [Transaction(name, tuple(steps)) for name, steps in steps_by_txn.items()]
    return Schedule(txns, reindexed)


def truncated(names: Sequence[str], limit: int = 12) -> str:
    """Render a session-name list for an error message, truncating huge
    populations (a stalled 10,000-transaction run used to dump every
    name into the SimulationError text)."""
    names = list(names)
    if len(names) <= limit:
        return repr(names)
    shown = ", ".join(repr(n) for n in names[:limit])
    return f"[{shown}, ... +{len(names) - limit} more]"
