"""The classify phase's walk over the check set.

The event tick is a pipeline of phases (commit scan → classify →
deadlock → execute; see :meth:`repro.sim.scheduler._Run._event_tick`).
The classify phase drains the sorted check set
(:meth:`AdmissionCache.take_check_slices`) and hands it to
:meth:`SerialExecutor.run_classify`, which re-derives each session's
cached classification in that order — one :meth:`Classifier.classify`
per name.

The walk is serial on purpose.  Thread and process executors over a
sharded lock table were tried and measured on the workload that then
had the fattest classify batches (``deadlock_storm`` at scale 1, ~26
classifications per classifying tick, 2 CPUs, on the tree of commit
7796ff7 — before 2PL verdicts were applied in place; a 2PL run no
longer enters the classify phase): the best process configuration ran
at 0.79× serial, the thread pool at 0.50×.  Derivations are a few
microseconds of pure Python each, which neither a GIL-bound pool nor a
pipe round trip can amortize; docs/ARCHITECTURE.md records the table.
"""

from __future__ import annotations

__all__ = ["SerialExecutor"]


class SerialExecutor:
    """Classify the drained check set in sorted-name order — the order
    the naive engine's ``sorted(live)`` scan visits sessions in."""

    def run_classify(self, classifier, live, names, aborts) -> None:
        for name in names:
            classifier.classify(live[name], aborts)
