"""The classify phase's walk over the check set.

The event tick is a pipeline of phases (commit scan → classify →
deadlock → execute; see :meth:`repro.sim.scheduler._Run._event_tick`).
The classify phase drains the sorted check set
(:meth:`AdmissionCache.take_check_slices`) and hands it to
:meth:`SerialExecutor.run_classify`, which re-derives each session's
cached classification in that order — one :meth:`Classifier.classify`
per name.

The walk is serial on purpose.  Thread and process executors over a
sharded lock table were tried on ``deadlock_storm`` at scale 1 while
2PL sessions were still classified in this phase (~26 classifications
per classifying tick, 2 CPUs, on the tree of commit 7796ff7): the best
process configuration ran at 0.79× serial, the thread pool at 0.50×.
Batches are far smaller now.  A 2PL run never enters the classify
phase, and only sessions whose verdict needs the policy and may have
flipped are walked (a DDAG session whose verdict declares no channel
is settled where it begins or its step runs): a traced ``ddag_churn``
run of the e2e benchmark, at its default scale, makes 2,600 derivations
here over 1,080 classifying ticks.  Derivations are
a few microseconds of pure Python each, which neither a GIL-bound pool
nor a pipe round trip can amortize; docs/ARCHITECTURE.md records the
table.
"""

from __future__ import annotations

__all__ = ["SerialExecutor"]


class SerialExecutor:
    """Classify the drained check set in sorted-name order — the order
    the naive engine's ``sorted(live)`` scan visits sessions in."""

    def run_classify(self, classifier, live, names, aborts) -> None:
        for name in names:
            classifier.classify(live[name], aborts)
