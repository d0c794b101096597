"""The transport-agnostic lock-manager kernel: a tick-free request API.

The paper's policies decide *admission* of lock requests against a
dynamic database — a decision procedure that PR 9 unfuses from the tick
simulator.  :class:`LockKernel` exposes the decision procedure as five
requests::

    begin(txn)                   -> GRANTED | ERROR
    acquire(txn, entity, mode)   -> GRANTED | BLOCKED | VICTIM | ERROR
    release(txn, entity)         -> GRANTED | ERROR
    commit(txn)                  -> GRANTED | ERROR
    abort(txn)                   -> GRANTED | ERROR

built from the same state layers the simulator runs on — the
:class:`~repro.sim.lock_table.LockTable` for holder maps and wait
queues, the incrementally maintained
:class:`~repro.sim.waits_for.WaitsForGraph` for detection,
:func:`~repro.sim.deadlock.pick_victim` for resolution — with **no
tick, no RNG, and no transport**: time is whenever a caller invokes a
request, and transports (the asyncio JSON-line service, an in-process
test harness, a future multi-node RPC layer) live entirely above this
API.

**Blocking without ticks.**  An acquire that conflicts returns
``BLOCKED`` immediately; the request parks in the entity's wait queue
(the only record of it: the transaction's kernel record keeps just the
callback), and the caller's registered *wake-up callback* fires exactly
once with the final outcome — ``GRANTED`` when a release makes the
request grantable (grants happen in arrival order, re-checked against
the then-current holders), ``VICTIM`` when deadlock resolution
sacrifices the transaction, or ``ERROR`` when the kernel drains or the
client aborts its own blocked transaction.

**Deadlock resolution.**  The kernel keeps one
:class:`~repro.sim.waits_for.WaitsForGraph` and touches it only where an
edge can change, each time for the waiters of *one* entity — never for
the parked population:

1. *park* — an acquire that blocks gets its edge set
   (``set_edges(txn, blockers)``);
2. *grant* — a grant landing on an entity (direct or woken) can only
   extend the blocker sets of the waiters queued there
   (``add_edge_if_tracked(waiter, holder)``; nothing is done when the
   entity has no queue), and a woken grantee stops waiting
   (``drop_edges``);
3. *release* — an explicit release re-derives, from the table, the
   waiters still queued on that one entity;
4. *finish* — commit, abort, victim and drain ``forget`` the departing
   transaction: it holds nothing any more, so every edge at it goes.

Between requests the graph is acyclic, and a fresh block is the only
transition that can close a cycle: a grantee — direct or woken — is not
waiting, so the edges a grant adds end at a node with no way out, and
release and finish only remove edges.  Every new cycle therefore passes
through the new waiter, and detection is local to it: one forward
reachability walk from the new waiter's blockers
(``closes_cycle``), and only when that walk comes back does the kernel
run the detector and resolve victim-by-victim (the simulator's
deterministic cost triple: structural effects, executed work, name)
until the graph is acyclic again.  ``WaitsForGraph.find_cycle`` runs
the reference DFS on the maintained graph, so it finds what
:func:`repro.sim.deadlock.find_cycle` finds on the table-derived rebuild
as long as the two graphs are equal; that rebuild survives only as the
test oracle (``tests/test_kernel_api.py``).

**Auditing.**  Every request — including every refusal — appends exactly
one entry to the :class:`~repro.kernel.audit.AuditLog` before returning,
and asynchronous resolutions (wake-up grants, victim aborts) append
their own entries; there is no audit-free path (the
boundary-enforcement-integrity contract).  ``ERROR`` guarantees **no
state mutation**: misuse checks only read.  Authorization is not the
kernel's: the service front-end (:mod:`repro.service`) refuses a
request before the kernel sees it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.operations import LockMode
from ..core.steps import Entity
from ..sim.deadlock import pick_victim
from ..sim.lock_table import LockTable
from ..sim.waits_for import WaitsForGraph
from .audit import AuditLog
from .outcomes import GRANTED, KernelResponse, Outcome

#: Wake-up callback: fires once with the blocked request's final outcome.
WakeCallback = Callable[[str, KernelResponse], None]


class _NullSession:
    """Victim-costing stand-in for a transaction without a policy
    session: no structural effects, ever."""

    has_structural_effects = False


class _Txn:
    """One live transaction's kernel-side record.  Exposes the
    ``session``/``step_count`` surface :func:`repro.sim.deadlock.victim_cost`
    reads, so the service shares the simulator's deterministic victim
    tie-break.  What it waits for is not here: the lock table's queue
    (``table.waiting_entity``, ``table.queue``) is the one record."""

    __slots__ = ("step_count", "on_wake")

    #: No transaction here carries a policy session.
    session = _NullSession()

    def __init__(self) -> None:
        #: Requests executed (grants + releases) — the victim-cost proxy
        #: for "work lost on abort".
        self.step_count = 0
        #: The callback of the last parked acquire; fired only while the
        #: table still queues the transaction.
        self.on_wake: Optional[WakeCallback] = None


class LockKernel:
    """The tick-free lock-manager kernel (see the module docstring)."""

    def __init__(self) -> None:
        self.table = LockTable()
        #: Waits-for edges of the parked transactions, kept equal to what
        #: the table implies at every request boundary (module docstring).
        self.graph = WaitsForGraph()
        self.audit = AuditLog()
        self._txns: Dict[str, _Txn] = {}
        self._finished: Set[str] = set()
        self._draining = False
        #: Victim aborts performed by deadlock resolution (stats surface).
        self.victims: List[str] = []

    # ------------------------------------------------------------------
    # Introspection (read-only)
    # ------------------------------------------------------------------

    def live_txns(self) -> Tuple[str, ...]:
        return tuple(sorted(self._txns))

    def is_live(self, txn: str) -> bool:
        return txn in self._txns

    def blocked_txns(self) -> Tuple[str, ...]:
        return tuple(sorted(self.graph.waits_for))

    def held(self, txn: str) -> Dict[Entity, LockMode]:
        """Locks held by ``txn`` (the *holder-only* view the service's
        visibility policy serves — a client never sees another holder's
        state through this)."""
        return self.table.held_by(txn)

    def state_fingerprint(self) -> Tuple:
        """A hashable digest of all observable kernel state — holder
        maps, wait queues, live/blocked sets, waits-for edges — used by
        the misuse tests to assert that ``ERROR`` requests mutated
        nothing."""
        locked = sorted(self.table.locked_entities(), key=repr)
        holders = tuple(
            (repr(e), tuple(sorted(self.table.holders(e).items(),
                                   key=lambda kv: kv[0])))
            for e in locked
        )
        waiters = tuple(
            (repr(e), tuple(self.table.queue(e).items())) for e in locked
        )
        edges = tuple(
            (w, tuple(sorted(bs)))
            for w, bs in sorted(self.graph.waits_for.items())
        )
        return (
            holders, waiters, self.live_txns(), self.blocked_txns(), edges
        )

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _audited(
        self,
        op: str,
        response: KernelResponse,
        *,
        actor: Optional[str] = None,
        txn: Optional[str] = None,
        entity: Optional[Entity] = None,
    ) -> KernelResponse:
        """Record the decision and return it — the single exit path of
        every request, so no outcome can skip the audit trail."""
        self.audit.append(
            op,
            actor if actor is not None else (txn or "<kernel>"),
            response.outcome.wire,
            txn=txn,
            entity=entity,
            reason=response.reason,
        )
        return response

    def _misuse(
        self, op: str, txn: str, *, allow_blocked: bool = False
    ) -> Optional[KernelResponse]:
        """Shared protocol-misuse guard: unknown or finished transaction,
        or an operation issued while blocked.  Read-only."""
        if txn not in self._txns:
            if txn in self._finished:
                return KernelResponse(
                    Outcome.ERROR, f"transaction {txn!r} already finished"
                )
            return KernelResponse(
                Outcome.ERROR, f"unknown transaction {txn!r}"
            )
        if not allow_blocked and self.table.waiting_entity(txn) is not None:
            return KernelResponse(
                Outcome.ERROR,
                f"transaction {txn!r} is blocked; only abort is allowed",
            )
        return None

    def _resolve_deadlocks(self, waiter: str) -> None:
        """``waiter`` just parked.  Only a cycle through it can be new,
        so one reachability walk from its blockers decides whether the
        detector runs at all; when it does, abort victims until the
        graph is acyclic again (a victim's released locks grant waiters,
        which extends other waiters' edges, so later cycles need not
        pass through ``waiter``)."""
        if not self.graph.closes_cycle(waiter):
            return
        cycle = self.graph.find_cycle()
        while cycle is not None:
            self._abort_victim(cycle)
            cycle = self.graph.find_cycle()

    def _abort_victim(self, cycle: List[str]) -> None:
        """Sacrifice ``cycle``'s cheapest member (the simulator's
        deterministic cost triple)."""
        victim = pick_victim(cycle, self._txns)
        self.victims.append(victim)
        self._finish(
            victim,
            KernelResponse(Outcome.VICTIM, "deadlock victim"),
            audit_op="abort",
            audit_decision=Outcome.VICTIM,
        )

    def _granted_on(self, holder: str, entity: Entity) -> None:
        """``holder`` was just granted a mode on ``entity``: a grant
        unblocks nobody, it can only join the blocker sets of the waiters
        queued there (never its own — a grantee is in no queue)."""
        if not self.graph.waits_for:
            return
        queue = self.table.queue(entity)
        if not queue:
            return
        effective = self.table.mode_held(holder, entity)
        for waiter, wanted in queue.items():
            if wanted.conflicts_with(effective):
                self.graph.add_edge_if_tracked(waiter, holder)

    def _rederive_waiters(self, entity: Entity) -> None:
        """Re-derive, from the table, the edges of every waiter still
        queued on ``entity`` (an explicit release took the releaser out
        of their blocker sets without necessarily unblocking them)."""
        for waiter, wanted in self.table.queue(entity).items():
            self.graph.set_edges(
                waiter, set(self.table.blockers(waiter, entity, wanted))
            )

    def _finish(
        self,
        txn: str,
        pending_response: KernelResponse,
        *,
        audit_op: str,
        audit_decision: Outcome,
        reason: Optional[str] = None,
    ) -> None:
        """Tear a transaction down: cancel its parked request (firing the
        wake-up callback with ``pending_response``), release every lock,
        grant unblocked waiters, and audit the departure."""
        record = self._txns.pop(txn)
        self._finished.add(txn)
        if (
            record.on_wake is not None
            and self.table.waiting_entity(txn) is not None
        ):
            record.on_wake(txn, pending_response)
        _, woken = self.table.release_all_wake(txn)
        self.graph.forget(txn)
        self.audit.append(
            audit_op,
            txn,
            audit_decision.wire,
            txn=txn,
            reason=reason or pending_response.reason,
        )
        self._grant_woken(woken)

    def _grant_woken(self, woken: List[str]) -> None:
        """Grant now-grantable parked requests in wake-up (arrival)
        order, re-checking each against the holders the previous grant
        just installed; every grant fires the waiter's callback and is
        audited as its own ``grant`` event.  While draining, nothing is
        granted: a grant would immediately precede the grantee's own
        forced abort, so the parked request instead resolves with the
        terminal ``ERROR`` when its transaction drains."""
        if self._draining:
            return
        table = self.table
        for waiter in woken:
            entity = table.waiting_entity(waiter)
            if entity is None:
                continue  # no longer parked
            mode = table.queue(entity)[waiter]
            if not table.grantable(waiter, entity, mode):
                continue  # an earlier grant in this batch re-conflicted it
            table.remove_waiter(waiter)
            table.acquire(waiter, entity, mode)
            record = self._txns[waiter]
            record.step_count += 1
            self.graph.drop_edges(waiter)
            self._granted_on(waiter, entity)
            self.audit.append(
                "grant", waiter, Outcome.GRANTED.wire,
                txn=waiter, entity=entity,
            )
            if record.on_wake is not None:
                record.on_wake(waiter, GRANTED)

    # ------------------------------------------------------------------
    # The request API
    # ------------------------------------------------------------------

    def begin(self, txn: str, *, actor: Optional[str] = None) -> KernelResponse:
        """Start the transaction ``txn``."""
        if self._draining:
            return self._audited(
                "begin",
                KernelResponse(Outcome.ERROR, "kernel is draining"),
                actor=actor, txn=txn,
            )
        if txn in self._txns:
            return self._audited(
                "begin",
                KernelResponse(
                    Outcome.ERROR, f"transaction {txn!r} already exists"
                ),
                actor=actor, txn=txn,
            )
        if txn in self._finished:
            return self._audited(
                "begin",
                KernelResponse(
                    Outcome.ERROR, f"transaction {txn!r} already finished"
                ),
                actor=actor, txn=txn,
            )
        self._txns[txn] = _Txn()
        return self._audited("begin", GRANTED, actor=actor, txn=txn)

    def acquire(
        self,
        txn: str,
        entity: Entity,
        mode: LockMode = LockMode.EXCLUSIVE,
        *,
        on_wake: Optional[WakeCallback] = None,
        actor: Optional[str] = None,
    ) -> KernelResponse:
        """Request ``mode`` on ``entity``.  Same-mode re-acquisition is
        protocol misuse (``ERROR``); acquiring the *other* mode while one
        is held is the upgrade/extension path and goes through the normal
        conflict check (the mode multiset keeps both grants visible)."""
        misuse = self._misuse("acquire", txn)
        if misuse is not None:
            return self._audited(
                "acquire", misuse, actor=actor, txn=txn, entity=entity
            )
        if self._draining:
            return self._audited(
                "acquire",
                KernelResponse(Outcome.ERROR, "kernel is draining"),
                actor=actor, txn=txn, entity=entity,
            )
        if mode in self.table.modes_held(txn, entity):
            return self._audited(
                "acquire",
                KernelResponse(
                    Outcome.ERROR,
                    f"{txn!r} already holds {mode.name} on {entity!r}",
                ),
                actor=actor, txn=txn, entity=entity,
            )
        record = self._txns[txn]
        blockers = self.table.blockers(txn, entity, mode)
        if not blockers:
            self.table.acquire(txn, entity, mode)
            record.step_count += 1
            self._granted_on(txn, entity)
            return self._audited(
                "acquire", GRANTED, actor=actor, txn=txn, entity=entity
            )
        # Park the request and look for a cycle the new edge closed.
        self.table.add_waiter(txn, entity, mode)
        record.on_wake = on_wake
        self.graph.set_edges(txn, set(blockers))
        response = KernelResponse(
            Outcome.BLOCKED,
            "conflicting holders",
            blockers=tuple(sorted(blockers)),
        )
        audited = self._audited(
            "acquire", response, actor=actor, txn=txn, entity=entity
        )
        # A fresh block is the only event that can close a waits-for
        # cycle; resolve now.  Single-delivery contract: once parked, the
        # wake-up callback is the only channel for the final outcome —
        # if resolution sacrifices the requester (VICTIM) or a victim's
        # released locks grant it (GRANTED), the callback has already
        # fired, synchronously, before this BLOCKED response returns.
        self._resolve_deadlocks(txn)
        return audited

    def release(
        self,
        txn: str,
        entity: Entity,
        *,
        actor: Optional[str] = None,
    ) -> KernelResponse:
        """Release every mode ``txn`` holds on ``entity``; unheld release
        is protocol misuse (``ERROR``, no state change)."""
        misuse = self._misuse("release", txn)
        if misuse is not None:
            return self._audited(
                "release", misuse, actor=actor, txn=txn, entity=entity
            )
        modes = self.table.modes_held(txn, entity)
        if not modes:
            return self._audited(
                "release",
                KernelResponse(
                    Outcome.ERROR,
                    f"{txn!r} holds no lock on {entity!r}",
                ),
                actor=actor, txn=txn, entity=entity,
            )
        record = self._txns[txn]
        woken: List[str] = []
        seen: Set[str] = set()
        # SHARED before EXCLUSIVE: dropping the weaker half of an upgrade
        # first keeps the strongest-mode view monotone while we unwind.
        # That half weakens nothing (``None``); the last grant to go
        # always weakens the hold, so the waiters are re-derived once,
        # after it.
        for mode in sorted(modes, key=lambda m: m is LockMode.EXCLUSIVE):
            for w in self.table.release(txn, entity, mode) or ():
                if w not in seen:
                    seen.add(w)
                    woken.append(w)
        record.step_count += 1
        self._rederive_waiters(entity)
        response = self._audited(
            "release", GRANTED, actor=actor, txn=txn, entity=entity
        )
        self._grant_woken(woken)
        return response

    def commit(self, txn: str, *, actor: Optional[str] = None) -> KernelResponse:
        """Finish ``txn``, releasing everything it holds.  Committing
        while blocked is protocol misuse — the parked acquire must first
        resolve (or be abandoned via ``abort``)."""
        misuse = self._misuse("commit", txn)
        if misuse is not None:
            return self._audited("commit", misuse, actor=actor, txn=txn)
        self._finish(
            txn,
            KernelResponse(Outcome.ERROR, "transaction committed"),
            audit_op="commit",
            audit_decision=Outcome.GRANTED,
        )
        return GRANTED

    def abort(
        self,
        txn: str,
        *,
        actor: Optional[str] = None,
        reason: str = "aborted by client",
    ) -> KernelResponse:
        """Abort ``txn`` (allowed while blocked: the parked acquire's
        callback fires with ``ERROR`` before the locks release).
        ``reason`` is what the audit entry says about who gave it up."""
        misuse = self._misuse("abort", txn, allow_blocked=True)
        if misuse is not None:
            return self._audited("abort", misuse, actor=actor, txn=txn)
        self._finish(
            txn,
            KernelResponse(Outcome.ERROR, f"transaction {reason}"),
            audit_op="abort",
            audit_decision=Outcome.GRANTED,
            reason=reason,
        )
        return GRANTED

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------

    def drain(self) -> Tuple[str, ...]:
        """Graceful shutdown: refuse new work, cancel every parked
        request (callbacks fire with ``ERROR``), abort every live
        transaction, and return the aborted names.  Idempotent."""
        self._draining = True
        drained = self.live_txns()
        for name in drained:
            if name in self._txns:  # a victim cascade may have removed it
                self._finish(
                    name,
                    KernelResponse(Outcome.ERROR, "kernel draining"),
                    audit_op="abort",
                    audit_decision=Outcome.GRANTED,
                    reason="kernel draining",
                )
        return drained
