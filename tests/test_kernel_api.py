"""The tick-free kernel request API (``repro.kernel.core.LockKernel``):
lifecycle outcomes, wake-up callbacks, deadlock resolution, drain, and —
the contract under test throughout — protocol misuse answered with
``ERROR`` while mutating **nothing** and always leaving an audit entry
(no audit-free path)."""

import random

import pytest

from repro.kernel import (
    AuditEntry,
    AuditLog,
    KernelResponse,
    LockKernel,
    LockMode,
    Outcome,
)
from repro.kernel.outcomes import GRANTED
from repro.sim.deadlock import find_cycle


def last_audit(kernel):
    return kernel.audit.entries()[-1]


class MisuseProbe:
    """Snapshot fingerprint + audit length around a request expected to
    refuse: asserts no state mutation and exactly one new audit entry."""

    def __init__(self, kernel):
        self.kernel = kernel

    def expect_refusal(self, response, outcome, reason_fragment):
        assert response.outcome is outcome, response
        assert response.reason and reason_fragment in response.reason
        return response

    def __enter__(self):
        self.fingerprint = self.kernel.state_fingerprint()
        self.audit_len = len(self.kernel.audit)
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            assert self.kernel.state_fingerprint() == self.fingerprint, (
                "a refused request mutated kernel state"
            )
            assert len(self.kernel.audit) == self.audit_len + 1, (
                "a refused request did not leave exactly one audit entry"
            )
            assert last_audit(self.kernel).decision == "error"
        return False


class TestLifecycle:
    def test_begin_acquire_release_commit(self):
        k = LockKernel()
        assert k.begin("t1").ok
        assert k.acquire("t1", "a", LockMode.EXCLUSIVE).ok
        assert k.held("t1") == {"a": LockMode.EXCLUSIVE}
        assert k.release("t1", "a").ok
        assert k.held("t1") == {}
        assert k.commit("t1").ok
        assert k.live_txns() == ()
        assert [e.decision for e in k.audit] == ["granted"] * 4

    def test_shared_holders_coexist(self):
        k = LockKernel()
        for name in ("t1", "t2"):
            assert k.begin(name).ok
            assert k.acquire(name, "a", LockMode.SHARED).ok
        assert k.blocked_txns() == ()

    def test_conflicting_acquire_blocks_then_wakes_granted(self):
        k = LockKernel()
        assert k.begin("t1").ok and k.begin("t2").ok
        assert k.acquire("t1", "a").ok
        wakes = []
        response = k.acquire(
            "t2", "a", on_wake=lambda txn, r: wakes.append((txn, r.outcome))
        )
        assert response.outcome is Outcome.BLOCKED
        assert response.blockers == ("t1",)
        assert k.blocked_txns() == ("t2",)
        assert not wakes
        assert k.commit("t1").ok
        assert wakes == [("t2", Outcome.GRANTED)]
        assert k.held("t2") == {"a": LockMode.EXCLUSIVE}
        assert k.blocked_txns() == ()

    def test_wake_grants_in_arrival_order(self):
        k = LockKernel()
        for name in ("t1", "t2", "t3"):
            assert k.begin(name).ok
        assert k.acquire("t1", "a").ok
        order = []
        for name in ("t2", "t3"):
            r = k.acquire(name, "a",
                          on_wake=lambda txn, _r: order.append(txn))
            assert r.outcome is Outcome.BLOCKED
        assert k.commit("t1").ok
        assert order == ["t2"]  # t3 still waits behind t2's exclusive
        assert k.commit("t2").ok
        assert order == ["t2", "t3"]

    def test_deadlock_resolution_aborts_a_victim(self):
        k = LockKernel()
        assert k.begin("t1").ok and k.begin("t2").ok
        assert k.acquire("t1", "a").ok
        assert k.acquire("t2", "b").ok
        wakes = []
        assert k.acquire(
            "t1", "b", on_wake=lambda t, r: wakes.append((t, r.outcome))
        ).outcome is Outcome.BLOCKED
        assert k.acquire(
            "t2", "a", on_wake=lambda t, r: wakes.append((t, r.outcome))
        ).outcome is Outcome.BLOCKED
        # Cost triple (structural effects, step_count, name): equal work,
        # so the name breaks the tie deterministically.
        assert k.victims == ["t1"]
        assert ("t1", Outcome.VICTIM) in wakes
        assert ("t2", Outcome.GRANTED) in wakes  # victim's locks freed it
        assert k.live_txns() == ("t2",)
        assert any(
            e.decision == "victim" and e.txn == "t1" for e in k.audit
        )

    def test_abort_while_blocked_cancels_the_parked_request(self):
        k = LockKernel()
        assert k.begin("t1").ok and k.begin("t2").ok
        assert k.acquire("t1", "a").ok
        wakes = []
        assert k.acquire(
            "t2", "a", on_wake=lambda t, r: wakes.append(r.outcome)
        ).outcome is Outcome.BLOCKED
        assert k.abort("t2").ok
        assert wakes == [Outcome.ERROR]
        assert k.live_txns() == ("t1",)
        # t1's lock is untouched by t2's departure.
        assert k.held("t1") == {"a": LockMode.EXCLUSIVE}

    def test_a_parked_request_lives_on_the_table_queue(self):
        """The lock table's queue is the one record of a parked acquire:
        it appears there when the acquire blocks and leaves when the
        request is cancelled."""
        k = LockKernel()
        assert k.begin("t1").ok and k.begin("t2").ok
        assert k.acquire("t1", "a").ok
        assert k.table.waiting_entity("t2") is None
        assert k.acquire("t2", "a", LockMode.SHARED).outcome is Outcome.BLOCKED
        assert k.table.waiting_entity("t2") == "a"
        assert list(k.table.queue("a").items()) == [("t2", LockMode.SHARED)]
        assert k.blocked_txns() == ("t2",)
        assert k.abort("t2").ok
        assert k.table.waiting_entity("t2") is None
        assert not k.table.queue("a")
        assert k.blocked_txns() == ()

    def test_a_delivered_wake_never_fires_again(self):
        """A callback fires once, while its request is queued: a second
        parked acquire reports only through its own callback, and a later
        abort re-fires neither."""
        k = LockKernel()
        assert k.begin("t1").ok and k.begin("t2").ok
        assert k.acquire("t1", "a").ok
        assert k.acquire("t1", "b").ok
        first, second = [], []
        assert k.acquire(
            "t2", "a", on_wake=lambda t, r: first.append(r.outcome)
        ).outcome is Outcome.BLOCKED
        assert k.release("t1", "a").ok
        assert first == [Outcome.GRANTED]
        assert k.acquire(
            "t2", "b", on_wake=lambda t, r: second.append(r.outcome)
        ).outcome is Outcome.BLOCKED
        assert k.release("t1", "b").ok
        assert (first, second) == ([Outcome.GRANTED], [Outcome.GRANTED])
        assert k.abort("t2").ok
        assert (first, second) == ([Outcome.GRANTED], [Outcome.GRANTED])
        assert k.live_txns() == ("t1",)

    def test_upgrade_shared_to_exclusive_is_not_misuse(self):
        """Cross-mode re-acquisition is the upgrade path: it goes through
        the ordinary conflict check, not the duplicate-acquire guard."""
        k = LockKernel()
        assert k.begin("t1").ok
        assert k.acquire("t1", "a", LockMode.SHARED).ok
        assert k.acquire("t1", "a", LockMode.EXCLUSIVE).ok  # sole holder
        assert k.held("t1") == {"a": LockMode.EXCLUSIVE}

    def test_upgrade_blocks_behind_other_shared_holder(self):
        k = LockKernel()
        assert k.begin("t1").ok and k.begin("t2").ok
        assert k.acquire("t1", "a", LockMode.SHARED).ok
        assert k.acquire("t2", "a", LockMode.SHARED).ok
        response = k.acquire("t1", "a", LockMode.EXCLUSIVE)
        assert response.outcome is Outcome.BLOCKED
        assert response.blockers == ("t2",)


class TestProtocolMisuse:
    """Each misuse case: refused, zero state mutation, one audit entry."""

    def test_release_of_unheld_lock(self):
        k = LockKernel()
        assert k.begin("t1").ok
        with MisuseProbe(k) as probe:
            probe.expect_refusal(
                k.release("t1", "never-locked"), Outcome.ERROR, "no lock"
            )

    def test_duplicate_same_mode_acquire(self):
        k = LockKernel()
        assert k.begin("t1").ok
        assert k.acquire("t1", "a", LockMode.SHARED).ok
        with MisuseProbe(k) as probe:
            probe.expect_refusal(
                k.acquire("t1", "a", LockMode.SHARED),
                Outcome.ERROR, "already holds SHARED",
            )

    def test_commit_while_blocked(self):
        k = LockKernel()
        assert k.begin("t1").ok and k.begin("t2").ok
        assert k.acquire("t1", "a").ok
        assert k.acquire("t2", "a").outcome is Outcome.BLOCKED
        with MisuseProbe(k) as probe:
            probe.expect_refusal(
                k.commit("t2"), Outcome.ERROR, "only abort"
            )
        # The parked request is still alive and resolves normally.
        assert k.commit("t1").ok
        assert k.held("t2") == {"a": LockMode.EXCLUSIVE}

    @pytest.mark.parametrize("op", ["acquire", "release", "commit", "abort"])
    def test_ops_on_unknown_txn(self, op):
        k = LockKernel()
        assert k.begin("other").ok  # some unrelated state to not mutate
        assert k.acquire("other", "x").ok
        with MisuseProbe(k) as probe:
            if op == "acquire":
                response = k.acquire("ghost", "a")
            elif op == "release":
                response = k.release("ghost", "a")
            else:
                response = getattr(k, op)("ghost")
            probe.expect_refusal(response, Outcome.ERROR, "unknown")

    @pytest.mark.parametrize("op", ["acquire", "release", "commit", "abort"])
    def test_ops_on_finished_txn(self, op):
        k = LockKernel()
        assert k.begin("t1").ok
        assert k.commit("t1").ok
        with MisuseProbe(k) as probe:
            if op == "acquire":
                response = k.acquire("t1", "a")
            elif op == "release":
                response = k.release("t1", "a")
            else:
                response = getattr(k, op)("t1")
            probe.expect_refusal(response, Outcome.ERROR, "already finished")

    def test_begin_of_live_or_finished_name(self):
        k = LockKernel()
        assert k.begin("t1").ok
        with MisuseProbe(k) as probe:
            probe.expect_refusal(k.begin("t1"), Outcome.ERROR, "exists")
        assert k.commit("t1").ok
        with MisuseProbe(k) as probe:
            probe.expect_refusal(k.begin("t1"), Outcome.ERROR, "finished")

    def test_acquire_while_blocked(self):
        k = LockKernel()
        assert k.begin("t1").ok and k.begin("t2").ok
        assert k.acquire("t1", "a").ok
        assert k.acquire("t2", "a").outcome is Outcome.BLOCKED
        with MisuseProbe(k) as probe:
            probe.expect_refusal(
                k.acquire("t2", "b"), Outcome.ERROR, "blocked"
            )

    def test_every_request_is_audited(self):
        """No audit-free path: each API call appends at least one entry."""
        k = LockKernel()
        before = len(k.audit)
        for call in (
            lambda: k.begin("t1"),
            lambda: k.acquire("t1", "a"),
            lambda: k.acquire("t1", "a"),        # misuse
            lambda: k.release("t1", "b"),        # misuse
            lambda: k.release("t1", "a"),
            lambda: k.commit("t1"),
            lambda: k.commit("t1"),              # misuse (finished)
        ):
            call()
            after = len(k.audit)
            assert after > before, "an API call left no audit entry"
            before = after

    def test_audit_entries_are_immutable_records(self):
        """Tuple-backed, with the field names, keyword construction,
        equality and hashing the frozen dataclass had — and no way to
        change one after the fact."""
        log = AuditLog()
        entry = log.append("acquire", "alice", "blocked", txn="t1",
                           entity="a", reason="conflicting holders")
        assert (entry.seq, entry.op, entry.actor, entry.txn, entry.entity,
                entry.decision, entry.reason) == (
            0, "acquire", "alice", "t1", "'a'", "blocked",
            "conflicting holders",
        )
        assert entry == AuditEntry(
            seq=0, op="acquire", actor="alice", txn="t1", entity="'a'",
            decision="blocked", reason="conflicting holders",
        )
        assert AuditEntry(1, "begin", "bob", "t2", None, "granted").reason is None
        assert len({entry, log.entries()[0]}) == 1  # hashable, by value
        for field in AuditEntry._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(entry, field, "forged")
        assert log.entries() == (entry,)

    def test_responses_are_immutable_records(self):
        """``KernelResponse`` is tuple-backed like ``AuditEntry``: the
        field names, keyword construction, the ``blockers`` default,
        equality and hashing by value, and no way to change one."""
        blocked = KernelResponse(
            Outcome.BLOCKED, "conflicting holders", blockers=("t1", "t2")
        )
        assert KernelResponse._fields == ("outcome", "reason", "blockers")
        assert (blocked.outcome, blocked.reason, blocked.blockers) == (
            Outcome.BLOCKED, "conflicting holders", ("t1", "t2")
        )
        assert blocked == KernelResponse(
            outcome=Outcome.BLOCKED, reason="conflicting holders",
            blockers=("t1", "t2"),
        )
        granted = KernelResponse(Outcome.GRANTED)
        assert (granted.reason, granted.blockers) == (None, ())
        assert granted.ok and not blocked.ok
        assert len({granted, GRANTED, KernelResponse(outcome=Outcome.GRANTED)}) == 1
        for field in KernelResponse._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(blocked, field, "forged")

    def test_wire_strings_are_plain_values(self):
        """Replies and audit entries carry ``Outcome.wire``: the member's
        value as a plain ``str`` (the audit digest hashes it)."""
        for outcome in Outcome:
            assert type(outcome.wire) is str and outcome.wire == outcome.value
            assert outcome.is_success is (outcome is Outcome.GRANTED)
        k = LockKernel()
        k.begin("t1")
        k.acquire("t1", "a")
        k.begin("t2")
        k.acquire("t2", "a")
        k.commit("t1")
        decisions = [e.decision for e in k.audit.entries()]
        assert decisions == ["granted", "granted", "granted", "blocked",
                             "granted", "granted"]
        assert all(type(d) is str for d in decisions)


class TestDrain:
    def test_drain_cancels_blocked_and_aborts_live(self):
        k = LockKernel()
        assert k.begin("t1").ok and k.begin("t2").ok
        assert k.acquire("t1", "a").ok
        wakes = []
        assert k.acquire(
            "t2", "a", on_wake=lambda t, r: wakes.append((t, r.outcome))
        ).outcome is Outcome.BLOCKED
        drained = k.drain()
        assert drained == ("t1", "t2")
        assert wakes == [("t2", Outcome.ERROR)]
        assert k.live_txns() == ()
        assert k.state_fingerprint()[0] == ()  # no holders remain
        # Draining kernel refuses new work, audited.
        with MisuseProbe(k) as probe:
            probe.expect_refusal(k.begin("t3"), Outcome.ERROR, "draining")
        assert k.drain() == ()  # idempotent


# ----------------------------------------------------------------------
# The maintained waits-for graph against the table-derived rebuild
# ----------------------------------------------------------------------


def table_waits_for(kernel):
    """Every parked transaction's waits-for edges re-derived from the lock
    table — what ``LockKernel`` used to rebuild on every ``BLOCKED``, kept
    here as the oracle the maintained graph must equal.  The parked
    request is read where the kernel keeps it: on the table's queue."""
    table = kernel.table
    graph = {}
    for name in kernel._txns:
        entity = table.waiting_entity(name)
        if entity is None:
            continue
        mode = table.queue(entity)[name]
        graph[name] = {
            b for b in table.blockers(name, entity, mode)
            if b in kernel._txns
        }
    return graph


class OracleKernel(LockKernel):
    """The kernel as it decided before it kept a graph: on every block,
    rebuild waits-for from the table and run the from-scratch detector."""

    def _resolve_deadlocks(self, waiter):
        cycle = find_cycle(table_waits_for(self))
        while cycle is not None:
            self._abort_victim(cycle)  # pick_victim + abort, as the kernel
            cycle = find_cycle(table_waits_for(self))


def assert_graph_matches_table(kernel):
    kernel.graph.check_consistency()
    for entity, queue in kernel.table._waiters.items():
        for name in queue:
            assert name in kernel._txns, f"{name} queued on {entity!r}, not live"
            assert name in kernel.graph.waits_for, (
                f"{name} queued on {entity!r} without waits-for edges"
            )
    rebuilt = table_waits_for(kernel)
    assert kernel.graph.snapshot() == rebuilt
    assert find_cycle(rebuilt) is None, "a cycle survived a request"
    assert kernel.blocked_txns() == tuple(sorted(rebuilt))


class RequestFuzzer:
    """One seeded request sequence sent to the kernel and to the oracle
    side by side.  Entities are drawn unordered from a small hot set, so
    blocks, upgrades, real cycles and multi-victim cascades all occur."""

    ENTITIES = ("a", "b", "c", "d")
    MAX_LIVE = 9

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.kernel = LockKernel()
        self.oracle = OracleKernel()
        self.wakes = {self.kernel: [], self.oracle: []}
        self.begun = 0
        self.cascades = 0  # requests that cost two or more victims
        self.rederived = 0  # releases that left a waiter queued

    def both(self, op, *args, **kwargs):
        """Send one request to both kernels; the replies must agree and
        the maintained graph must equal the rebuild afterwards."""
        replies = []
        for k in (self.kernel, self.oracle):
            if op == "acquire":
                sink = self.wakes[k]
                kwargs["on_wake"] = lambda t, r, sink=sink: sink.append(
                    (t, r.outcome, r.reason)
                )
            replies.append(getattr(k, op)(*args, **kwargs))
        assert replies[0] == replies[1], (op, args)
        assert_graph_matches_table(self.kernel)
        assert self.kernel.victims == self.oracle.victims
        return replies[0]

    def step(self):
        rng, k = self.rng, self.kernel
        live = k.live_txns()
        blocked = set(k.blocked_txns())
        active = [t for t in live if t not in blocked]
        roll = rng.random()
        if not live or (roll < 0.15 and len(live) < self.MAX_LIVE):
            self.begun += 1
            self.both("begin", f"t{self.begun:03d}")
        elif roll < 0.70 and active:
            victims = len(k.victims)
            self.both(
                "acquire", rng.choice(active), rng.choice(self.ENTITIES),
                rng.choice((LockMode.SHARED, LockMode.EXCLUSIVE)),
            )
            self.cascades += len(k.victims) - victims >= 2
        elif roll < 0.82 and active:
            txn = rng.choice(active)
            # Mostly something held; now and then an unheld misuse.
            held = sorted(k.held(txn)) or list(self.ENTITIES)
            entity = rng.choice(held if rng.random() < 0.9 else self.ENTITIES)
            self.both("release", txn, entity)
            self.rederived += bool(k.table.queue(entity))
        elif roll < 0.92 and active:
            self.both("commit", rng.choice(active))
        else:
            self.both("abort", rng.choice(live))  # blocked ones included

    def run(self, requests):
        for _ in range(requests):
            self.step()
        self.both("drain")
        assert self.kernel.live_txns() == ()
        assert self.kernel.graph.snapshot() == {}
        assert self.wakes[self.kernel] == self.wakes[self.oracle]
        assert self.kernel.audit.entries() == self.oracle.audit.entries()
        return self


class TestMaintainedWaitsFor:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_requests_match_the_table_rebuild(self, seed):
        RequestFuzzer(seed).run(400)

    def test_the_sequences_reach_the_hard_cases(self):
        """The differential test above proves nothing unless deadlocks,
        multi-victim cascades and releases past a queued waiter occur."""
        runs = [RequestFuzzer(seed).run(400) for seed in range(12)]
        assert sum(len(r.kernel.victims) for r in runs) >= 50
        assert sum(r.cascades for r in runs) >= 2
        assert sum(r.rederived for r in runs) >= 10

    def test_a_grant_past_a_queued_waiter_extends_its_edges(self):
        """S holder joins while X waits: the waiter's blocker set grows
        without it being re-examined, and the cycle that edge belongs to
        is found when the joiner next blocks."""
        k = LockKernel()
        for name in ("t1", "t2", "t3"):
            assert k.begin(name).ok
        assert k.acquire("t1", "a", LockMode.SHARED).ok
        assert k.acquire("t2", "b").ok
        assert k.acquire("t2", "a").outcome is Outcome.BLOCKED
        assert k.graph.snapshot() == {"t2": {"t1"}}
        assert k.acquire("t3", "a", LockMode.SHARED).ok  # jumps the queue
        assert k.graph.snapshot() == {"t2": {"t1", "t3"}}
        wakes = []
        assert k.acquire(
            "t3", "b", on_wake=lambda t, r: wakes.append((t, r.outcome))
        ).outcome is Outcome.BLOCKED
        assert k.victims == ["t2"]  # equal work; the name breaks the tie
        assert wakes == [("t3", Outcome.GRANTED)]
        assert_graph_matches_table(k)
