"""The tick-free kernel request API (``repro.kernel.core.LockKernel``):
lifecycle outcomes, wake-up callbacks, deadlock resolution, drain, and —
the contract under test throughout — protocol misuse answered with
``ERROR``/``DENIED`` while mutating **nothing** and always leaving an
audit entry (no audit-free path)."""

import random

import pytest

from repro.kernel import AuditEntry, AuditLog, LockKernel, LockMode, Outcome
from repro.sim.deadlock import find_cycle


def audited_kernel(**kwargs):
    return LockKernel(audit=AuditLog(), **kwargs)


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
            assert last_audit(self.kernel).decision in ("error", "denied")
        return False


class TestLifecycle:
    def test_begin_acquire_release_commit(self):
        k = audited_kernel()
        assert k.begin("t1").ok
        assert k.acquire("t1", "a", LockMode.EXCLUSIVE).ok
        assert k.held("t1") == {"a": LockMode.EXCLUSIVE}
        assert k.release("t1", "a").ok
        assert k.held("t1") == {}
        assert k.commit("t1").ok
        assert k.live_txns() == ()
        assert [e.decision for e in k.audit] == ["granted"] * 4

    def test_shared_holders_coexist(self):
        k = audited_kernel()
        for name in ("t1", "t2"):
            assert k.begin(name).ok
            assert k.acquire(name, "a", LockMode.SHARED).ok
        assert k.blocked_txns() == ()

    def test_conflicting_acquire_blocks_then_wakes_granted(self):
        k = audited_kernel()
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
        k = audited_kernel()
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
        k = audited_kernel()
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
        k = audited_kernel()
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

    def test_upgrade_shared_to_exclusive_is_not_misuse(self):
        """Cross-mode re-acquisition is the upgrade path: it goes through
        the ordinary conflict check, not the duplicate-acquire guard."""
        k = audited_kernel()
        assert k.begin("t1").ok
        assert k.acquire("t1", "a", LockMode.SHARED).ok
        assert k.acquire("t1", "a", LockMode.EXCLUSIVE).ok  # sole holder
        assert k.held("t1") == {"a": LockMode.EXCLUSIVE}

    def test_upgrade_blocks_behind_other_shared_holder(self):
        k = audited_kernel()
        assert k.begin("t1").ok and k.begin("t2").ok
        assert k.acquire("t1", "a", LockMode.SHARED).ok
        assert k.acquire("t2", "a", LockMode.SHARED).ok
        response = k.acquire("t1", "a", LockMode.EXCLUSIVE)
        assert response.outcome is Outcome.BLOCKED
        assert response.blockers == ("t2",)


class TestProtocolMisuse:
    """Each misuse case: refused, zero state mutation, one audit entry."""

    def test_release_of_unheld_lock(self):
        k = audited_kernel()
        assert k.begin("t1").ok
        with MisuseProbe(k) as probe:
            probe.expect_refusal(
                k.release("t1", "never-locked"), Outcome.ERROR, "no lock"
            )

    def test_duplicate_same_mode_acquire(self):
        k = audited_kernel()
        assert k.begin("t1").ok
        assert k.acquire("t1", "a", LockMode.SHARED).ok
        with MisuseProbe(k) as probe:
            probe.expect_refusal(
                k.acquire("t1", "a", LockMode.SHARED),
                Outcome.ERROR, "already holds SHARED",
            )

    def test_commit_while_blocked(self):
        k = audited_kernel()
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
        k = audited_kernel()
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
        k = audited_kernel()
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
        k = audited_kernel()
        assert k.begin("t1").ok
        with MisuseProbe(k) as probe:
            probe.expect_refusal(k.begin("t1"), Outcome.ERROR, "exists")
        assert k.commit("t1").ok
        with MisuseProbe(k) as probe:
            probe.expect_refusal(k.begin("t1"), Outcome.ERROR, "finished")

    def test_acquire_while_blocked(self):
        k = audited_kernel()
        assert k.begin("t1").ok and k.begin("t2").ok
        assert k.acquire("t1", "a").ok
        assert k.acquire("t2", "a").outcome is Outcome.BLOCKED
        with MisuseProbe(k) as probe:
            probe.expect_refusal(
                k.acquire("t2", "b"), Outcome.ERROR, "blocked"
            )

    def test_every_request_is_audited(self):
        """No audit-free path: each API call appends at least one entry."""
        k = audited_kernel()
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


class TestAdmissionAndDrain:
    def test_admission_hook_denies_before_any_state_change(self):
        def hook(op, txn, entity, mode):
            if op == "acquire" and entity == "forbidden":
                return "entity is off-limits"
            return None

        k = LockKernel(audit=AuditLog(), admission_hook=hook)
        assert k.begin("t1").ok
        with MisuseProbe(k) as probe:
            probe.expect_refusal(
                k.acquire("t1", "forbidden"), Outcome.DENIED, "off-limits"
            )
        assert last_audit(k).decision == "denied"
        assert k.acquire("t1", "allowed").ok

    def test_max_live_admission_control(self):
        k = LockKernel(audit=AuditLog(), max_live=1)
        assert k.begin("t1").ok
        with MisuseProbe(k) as probe:
            probe.expect_refusal(
                k.begin("t2"), Outcome.ERROR, "admission control"
            )
        assert k.commit("t1").ok
        assert k.begin("t2").ok

    def test_drain_cancels_blocked_and_aborts_live(self):
        k = audited_kernel()
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
    here as the oracle the maintained graph must equal."""
    graph = {}
    for record in kernel._txns.values():
        if record.pending is None:
            continue
        entity, mode, _ = record.pending
        graph[record.name] = {
            b
            for b in kernel.table.blockers(record.name, entity, mode)
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
        self.kernel = audited_kernel(lock_shards=2)
        self.oracle = OracleKernel(audit=AuditLog(), lock_shards=2)
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
            self.rederived += bool(k.table.waiters_of(entity))
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
        k = audited_kernel()
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
