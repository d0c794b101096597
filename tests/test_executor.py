"""The phase-pipelined shard executor.

The classify phase fans shard-local work slices out to an executor —
``SerialExecutor`` (the byte-identical reference), the thread-pooled
``ParallelExecutor``, or the replica-owning ``ProcessExecutor`` — behind
one deterministic merge barrier.  The contract under test:

1. **Byte-identical output across executors.**  For every registered
   grid factory, a seeded run's whole :class:`SeedOutcome` is equal for
   every ``(shard_workers, executor)`` configuration at every
   ``lock_shards`` in {1, 4, 8}; end to end, ``CellResult.row()`` dicts
   through the grid runner match too.
2. **Routing agrees with the lock table.**  ``LockTable.shard_of`` is
   the same rule ``_part`` routes operations through, and the admission
   cache's check-set partition is a true partition: disjoint sorted
   slices whose union is exactly the legacy ``take_check_set``.  Since
   the spill-slashing routing landed, admission-needing sessions ride
   their pending entity's shard slice and dependency-declaring sessions
   whose channels all hash to one shard ride that shard's slice; only
   the genuinely entity-less / cross-shard residue spills, with an
   attributed cause.
3. **Executor stats stay out of the metric summaries** — they ride on
   ``SimResult.executor_stats`` so the configuration cannot perturb the
   SeedOutcome equality above — and ``spill_fraction`` is computed from
   the classifications each executor *actually executed*, not from a
   routing recount.
4. **The process executor's replica protocol**: lock-table holder deltas
   are exact, compact, and drained lazily; under-batch ticks never pay
   an IPC round trip.
"""

import dataclasses
import random

import pytest

import repro.sim.executor as executor_module
from repro.core.operations import LockMode
from repro.policies import AltruisticPolicy, DdagPolicy, TwoPhasePolicy
from repro.sim import (
    GRID_FACTORIES,
    AdmissionCache,
    GridSpec,
    LockTable,
    ParallelExecutor,
    PolicySpec,
    ProcessExecutor,
    SerialExecutor,
    Simulator,
    WorkloadSpec,
    grid_factory,
    make_executor,
    run_grid,
    run_seed,
)
from repro.sim.executor import ExecutorStats

SHARD_COUNTS = (1, 4, 8)
#: The (shard_workers, executor) configurations of the acceptance
#: matrix; (0, "serial") is the reference row.
EXECUTOR_CONFIGS = (
    (0, "serial"),
    (2, "thread"),
    (4, "thread"),
    (2, "process"),
    (4, "process"),
)

# Small-but-contended kwargs per registered factory, plus the policy that
# exercises the factory's intended scenario.  Every registered name must
# appear (the guard test fails loud otherwise), and one extra altruistic
# cell keeps dependency-declaring sessions — the channel-routing path —
# under parallel coverage.
FACTORY_CELLS = {
    "stress": (
        TwoPhasePolicy,
        {"num_entities": 30, "num_txns": 40, "arrival_rate": 1.0,
         "hot_fraction": 0.1},
    ),
    "deadlock_storm": (
        TwoPhasePolicy,
        {"num_entities": 20, "num_txns": 30, "accesses_per_txn": 2,
         "arrival_rate": 0.5, "hot_set_size": 4, "hot_traffic": 0.7},
    ),
    "long_transaction": (
        AltruisticPolicy,
        {"num_entities": 12, "num_short": 6, "short_start": 4},
    ),
    "random_access": (TwoPhasePolicy, {"num_entities": 8, "num_txns": 8}),
    "traversal": (DdagPolicy, {"nodes": 8, "num_txns": 5}),
    "dynamic_traversal": (DdagPolicy, {"nodes": 8, "num_txns": 5}),
}

EXTRA_CELLS = {
    "stress+altruistic": (
        "stress",
        AltruisticPolicy,
        {"num_entities": 30, "num_txns": 40, "arrival_rate": 1.0,
         "hot_fraction": 0.1},
    ),
}


@pytest.fixture
def fast_process_executor(monkeypatch):
    """Make process-executor runs affordable in the matrix: fork (no
    fresh-interpreter start-up) and a batch threshold of 1 so every tick
    actually ships work over the pipes."""
    monkeypatch.setattr(executor_module, "PROCESS_START_METHOD", "fork")
    monkeypatch.setattr(executor_module, "PROCESS_MIN_BATCH", 1)


class TestMakeExecutor:
    def test_zero_workers_is_the_serial_reference(self):
        ex = make_executor(0)
        assert isinstance(ex, SerialExecutor)
        assert ex.snapshot()["executor"] == "serial"

    def test_serial_kind_forces_the_reference_at_any_count(self):
        ex = make_executor(4, kind="serial")
        assert isinstance(ex, SerialExecutor)

    def test_positive_workers_build_a_thread_pool(self):
        ex = make_executor(2)
        try:
            assert isinstance(ex, ParallelExecutor)
            snap = ex.snapshot()
            assert snap["executor"] == "thread"
            assert snap["shard_workers"] == 2
        finally:
            ex.shutdown()

    def test_process_kind_builds_the_process_executor(self):
        ex = make_executor(2, kind="process")
        try:
            assert isinstance(ex, ProcessExecutor)
            snap = ex.snapshot()
            assert snap["executor"] == "process"
            assert snap["shard_workers"] == 2
            assert ex.min_batch == executor_module.PROCESS_MIN_BATCH
        finally:
            ex.shutdown()

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="shard_workers"):
            make_executor(-1)
        with pytest.raises(ValueError, match="shard_workers"):
            Simulator(TwoPhasePolicy(), shard_workers=-1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            make_executor(2, kind="gpu")
        with pytest.raises(ValueError, match="executor"):
            Simulator(TwoPhasePolicy(), executor="gpu")

    def test_shard_workers_require_the_event_engine(self):
        with pytest.raises(ValueError, match="event"):
            Simulator(TwoPhasePolicy(), engine="naive", shard_workers=2)


class TestExecutorEquivalence:
    """The acceptance matrix: SeedOutcomes are byte-identical for every
    ``(shard_workers, executor)`` configuration at ``lock_shards`` in
    {1, 4, 8}."""

    @pytest.mark.parametrize("factory_name", sorted(GRID_FACTORIES))
    def test_every_factory_is_executor_invariant(
        self, factory_name, fast_process_executor
    ):
        assert factory_name in FACTORY_CELLS, (
            f"add a FACTORY_CELLS entry for new factory {factory_name!r}"
        )
        policy_cls, kwargs = FACTORY_CELLS[factory_name]
        self._assert_matrix(factory_name, policy_cls, kwargs, seed=0)

    @pytest.mark.parametrize("cell", sorted(EXTRA_CELLS))
    def test_extra_cells_are_executor_invariant(
        self, cell, fast_process_executor
    ):
        factory_name, policy_cls, kwargs = EXTRA_CELLS[cell]
        self._assert_matrix(factory_name, policy_cls, kwargs, seed=1)

    def _assert_matrix(self, factory_name, policy_cls, kwargs, seed):
        ref = None
        for shards in SHARD_COUNTS:
            for workers, kind in EXECUTOR_CONFIGS:
                items, initial, context_kwargs = grid_factory(factory_name)(
                    seed, **kwargs
                )
                outcome = run_seed(
                    policy_cls(), items, initial, seed,
                    context_kwargs=context_kwargs,
                    max_ticks=500_000,
                    lock_shards=shards,
                    shard_workers=workers,
                    executor=kind,
                )
                if ref is None:
                    ref = outcome
                    assert ref.error is None, f"seed run failed: {ref.error}"
                    continue
                assert outcome == ref, (
                    f"{factory_name}: SeedOutcome diverges at "
                    f"shards={shards} shard_workers={workers} "
                    f"executor={kind}"
                )

    def test_process_executor_under_default_spawn(self):
        """One small default-configuration run: real ``spawn`` workers
        (proving the picklability contract end to end) with the batch
        threshold forced low enough to ship."""
        items, initial, context_kwargs = grid_factory("stress")(
            0, num_entities=30, num_txns=40, arrival_rate=1.0,
            hot_fraction=0.1,
        )
        ref = run_seed(
            TwoPhasePolicy(), items, initial, 0,
            context_kwargs=context_kwargs, max_ticks=500_000,
            lock_shards=4, shard_workers=0,
        )
        sim = Simulator(
            TwoPhasePolicy(), seed=0, max_ticks=500_000,
            context_kwargs=context_kwargs, lock_shards=4,
            shard_workers=2, executor="process",
        )
        sim_run = sim.run(items, initial)
        assert sim_run.metrics.summary() == ref.summary
        assert sim_run.metrics.work_summary() == ref.work

    def test_grid_cell_rows_identical_across_executors(self):
        """End to end through the grid runner: thread and process
        executors must produce byte-identical ``CellResult.row()`` dicts
        to the serial reference."""
        spec = GridSpec(
            policies=(PolicySpec(TwoPhasePolicy), PolicySpec(AltruisticPolicy)),
            workloads=(
                WorkloadSpec("deadlock_storm", {
                    "num_entities": 20, "num_txns": 25, "accesses_per_txn": 2,
                    "arrival_rate": 0.5, "hot_set_size": 4, "hot_traffic": 0.7,
                }),
            ),
            seeds=(0, 1),
            max_ticks=500_000,
            lock_shards=4,
            shard_workers=0,
        )
        reference = run_grid(spec, workers=0)
        threaded = run_grid(
            dataclasses.replace(spec, shard_workers=2, executor="thread"),
            workers=0,
        )
        assert [c.row() for c in threaded] == [c.row() for c in reference]
        assert [c.work_means for c in threaded] == [
            c.work_means for c in reference
        ]


class TestShardRouting:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_shard_of_agrees_with_part_routing(self, shards):
        """``shard_of`` is the one hashing rule: the partition it names is
        exactly the partition ``_part`` routes lock operations to."""
        rng = random.Random(42)
        table = LockTable(shards=shards)
        entities = (
            [f"e{i}" for i in range(50)]
            + [rng.randrange(10_000) for _ in range(50)]
            + [("node", i) for i in range(50)]
        )
        for entity in entities:
            s = table.shard_of(entity)
            assert 0 <= s < shards
            assert table._parts[s] is table._part(entity)

    def _spy_records(self, monkeypatch):
        """Wrap ``take_check_slices`` to capture, per tick: the legacy
        check set (computed pre-drain), each session's routing facts, and
        the slices actually handed to the executor."""
        records = []
        orig = AdmissionCache.take_check_slices

        def spy(self, shard_of, shards):
            live = self._live
            expected = sorted(
                n for n in (self.dirty | self.dynamic)
                if n in live and n not in self.complete
            )
            meta = {}
            for n in expected:
                entry = live[n]
                step = entry.session.peek()
                entity_shard = None
                if step is not None and step.entity is not None:
                    entity_shard = shard_of(step.entity)
                channel_shards = None
                if entry.tracks_deps:
                    deps = entry.session.admission_dependencies()
                    channel_shards = frozenset(
                        shard_of(ch) for ch in (deps or ())
                    )
                meta[n] = (entry.needs_admission, channel_shards, entity_shard)
            slices, global_slice, spill = orig(self, shard_of, shards)
            records.append((
                expected, meta, [list(s) for s in slices],
                list(global_slice), dict(spill),
            ))
            return slices, global_slice, spill

        monkeypatch.setattr(AdmissionCache, "take_check_slices", spy)
        return records

    # The last flag says whether the cell is *expected* to route work to
    # shard slices.  Since the spill-slashing routing, every cell routes:
    # admission-needing sessions follow their pending entity and
    # dependency-declaring sessions follow their channels' single home
    # shard whenever one exists.
    @pytest.mark.parametrize("cell", [
        ("deadlock_storm", TwoPhasePolicy,
         {"num_entities": 20, "num_txns": 30, "accesses_per_txn": 2,
          "arrival_rate": 0.5, "hot_set_size": 4, "hot_traffic": 0.7},
         True),
        ("dynamic_traversal", DdagPolicy, {"nodes": 8, "num_txns": 5},
         True),
        ("stress", AltruisticPolicy,
         {"num_entities": 30, "num_txns": 40, "arrival_rate": 1.0,
          "hot_fraction": 0.1},
         True),
    ], ids=lambda c: f"{c[0]}+{c[1].__name__}")
    def test_check_slices_are_a_true_partition(self, monkeypatch, cell):
        factory_name, policy_cls, kwargs, expect_sharded = cell
        records = self._spy_records(monkeypatch)
        items, initial, context_kwargs = grid_factory(factory_name)(
            3, **kwargs
        )
        sim = Simulator(
            policy_cls(), seed=3, max_ticks=500_000,
            context_kwargs=context_kwargs, engine="event", lock_shards=4,
        )
        sim.run(items, initial)

        assert records, "the classify phase never drained a check set"
        saw_sharded = False
        for expected, meta, slices, global_slice, spill in records:
            all_names = [n for s in slices for n in s] + global_slice
            # A true partition: disjoint, and the union is exactly the
            # legacy check set.
            assert sorted(all_names) == expected
            assert len(all_names) == len(set(all_names))
            for shard, names in enumerate(slices):
                # Each slice preserves the merged sorted order.
                assert names == sorted(names)
                if names:
                    saw_sharded = True
                for n in names:
                    _, channel_shards, entity_shard = meta[n]
                    if channel_shards:
                        # A dependency-declaring session rides a shard
                        # slice only when *all* its channels hash there.
                        assert channel_shards == {shard}, (
                            f"{n}: routed to shard {shard}, channels hash "
                            f"to {sorted(channel_shards)}"
                        )
                    else:
                        assert entity_shard == shard, (
                            f"{n}: routed to shard {shard}, pending entity "
                            f"hashes to {entity_shard}"
                        )
            assert global_slice == sorted(global_slice)
            for n in global_slice:
                _, channel_shards, entity_shard = meta[n]
                assert (
                    (channel_shards is not None and len(channel_shards) > 1)
                    or (not channel_shards and entity_shard is None)
                ), f"{n}: shardable session spilled to the global slice"
            # Every spill is attributed to a cause, and the causes add up.
            assert sum(spill.values()) == len(global_slice)
            assert set(spill) <= {"admission", "dynamic", "entity_less"}
        assert saw_sharded == expect_sharded, (
            "shard-slice routing expectation violated for this cell"
        )


class TestExecutorStats:
    def _run(self, shard_workers, kind="thread", min_batch=None,
             monkeypatch=None):
        if kind == "process" and monkeypatch is not None:
            monkeypatch.setattr(
                executor_module, "PROCESS_START_METHOD", "fork"
            )
            if min_batch is not None:
                monkeypatch.setattr(
                    executor_module, "PROCESS_MIN_BATCH", min_batch
                )
        items, initial, context_kwargs = grid_factory("deadlock_storm")(
            0, num_entities=20, num_txns=25, accesses_per_txn=2,
            arrival_rate=0.5, hot_set_size=4, hot_traffic=0.7,
        )
        sim = Simulator(
            TwoPhasePolicy(), seed=0, max_ticks=500_000,
            context_kwargs=context_kwargs, engine="event",
            lock_shards=4, shard_workers=shard_workers, executor=kind,
        )
        return sim.run(items, initial)

    def test_snapshot_shape_and_partition_counters(self):
        serial = self._run(0, kind="serial")
        threaded = self._run(2, kind="thread")
        assert serial.executor_stats["executor"] == "serial"
        assert serial.executor_stats["parallel_ticks"] == 0
        assert threaded.executor_stats["executor"] == "thread"
        assert threaded.executor_stats["shard_workers"] == 2
        assert threaded.executor_stats["parallel_ticks"] > 0
        # Both executors see the identical routing partition of the same
        # run: per-shard counts, spill causes, executed spill.
        for key in ("sharded_classifications", "spill_classifications",
                    "classify_ticks", "spill_fraction", "spill_causes",
                    "shard_classifications"):
            assert serial.executor_stats[key] == threaded.executor_stats[key]
        assert threaded.executor_stats["sharded_classifications"] > 0

    def test_spill_fraction_reflects_execution_site(self):
        """Regression: ``spill_fraction`` used to be recomputed from the
        routing tally, so every executor reported the same number by
        construction.  It is now derived from the classifications each
        executor actually executed: the serial reference runs everything
        on the coordinator, the thread executor runs shard slices on
        workers — same fraction, different execution-site splits."""
        serial = self._run(0, kind="serial")
        threaded = self._run(2, kind="thread")
        s, t = serial.executor_stats, threaded.executor_stats
        # Serial executes every classification on the coordinator.
        assert s["worker_classifications"] == 0
        assert s["coordinator_classifications"] == (
            s["sharded_classifications"] + s["spill_classifications"]
        )
        # The thread executor runs exactly the shard slices on workers.
        assert t["worker_classifications"] == t["sharded_classifications"]
        assert t["coordinator_classifications"] == t["spill_classifications"]
        # Executed totals agree, so the executed spill fraction does too.
        executed_s = s["coordinator_classifications"] + s["worker_classifications"]
        executed_t = t["coordinator_classifications"] + t["worker_classifications"]
        assert executed_s == executed_t
        expected = (
            s["spill_classifications"] / executed_s if executed_s else 0.0
        )
        assert s["spill_fraction"] == expected
        assert t["spill_fraction"] == expected

    def test_count_slices_alone_leaves_spill_fraction_zero(self):
        """The routing tally must not move the executed spill fraction —
        that was the bug: counting at routing time made every executor
        report identical spill numbers regardless of what it ran."""
        stats = ExecutorStats()
        stats.count_slices(
            [["a"], [], ["b", "c"]], ["x", "y"], {"dynamic": 2}
        )
        snap = stats.as_dict()
        assert snap["sharded_classifications"] == 3
        assert snap["spill_causes"] == {"dynamic": 2}
        assert snap["spill_classifications"] == 0
        assert snap["spill_fraction"] == 0.0
        assert snap["coordinator_classifications"] == 0
        assert snap["worker_classifications"] == 0

    def test_process_stats_record_ipc_and_delta_bytes(self, monkeypatch):
        proc = self._run(2, kind="process", min_batch=1,
                         monkeypatch=monkeypatch)
        stats = proc.executor_stats
        assert stats["executor"] == "process"
        assert stats["ipc_round_trips"] > 0
        assert stats["delta_bytes"] > 0
        assert stats["reply_bytes"] > 0
        assert stats["worker_classifications"] > 0
        serial = self._run(0, kind="serial")
        # The routing partition is executor-independent even here.
        assert (stats["spill_causes"]
                == serial.executor_stats["spill_causes"])

    def test_process_under_batch_threshold_never_ships(self, monkeypatch):
        """With the default-sized (large) batch threshold this workload's
        tiny per-tick slices never justify a round trip: the process
        executor must degrade to coordinator-side derivation with zero
        IPC — that laziness is what keeps ``executor="process"`` safe to
        leave on for small runs."""
        monkeypatch.setattr(executor_module, "PROCESS_START_METHOD", "fork")
        monkeypatch.setattr(executor_module, "PROCESS_MIN_BATCH", 10_000)
        proc = self._run(2, kind="process")
        stats = proc.executor_stats
        assert stats["ipc_round_trips"] == 0
        assert stats["delta_bytes"] == 0
        assert stats["worker_classifications"] == 0
        assert stats["parallel_ticks"] == 0

    def test_stats_stay_out_of_the_metric_summaries(self):
        """The SeedOutcome equality above holds *because* executor
        counters never leak into ``summary()``/``work_summary()``."""
        result = self._run(2)
        for key in result.executor_stats:
            assert key not in result.metrics.summary()
            assert key not in result.metrics.work_summary()


class TestHolderDeltas:
    """The lock table's opt-in change log — the process executor's
    replica protocol source."""

    def test_tracking_is_off_by_default(self):
        table = LockTable(shards=2)
        table.acquire("t1", "a", LockMode.EXCLUSIVE)
        assert table.take_holder_delta() == {}

    def test_acquire_release_and_release_all_are_logged(self):
        table = LockTable(shards=2)
        table.enable_delta_tracking()
        table.acquire("t1", "a", LockMode.EXCLUSIVE)
        table.acquire("t2", "b", LockMode.SHARED)
        table.acquire("t3", "b", LockMode.SHARED)
        delta = table.take_holder_delta()
        assert delta == {
            "a": {"t1": LockMode.EXCLUSIVE},
            "b": {"t2": LockMode.SHARED, "t3": LockMode.SHARED},
        }
        # Drained: a second take is empty until the next mutation.
        assert table.take_holder_delta() == {}
        table.release("t2", "b", LockMode.SHARED)
        assert table.take_holder_delta() == {"b": {"t3": LockMode.SHARED}}
        table.release_all("t1")
        table.release_all("t3")
        assert table.take_holder_delta() == {"a": None, "b": None}

    def test_delta_reports_effective_modes_after_upgrade(self):
        table = LockTable()
        table.enable_delta_tracking()
        table.acquire("t1", "a", LockMode.SHARED)
        table.acquire("t1", "a", LockMode.EXCLUSIVE)
        assert table.take_holder_delta() == {"a": {"t1": LockMode.EXCLUSIVE}}
        # Dropping the SHARED half does not weaken the effective mode but
        # still marks the entity (the replica map is re-sent verbatim).
        table.release("t1", "a", LockMode.SHARED)
        assert table.take_holder_delta() == {"a": {"t1": LockMode.EXCLUSIVE}}

    def test_bootstrap_is_the_full_state(self):
        """Enabling tracking before any grant makes the first drain a
        complete replica — the executor's bind-time contract."""
        table = LockTable(shards=4)
        table.enable_delta_tracking()
        entities = [f"e{i}" for i in range(10)]
        for i, entity in enumerate(entities):
            table.acquire(f"t{i}", entity, LockMode.EXCLUSIVE)
        delta = table.take_holder_delta()
        assert set(delta) == set(entities)
        assert all(v is not None for v in delta.values())
