"""Pluggable executors for the event engine's phase pipeline.

The event tick is a pipeline of phases (commit scan → classify →
deadlock → execute; see :meth:`repro.sim.scheduler._Run._event_tick`).
The classify phase is the only one whose work is partitioned:
:meth:`AdmissionCache.take_check_slices` splits the check set into
shard-local slices keyed by each session's routing home
(``LockTable.shard_of`` of the pending step's entity, or of a
dependency-declaring session's single channel shard) plus a small global
slice for the genuinely entity-less / cross-shard residue.  An executor
decides *how* those slices are walked:

* :class:`SerialExecutor` (default, ``shard_workers=0`` or
  ``executor="serial"``) merges the slices back into the legacy
  fully-sorted sequence and runs the classic interleaved ``classify`` per
  session — byte-identical to the pre-pipeline engine by construction,
  and the reference every parallel configuration is equivalence-tested
  against.
* :class:`ParallelExecutor` (``executor="thread"``) fans the shard slices
  out to a ``ThreadPoolExecutor``: each worker runs the **pure derive
  half** (:meth:`Classifier.derive`) of its slice into a per-shard
  :class:`ShardBuffer`, the coordinator derives the global slice itself,
  and everything joins at a **deterministic merge barrier** — buffered
  decisions are applied (:meth:`Classifier.apply`) on the coordinator in
  shard-index order, global slice last.
* :class:`ProcessExecutor` (``executor="process"``) keeps ``N``
  persistent spawn-safe worker processes, each owning a **long-lived
  replica** of its shards' frozen classify inputs — the effective-mode
  holder maps plus a per-session snapshot of the pending step — kept
  current by compact per-tick deltas instead of per-tick full pickles.
  Shard slices big enough to amortize the IPC round trip
  (:data:`PROCESS_MIN_BATCH`) ship to their owning worker
  (``shard % workers``); the worker derives blocker sets against its
  replica and returns a compact reply buffer the coordinator reconstructs
  into the identical :class:`~repro.sim.admission.Decision` values.
  Admission-needing and dependency-declaring sessions always derive on
  the coordinator (the policy context is not replicated); everything
  still applies at the same shard-index merge barrier.

**Shard-locality contract** (statically enforced by lint rules RPR006
directly and RPR007 through the whole-program call graph, with RPR008
checking that no two worker-reachable sites race on the same shared
target and RPR009 that the coordinator merge path below only mutates
scheduler state through the sanctioned calls):
a shard-phase callable — anything decorated :func:`shard_phase`, the
only code that runs on thread workers — may read the frozen phase inputs
it is handed (the live table, the derive callable, its slice of names)
and write **only** its per-shard buffer.  No global ``_Run``/cache/graph/
metrics state, no lock-table mutation.  Process workers are stricter
still: they live in another address space and see only the pickled
replica deltas (:func:`_process_worker` — a module-level target, per the
RPR004 spawn-safety discipline extended to this seam).  During the
classify phase the holder maps and live table are frozen (grants,
releases, commits, and aborts all happen in other phases), so
derivations of distinct sessions read disjoint-or-immutable state and
commute.

**Merge-barrier determinism argument.**  Output is byte-identical to the
serial reference at any worker count because

1. *derive is pure* on frozen inputs, so every session's decision is the
   same object-value regardless of which thread or process computes it
   or when (the process worker computes the same blocker set the lock
   table would return: its replica maps entities to effective holder
   modes, exactly the inputs of ``LockTable.blockers``, and the
   coordinator filters the reply against ``live`` just as ``derive``
   does);
2. *applies all run on the coordinator*, so no mutation races exist;
3. *apply order is unobservable*: per-session effects (state, accounting,
   accrual) touch only that session's entry; cross-session effects are
   commutative — set inserts, plain counter increments, per-name edge
   replacement in the waits-for graph (whose detection iterates via
   ``sorted``/``min``, never dict order, and whose cached-walk cuts
   compose to a position minimum in any order), and waiter-queue
   insertion order, which downstream feeds only set-adds and counters;
4. the only order-*observable* effect — the abort list — is canonicalized
   by the phase itself: ``_phase_classify`` sorts the collected aborts by
   session name before processing them, which is exactly the relative
   order the legacy fully-sorted sequence (and the naive engine's
   ``sorted(live)`` scan) produced.

The per-phase work counters (:class:`ExecutorStats`) live on the
executor, **not** in ``Metrics.work_summary()``: they describe how the
work was scheduled, not what work the engine did, and keeping them out
of the summary is what keeps ``SeedOutcome``s byte-identical across
``shard_workers``.  They surface as ``SimResult.executor_stats``.
Routing-level counters (``shard_classifications``, ``spill_causes``)
describe the partition; execution-site counters
(``coordinator_classifications``, ``worker_classifications``,
``spill_classifications`` and the ``spill_fraction`` derived from them)
are incremented where a derivation *actually ran*, so the reported spill
is the executed one, not a recount of the routing decision.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

from .admission import Decision, LOCK_WAIT, RUNNABLE

__all__ = [
    "ExecutorStats",
    "EXECUTOR_KINDS",
    "PROCESS_MIN_BATCH",
    "ParallelExecutor",
    "ProcessExecutor",
    "SerialExecutor",
    "ShardBuffer",
    "derive_slice",
    "executor_kind",
    "make_executor",
    "shard_phase",
]

#: The executor axis the benches sweep (``--executor``).
EXECUTOR_KINDS = ("serial", "thread", "process")

#: Smallest per-worker shippable batch worth an IPC round trip: a single
#: derivation costs a few microseconds while a pipe round trip costs
#: hundreds, so tiny slices (the common case in event-driven runs, which
#: average ~1 classification per tick) derive locally on the coordinator.
PROCESS_MIN_BATCH = 32

#: Start method for the persistent worker processes.  ``spawn`` is the
#: default because it proves the picklability contract (workers share
#: nothing with the parent); tests override this module constant to
#: ``fork`` where spawn's interpreter start-up would dominate.
PROCESS_START_METHOD = "spawn"


def shard_phase(fn: Callable) -> Callable:
    """Mark ``fn`` as a shard-phase callable: code that may run on a
    shard worker and must obey the shard-locality contract (reads frozen
    phase inputs, writes only its per-shard buffer).  The marker is what
    lint rule RPR006 keys on; the whole-program rules RPR007/RPR008 use
    it to seed the set of worker roots whose transitive effect closure
    must stay shard-local."""
    fn.__shard_phase__ = True
    return fn


class ShardBuffer:
    """One shard's output of the classify phase: the derived decisions,
    in slice (sorted-name) order, awaiting coordinator apply at the merge
    barrier.  ``shard`` is -1 for the global slice."""

    __slots__ = ("shard", "decisions")

    def __init__(self, shard: int, decisions: Optional[list] = None) -> None:
        self.shard = shard
        self.decisions: List[Tuple[object, object]] = (
            decisions if decisions is not None else []
        )


@shard_phase
def derive_slice(derive, live, names, buf):
    """Derive one slice's classifications into its buffer — the whole
    body of a thread worker's phase-2 contribution.  Pure with respect to
    global state: ``derive`` is :meth:`Classifier.derive` (read-only on
    frozen phase inputs) and the only write target is ``buf``."""
    for name in names:
        entry = live[name]
        buf.decisions.append((entry, derive(entry)))
    return buf


def _process_worker(conn) -> None:
    """Persistent process-worker loop (module-level so the ``spawn``
    start method can import it — the RPR004 discipline).  Owns the
    replica of its shards' frozen classify inputs:

    * ``holders`` — entity → {txn: effective LockMode}, patched by the
      per-tick holder deltas (``None`` clears an entity);
    * ``snaps`` — session name → ``(entity, mode)`` for a pending lock
      step or ``None`` for a trivially-runnable step, patched by snapshot
      deltas.

    Each request is ``(holder_delta, snap_delta, names)``; the reply is a
    list aligned with ``names``: ``None`` for a trivial RUNNABLE, else
    the (possibly empty) tuple of blockers of the pending lock — exactly
    what ``LockTable.blockers`` would have returned, minus the
    liveness filter the coordinator re-applies.  A ``None`` request shuts
    the worker down."""
    from ..core.operations import LockMode

    exclusive = LockMode.EXCLUSIVE
    holders: Dict[object, Dict[str, object]] = {}
    snaps: Dict[str, Optional[Tuple[object, object]]] = {}
    while True:
        try:
            msg = pickle.loads(conn.recv_bytes())
        except EOFError:
            break
        if msg is None:
            break
        holder_delta, snap_delta, names = msg
        for entity, entry in holder_delta.items():
            if entry is None:
                holders.pop(entity, None)
            else:
                holders[entity] = entry
        snaps.update(snap_delta)
        reply: List[Optional[Tuple[str, ...]]] = []
        for name in names:
            snap = snaps[name]
            if snap is None:
                reply.append(None)
                continue
            entity, mode = snap
            held = holders.get(entity)
            if held:
                reply.append(tuple(
                    other
                    for other, held_mode in held.items()
                    if other != name
                    and (mode is exclusive or held_mode is exclusive)
                ))
            else:
                reply.append(())
        conn.send_bytes(pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL))
    conn.close()


def _check_spawnable_worker() -> None:
    """Fail fast where ``spawn`` cannot work (same hazard as
    ``repro.sim.grid._check_spawnable_main``, duplicated here because the
    kernel layer must not import the grid driver): re-importing
    ``__main__`` in each worker requires its ``__file__``, when it has
    one, to exist on disk.  ``fork`` inherits the parent image and never
    re-imports, so the hazard does not apply."""
    if PROCESS_START_METHOD == "fork":
        return
    main_module = sys.modules.get("__main__")
    if main_module is None or getattr(main_module, "__spec__", None) is not None:
        return
    main_file = getattr(main_module, "__file__", None)
    if main_file is not None and not os.path.exists(main_file):
        raise RuntimeError(
            f"executor='process' uses the {PROCESS_START_METHOD!r} start "
            f"method, which re-imports __main__ in every worker — "
            f"impossible here (__main__.__file__ is {main_file!r}, which "
            f"does not exist; typically a stdin/heredoc script).  Run from "
            f"a real script or use executor='thread'."
        )


class ExecutorStats:
    """Per-phase work counters: how the classify work was partitioned and
    scheduled.  Deliberately outside ``Metrics.work_summary()`` (see the
    module docstring)."""

    def __init__(self) -> None:
        #: Classifications routed to each shard slice (grown on demand).
        self.shard_classifications: List[int] = []
        #: Routed-to-global classifications by cause (admission / dynamic
        #: / entity_less; see ``AdmissionCache.route``).
        self.spill_causes: Dict[str, int] = {}
        #: Global-slice classifications the executor *actually executed*
        #: on the coordinator (the executed twin of the routing tally).
        self.spill_classifications: int = 0
        #: Derivations executed on the coordinator (global slice plus any
        #: shard slices the executor chose not to fan out).
        self.coordinator_classifications: int = 0
        #: Derivations executed on workers (threads or processes).
        self.worker_classifications: int = 0
        #: Ticks that ran a classify phase with a non-empty check set.
        self.classify_ticks: int = 0
        #: Ticks where at least one shard slice was fanned out to workers.
        self.parallel_ticks: int = 0
        #: Futures/replies joined at merge barriers (one per fanned-out
        #: slice or shipped worker message).
        self.barrier_waits: int = 0
        #: Process executor only: messages shipped to workers and their
        #: total pickled payload/reply bytes.
        self.ipc_round_trips: int = 0
        self.delta_bytes: int = 0
        self.reply_bytes: int = 0

    def count_slices(self, slices, global_slice, spill=None) -> None:
        """Account one tick's routing partition (who was sliced where —
        execution-site counters are incremented by the executors where
        the derivations actually run)."""
        if len(self.shard_classifications) < len(slices):
            self.shard_classifications.extend(
                [0] * (len(slices) - len(self.shard_classifications))
            )
        nonempty = bool(global_slice)
        for shard, names in enumerate(slices):
            if names:
                nonempty = True
                self.shard_classifications[shard] += len(names)
        if spill:
            for cause, count in spill.items():
                self.spill_causes[cause] = (
                    self.spill_causes.get(cause, 0) + count
                )
        if nonempty:
            self.classify_ticks += 1

    def as_dict(self) -> Dict[str, object]:
        sharded = sum(self.shard_classifications)
        executed = self.coordinator_classifications + self.worker_classifications
        return {
            "classify_ticks": self.classify_ticks,
            "parallel_ticks": self.parallel_ticks,
            "barrier_waits": self.barrier_waits,
            "shard_classifications": list(self.shard_classifications),
            "sharded_classifications": sharded,
            "coordinator_classifications": self.coordinator_classifications,
            "worker_classifications": self.worker_classifications,
            "spill_classifications": self.spill_classifications,
            "spill_causes": {
                k: self.spill_causes[k] for k in sorted(self.spill_causes)
            },
            "spill_fraction": (
                self.spill_classifications / executed if executed else 0.0
            ),
            "ipc_round_trips": self.ipc_round_trips,
            "delta_bytes": self.delta_bytes,
            "reply_bytes": self.reply_bytes,
        }


class SerialExecutor:
    """The byte-identical reference: merge the slices back into the
    legacy fully-sorted check sequence and run the interleaved
    derive+apply (:meth:`Classifier.classify`) per session."""

    kind = "serial"
    shard_workers = 0

    def __init__(self) -> None:
        self.stats = ExecutorStats()

    def bind_table(self, table) -> None:
        """Serial and thread executors read the live lock table directly;
        only the process executor needs delta extraction."""

    def run_classify(self, classifier, live, slices, global_slice, aborts,
                     spill=None):
        stats = self.stats
        stats.count_slices(slices, global_slice, spill)
        parts = [names for names in slices if names]
        if global_slice:
            parts.append(global_slice)
        # Every slice arrives in sorted order, so a lone non-empty slice
        # (the rule at ``shards=1``) already is the legacy check sequence;
        # only several slices need merging back into it.
        merged = parts[0] if len(parts) == 1 else sorted(
            n for names in parts for n in names
        )
        stats.coordinator_classifications += len(merged)
        stats.spill_classifications += len(global_slice)
        for name in merged:
            classifier.classify(live[name], aborts)

    def snapshot(self) -> Dict[str, object]:
        return {
            "executor": self.kind,
            "shard_workers": self.shard_workers,
            **self.stats.as_dict(),
        }

    def shutdown(self) -> None:
        pass


class ParallelExecutor:
    """Fan shard slices out to a thread pool for the pure derive half,
    join at the deterministic merge barrier, apply in shard-index order
    (global slice last) on the coordinator.  Byte-identical to
    :class:`SerialExecutor` at any worker count (see the module
    docstring's determinism argument, and ``tests/test_executor.py``)."""

    kind = "thread"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.shard_workers = workers
        self.stats = ExecutorStats()
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="shard"
        )

    def bind_table(self, table) -> None:
        pass

    def run_classify(self, classifier, live, slices, global_slice, aborts,
                     spill=None):
        stats = self.stats
        stats.count_slices(slices, global_slice, spill)
        buffers: List[ShardBuffer] = []
        futures = []
        for shard, names in enumerate(slices):
            if not names:
                continue
            buf = ShardBuffer(shard=shard)
            buffers.append(buf)
            stats.worker_classifications += len(names)
            futures.append(
                self._pool.submit(
                    derive_slice, classifier.derive, live, names, buf
                )
            )
        # The global slice (entity-less / cross-shard-channel sessions)
        # derives on the coordinator.
        global_buf = ShardBuffer(shard=-1)
        derive_slice(classifier.derive, live, global_slice, global_buf)
        stats.coordinator_classifications += len(global_slice)
        stats.spill_classifications += len(global_slice)
        if futures:
            stats.parallel_ticks += 1
            for future in futures:
                future.result()  # merge barrier; re-raises worker errors
                stats.barrier_waits += 1
        for buf in buffers:  # shard-index order (built in enumerate order)
            for entry, decision in buf.decisions:
                classifier.apply(entry, decision, aborts)
        for entry, decision in global_buf.decisions:
            classifier.apply(entry, decision, aborts)

    def snapshot(self) -> Dict[str, object]:
        return {
            "executor": self.kind,
            "shard_workers": self.shard_workers,
            **self.stats.as_dict(),
        }

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)


class ProcessExecutor:
    """Persistent process-backed shard workers with replica deltas.

    ``N`` worker processes are created lazily (once per simulation, at
    the first tick that ships work) and live until :meth:`shutdown`.
    Worker ``w`` owns shards ``{s : s % N == w}`` and keeps a replica of
    their frozen classify inputs — effective-mode holder maps plus
    per-session pending-step snapshots — patched by compact per-tick
    deltas (only entities whose holder set changed since the last ship,
    only sessions whose snapshot changed).  The coordinator:

    1. drains the lock table's changed-entity set into per-worker pending
       delta maps (cheap: the table records a ``set.add`` per mutation,
       and the drain runs only on ticks that actually ship);
    2. partitions each shard slice into *shippable* names (no admission
       call, no declared dependencies — the derive reads only the
       snapshot and the holder map) and coordinator-local ones;
    3. ships each worker whose shippable batch reaches
       :data:`PROCESS_MIN_BATCH` one message, derives everything else
       locally while the workers compute, then collects replies and
       reconstructs :class:`~repro.sim.admission.Decision` values that
       are equal by construction to what ``Classifier.derive`` returns;
    4. applies everything at the usual merge barrier in shard-index
       order, global slice last.

    Byte-identical to the serial reference by the module docstring's
    argument; the delta/IPC work counters (``delta_bytes``,
    ``ipc_round_trips``) record what the replica protocol cost."""

    kind = "process"

    def __init__(self, workers: int, min_batch: Optional[int] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.shard_workers = workers
        self.min_batch = (
            min_batch if min_batch is not None else PROCESS_MIN_BATCH
        )
        self.stats = ExecutorStats()
        self._table = None
        self._procs: List[object] = []
        self._conns: List[object] = []
        #: Per-worker pending holder deltas (entity -> replica entry or
        #: None), flushed into the next message shipped to that worker.
        self._pending: List[Dict[object, object]] = [
            {} for _ in range(workers)
        ]
        #: Per-worker snapshot cache mirroring the worker's ``snaps`` —
        #: only changed entries ride in the snap delta.
        self._snaps: List[Dict[str, object]] = [{} for _ in range(workers)]

    # -- replica plumbing ----------------------------------------------

    def bind_table(self, table) -> None:
        """Attach the run's lock table and switch on its changed-entity
        tracking (must happen before any grant so the first drain
        bootstraps complete replicas)."""
        self._table = table
        table.enable_delta_tracking()

    def _ensure_started(self) -> None:
        if self._procs:
            return
        _check_spawnable_worker()
        ctx = multiprocessing.get_context(PROCESS_START_METHOD)
        for _ in range(self.shard_workers):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_process_worker, args=(child,), daemon=True
            )
            proc.start()
            child.close()
            self._procs.append(proc)
            self._conns.append(parent)

    def _drain_table_delta(self) -> None:
        """Distribute the table's holder changes since the last drain
        into the per-worker pending maps (latest snapshot wins)."""
        table = self._table
        if table is None:
            return
        delta = table.take_holder_delta()
        if not delta:
            return
        workers = self.shard_workers
        shard_of = table.shard_of
        pending = self._pending
        for entity, entry in delta.items():
            pending[shard_of(entity) % workers][entity] = entry

    # -- classify ------------------------------------------------------

    @staticmethod
    def _shippable(entry) -> bool:
        """Whether the session's derive reads only replicated inputs: no
        admission verdict, no dependency declaration (both read shared
        policy context, which stays coordinator-side)."""
        return not (entry.needs_admission or entry.tracks_deps)

    @staticmethod
    def _snap(entry):
        """The worker-side derive input for a shippable session:
        ``(entity, mode)`` of a pending lock step, ``None`` for anything
        trivially runnable (data/unlock/structural steps)."""
        step = entry.session.peek()
        if step is not None and step.is_lock and step.lock_mode is not None:
            return (step.entity, step.lock_mode)
        return None

    def _decision(self, name, snap, blockers, live) -> Decision:
        """Reconstruct the Decision ``Classifier.derive`` would have
        produced for a shippable session from the worker's reply."""
        if blockers is None:
            return Decision(name, RUNNABLE)
        entity, mode = snap
        if blockers:
            return Decision(
                name,
                LOCK_WAIT,
                edges={b for b in blockers if b in live},
                entity=entity,
                mode=mode,
                blockers_queried=True,
            )
        return Decision(
            name, RUNNABLE, entity=entity, watch=True, blockers_queried=True
        )

    def run_classify(self, classifier, live, slices, global_slice, aborts,
                     spill=None):
        stats = self.stats
        stats.count_slices(slices, global_slice, spill)
        workers = self.shard_workers
        # Partition each shard slice into shippable / coordinator-local
        # names, grouped by owning worker.
        ship: List[List[Tuple[int, str]]] = [[] for _ in range(workers)]
        local: Dict[str, object] = {}
        for shard, names in enumerate(slices):
            if not names:
                continue
            bucket = ship[shard % workers]
            for name in names:
                entry = live[name]
                if self._shippable(entry):
                    bucket.append((shard, name))
                else:
                    local[name] = None
        shipping = [
            w for w in range(workers) if len(ship[w]) >= self.min_batch
        ]
        shipped: Dict[str, object] = {}
        if shipping:
            self._ensure_started()
            self._drain_table_delta()
            stats.parallel_ticks += 1
        for w in shipping:
            snap_delta: Dict[str, object] = {}
            cache = self._snaps[w]
            names: List[str] = []
            for shard, name in ship[w]:
                snap = self._snap(live[name])
                names.append(name)
                shipped[name] = snap
                if cache.get(name, _MISSING) != snap:
                    cache[name] = snap
                    snap_delta[name] = snap
            payload = pickle.dumps(
                (self._pending[w], snap_delta, names),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            self._pending[w] = {}
            self._conns[w].send_bytes(payload)
            stats.ipc_round_trips += 1
            stats.delta_bytes += len(payload)
        # Names not shipped (under-threshold workers) derive locally too.
        for w in range(workers):
            if w not in shipping:
                for _, name in ship[w]:
                    local[name] = None
        # Coordinator-side derives overlap the workers' computation.
        for name in local:
            local[name] = classifier.derive(live[name])
        global_buf = [
            (live[n], classifier.derive(live[n])) for n in global_slice
        ]
        stats.coordinator_classifications += len(local) + len(global_slice)
        stats.spill_classifications += len(global_slice)
        # Merge barrier: collect replies, reconstruct decisions.
        for w in shipping:
            raw = self._conns[w].recv_bytes()
            stats.reply_bytes += len(raw)
            stats.barrier_waits += 1
            reply = pickle.loads(raw)
            stats.worker_classifications += len(reply)
            for (_, name), blockers in zip(ship[w], reply):
                local[name] = self._decision(
                    name, shipped[name], blockers, live
                )
        # Apply in shard-index order, global slice last.
        for names in slices:
            for name in names:
                classifier.apply(live[name], local[name], aborts)
        for entry, decision in global_buf:
            classifier.apply(entry, decision, aborts)

    def snapshot(self) -> Dict[str, object]:
        return {
            "executor": self.kind,
            "shard_workers": self.shard_workers,
            **self.stats.as_dict(),
        }

    def shutdown(self) -> None:
        conns, procs = self._conns, self._procs
        self._conns, self._procs = [], []
        sentinel = pickle.dumps(None)
        for conn in conns:
            try:
                conn.send_bytes(sentinel)
            except (BrokenPipeError, OSError):
                pass
        for proc in procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
        for conn in conns:
            conn.close()


#: Sentinel distinguishing "never snapshotted" from a ``None`` snapshot.
_MISSING = object()


def executor_kind(shard_workers: int, kind: str = "thread") -> str:
    """The kind of executor :func:`make_executor` builds for this request
    — what a run reports as ``executor_stats["executor"]``, and what an
    artifact must record: without workers every request runs serial."""
    return "serial" if shard_workers == 0 else kind


def make_executor(shard_workers: int, kind: str = "thread",
                  min_batch: Optional[int] = None):
    """``shard_workers=0`` (or ``kind="serial"``) → the serial reference;
    ``N>=1`` → a ``kind`` executor ("thread" → :class:`ParallelExecutor`
    over an ``N``-thread pool, "process" → :class:`ProcessExecutor` over
    ``N`` persistent worker processes)."""
    if shard_workers < 0:
        raise ValueError(f"shard_workers must be >= 0, got {shard_workers}")
    if kind not in EXECUTOR_KINDS:
        raise ValueError(
            f"unknown executor {kind!r}; expected one of {EXECUTOR_KINDS}"
        )
    kind = executor_kind(shard_workers, kind)
    if kind == "serial":
        return SerialExecutor()
    if kind == "process":
        return ProcessExecutor(shard_workers, min_batch=min_batch)
    return ParallelExecutor(shard_workers)
