"""Closed-loop load generator for the asyncio lock service.

The benchmark owns this generator: the service receives only the request
lines it produces.  One process, one thread, one event loop.  ``K``
in-process connections (``memory_pair``) are served by
``LockService.handle_client``; ``M`` sessions share each connection and
are told apart by request id, with one demultiplexing reader task per
connection (``ServiceClient`` allows a single reader, so the generator
brings its own).  A session sends its next request only after the reply
to the previous one — and, for a ``blocked`` acquire, after its ``wake``
event — so a slow service receives less load.

The client side encodes and decodes with ``json`` directly rather than
``repro.service.protocol``, so the traced pass attributes protocol time
to the server alone.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Actor that owns the anchor transaction every cross-actor probe targets.
ANCHOR_ACTOR = "anchor-owner"
ANCHOR_TXN = "anchor"
#: Requests of one scripted transaction: begin, 3 acquires, locks, commit.
REQUESTS_PER_TXN = 6
#: Requests the untimed anchor connection sends (begin + commit).
ANCHOR_REQUESTS = 2


@dataclass(frozen=True)
class TxnPlan:
    """One scripted transaction: its name, the ``(entity, mode)`` pairs it
    acquires in ascending entity order, and whether it also sends the
    cross-actor ``release`` probe that must be denied."""

    name: str
    locks: Tuple[Tuple[str, str], ...]
    probe: bool


@dataclass(frozen=True)
class ServicePlan:
    """Everything one repetition sends: ``sessions[k][m]`` is the list of
    transactions session ``m`` of connection ``k`` runs in order."""

    sessions: Tuple[Tuple[Tuple[TxnPlan, ...], ...], ...]

    @property
    def connections(self) -> int:
        return len(self.sessions)

    @property
    def sessions_per_connection(self) -> int:
        return len(self.sessions[0])

    @property
    def txns(self) -> int:
        return sum(len(s) for conn in self.sessions for s in conn)

    @property
    def probes(self) -> int:
        return sum(
            t.probe for conn in self.sessions for s in conn for t in s
        )

    @property
    def requests(self) -> int:
        """Requests sent inside the timed window."""
        return self.txns * REQUESTS_PER_TXN + self.probes

    def modes(self) -> Dict[Tuple[str, str], str]:
        """``(txn, repr(entity)) -> mode`` — the audit log renders
        entities with ``repr`` and does not record the mode."""
        return {
            (t.name, repr(entity)): mode
            for conn in self.sessions
            for s in conn
            for t in s
            for entity, mode in t.locks
        }


def make_plan(
    seed: int,
    *,
    connections: int,
    sessions: int,
    txns_per_session: int,
    entities: int,
    exclusive_prob: float,
    probe_every: int,
) -> ServicePlan:
    """The seeded request scripts.  Entities are acquired in ascending
    order, so contention shows up as blocking and never as deadlock."""
    rng = random.Random(seed)
    plan = []
    for k in range(connections):
        conn = []
        for m in range(sessions):
            script = []
            for i in range(txns_per_session):
                picks = sorted(rng.sample(range(entities), 3))
                locks = tuple(
                    (f"e{n}", "X" if rng.random() < exclusive_prob else "S")
                    for n in picks
                )
                probe = bool(probe_every) and i % probe_every == probe_every - 1
                script.append(TxnPlan(f"c{k}s{m}t{i}", locks, probe))
            conn.append(tuple(script))
        plan.append(tuple(conn))
    return ServicePlan(tuple(plan))


@dataclass
class ServiceOutcome:
    """What one repetition observed, client side and from the service's
    own audit log and kernel."""

    wall_s: float
    requests: int
    #: Client-side round trips in ms, per op (a blocked acquire is timed
    #: through its wake).
    latency_ms: Dict[str, List[float]]
    #: Blocked reply -> wake, in ms.
    parked_wait_ms: List[float]
    acquires: int
    blocked: int
    woken: int
    denied: int
    parked_peak: int
    audit_entries: int
    audit_sha256: str
    #: Requests whose outcome differs from the one the generator expected.
    unexpected: int
    #: Correctness-gate violations (empty when the repetition is correct).
    violations: List[str] = field(default_factory=list)


class _Connection:
    """Client side of one multiplexed connection."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.next_id = 0
        self.replies: Dict[int, asyncio.Future] = {}
        self.wakes: Dict[int, asyncio.Future] = {}

    def send(self, message: Dict[str, object]) -> int:
        rid = self.next_id
        self.next_id += 1
        message["id"] = rid
        self.writer.write(
            (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")
        )
        return rid

    async def demux(self) -> None:
        """Route each line to the session waiting for it, by request id."""
        while True:
            line = await self.reader.readline()
            if not line:
                return
            message = json.loads(line)
            waiting = self.wakes if "event" in message else self.replies
            future = waiting.pop(message.get("id"), None)
            if future is not None:
                future.set_result(message)


class _Run:
    """Mutable tallies of one repetition, shared by its sessions."""

    def __init__(self) -> None:
        self.latency_ns: Dict[str, List[int]] = {
            "begin": [], "acquire": [], "locks": [], "commit": [], "release": []
        }
        self.parked_wait_ns: List[int] = []
        self.blocked = 0
        self.woken = 0
        self.denied = 0
        self.unexpected = 0
        self.parked = 0
        self.parked_peak = 0
        self.finished_sessions = 0


async def _request(
    conn: _Connection, run: _Run, loop, op: str, expect: str, **fields
) -> Dict[str, object]:
    reply_future = loop.create_future()
    message = {"op": op, **fields}
    start = time.perf_counter_ns()
    rid = conn.send(message)
    conn.replies[rid] = reply_future
    if op == "acquire":
        # Registered before the reply can arrive: the kernel may fire the
        # wake before the ``blocked`` reply is written.
        wake_future = loop.create_future()
        conn.wakes[rid] = wake_future
    reply = await reply_future
    outcome = reply.get("outcome")
    if op == "acquire":
        if outcome == "blocked":
            run.blocked += 1
            run.parked += 1
            run.parked_peak = max(run.parked_peak, run.parked)
            parked_at = time.perf_counter_ns()
            wake = await wake_future
            run.parked -= 1
            run.woken += 1
            run.parked_wait_ns.append(time.perf_counter_ns() - parked_at)
            outcome = wake.get("outcome")
        else:
            del conn.wakes[rid]
    run.latency_ns[op].append(time.perf_counter_ns() - start)
    if outcome == "denied":
        run.denied += 1
    if outcome != expect:
        run.unexpected += 1
    return reply


async def _session(
    conn: _Connection, run: _Run, loop, script: Tuple[TxnPlan, ...]
) -> None:
    for txn in script:
        await _request(conn, run, loop, "begin", "granted", txn=txn.name)
        for entity, mode in txn.locks:
            await _request(
                conn, run, loop, "acquire", "granted",
                txn=txn.name, entity=entity, mode=mode,
            )
        await _request(conn, run, loop, "locks", "granted", txn=txn.name)
        if txn.probe:
            await _request(
                conn, run, loop, "release", "denied",
                txn=ANCHOR_TXN, entity=txn.locks[0][0],
            )
        await _request(conn, run, loop, "commit", "granted", txn=txn.name)
    run.finished_sessions += 1


async def _open(service, actor: str, tasks: List[asyncio.Task]) -> _Connection:
    """Connect through ``handle_client`` and complete the handshake."""
    from repro.service.transport import memory_pair

    (c_reader, c_writer), (s_reader, s_writer) = memory_pair()
    tasks.append(
        asyncio.ensure_future(service.handle_client(s_reader, s_writer))
    )
    conn = _Connection(c_reader, c_writer)
    conn.send({"op": "hello", "actor": actor})
    hello = json.loads(await c_reader.readline())
    if hello.get("outcome") != "granted":
        raise RuntimeError(f"handshake refused for {actor!r}: {hello}")
    return conn


async def _drive(plan: ServicePlan) -> ServiceOutcome:
    from repro.service import LockService

    loop = asyncio.get_running_loop()
    service = LockService(max_inflight=plan.sessions_per_connection)
    server_tasks: List[asyncio.Task] = []
    run = _Run()

    # Untimed: the anchor transaction the probes address, owned by an
    # actor none of the load connections is bound to.
    anchor = await _open(service, ANCHOR_ACTOR, server_tasks)
    anchor_demux = asyncio.ensure_future(anchor.demux())
    anchor_run = _Run()
    await _request(anchor, anchor_run, loop, "begin", "granted", txn=ANCHOR_TXN)
    await _request(anchor, anchor_run, loop, "commit", "granted", txn=ANCHOR_TXN)
    anchor.writer.close()
    await anchor_demux

    conns = [
        await _open(service, f"c{k}", server_tasks)
        for k in range(plan.connections)
    ]
    demuxes = [asyncio.ensure_future(c.demux()) for c in conns]

    start = time.perf_counter()
    await asyncio.gather(*(
        _session(conn, run, loop, script)
        for conn, scripts in zip(conns, plan.sessions)
        for script in scripts
    ))
    wall_s = time.perf_counter() - start

    live_before_drain = service.kernel.live_txns()
    await service.drain()
    for conn in conns:
        conn.writer.close()
    await asyncio.gather(*demuxes)
    await asyncio.gather(*server_tasks)

    requests = sum(len(v) for v in run.latency_ns.values())
    entries = service.audit.entries()
    outcome = ServiceOutcome(
        wall_s=wall_s,
        requests=requests,
        latency_ms={
            op: [ns / 1e6 for ns in values]
            for op, values in run.latency_ns.items()
        },
        parked_wait_ms=[ns / 1e6 for ns in run.parked_wait_ns],
        acquires=len(run.latency_ns["acquire"]),
        blocked=run.blocked,
        woken=run.woken,
        denied=run.denied,
        parked_peak=run.parked_peak,
        audit_entries=len(entries),
        audit_sha256=_audit_sha256(entries),
        unexpected=run.unexpected + anchor_run.unexpected,
    )
    outcome.violations = _gate(
        plan, run, outcome, entries, live_before_drain
    )
    return outcome


def _audit_sha256(entries) -> str:
    """Digest of the service's serial order (the audit sequence)."""
    digest = hashlib.sha256()
    for e in entries:
        digest.update(
            f"{e.op}|{e.actor}|{e.txn}|{e.entity}|{e.decision}\n".encode()
        )
    return digest.hexdigest()


def replay_violations(entries, modes: Dict[Tuple[str, str], str]) -> List[str]:
    """Replay the audit log's granted acquire / grant / release / commit /
    abort entries and report every moment two incompatible holders
    coexist (S is compatible with S; nothing else is)."""
    holders: Dict[str, Dict[str, str]] = {}  # entity -> {txn: mode}
    holdings: Dict[str, List[str]] = {}  # txn -> entities it was granted
    found: List[str] = []
    for e in entries:
        if e.decision != "granted":
            continue
        if e.op in ("acquire", "grant"):
            mode = modes[(e.txn, e.entity)]
            held = holders.setdefault(e.entity, {})
            for other, other_mode in held.items():
                if other != e.txn and "X" in (mode, other_mode):
                    found.append(
                        f"seq {e.seq}: {e.txn} granted {mode} on {e.entity} "
                        f"while {other} holds {other_mode}"
                    )
            held[e.txn] = mode
            holdings.setdefault(e.txn, []).append(e.entity)
        elif e.op == "release":
            holders.get(e.entity, {}).pop(e.txn, None)
        elif e.op in ("commit", "abort"):
            for entity in holdings.pop(e.txn, ()):
                holders[entity].pop(e.txn, None)
    return found


def _gate(plan, run, outcome, entries, live_before_drain) -> List[str]:
    """The per-repetition correctness checks for a service workload."""
    violations: List[str] = []
    sessions = plan.connections * plan.sessions_per_connection
    if run.finished_sessions != sessions:
        violations.append(
            f"{run.finished_sessions} of {sessions} sessions finished"
        )
    if outcome.requests != plan.requests:
        violations.append(
            f"sent {outcome.requests} requests, plan has {plan.requests}"
        )
    if outcome.denied != plan.probes:
        violations.append(
            f"{outcome.denied} denied replies for {plan.probes} probes"
        )
    if outcome.woken != outcome.blocked:
        violations.append(
            f"{outcome.blocked} blocked acquires, {outcome.woken} wakes"
        )
    if live_before_drain:
        violations.append(
            f"{len(live_before_drain)} transactions live before drain"
        )
    hellos = plan.connections + 1  # the load connections plus the anchor's
    expected_audit = (
        outcome.requests + ANCHOR_REQUESTS + hellos + outcome.woken
    )
    if outcome.audit_entries != expected_audit:
        violations.append(
            f"audit has {outcome.audit_entries} entries, expected "
            f"{expected_audit} (requests + hellos + wakes)"
        )
    violations.extend(replay_violations(entries, plan.modes())[:5])
    return violations


def run_plan(plan: ServicePlan) -> ServiceOutcome:
    """One repetition: a fresh service, the whole plan, the gate."""
    return asyncio.run(_drive(plan))


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample (``q`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
