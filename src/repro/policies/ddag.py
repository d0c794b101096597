"""The Dynamic Directed Acyclic Graph (DDAG) locking policy — Section 4.

The database is a rooted DAG whose nodes *and* edges are lockable entities;
transactions traverse it performing ACCESS, INSERT and DELETE operations.
The locking rules (exclusive locks only, as in the paper's version):

* **L1** — before any INSERT/DELETE/ACCESS on a node ``A`` (an edge
  ``(A, B)``), lock ``A`` (both ``A`` and ``B``).
* **L2** — a node that is being inserted can be locked at any time.
* **L3** — a node can be locked by a transaction at most once.
* **L4** — a transaction may begin by locking any node.
* **L5** — other than the first node, a node can be locked only if **all its
  predecessors in the present state of G** have been locked in the past and
  the transaction **presently holds** a lock on at least one of them.

Rule L5 consults the *present* graph: a concurrent edge insertion can
retroactively invalidate a transaction's plan, forcing it to abort and
restart from the new dominator (the paper's Fig. 3 walk-through).  The
online :class:`DdagSession` reproduces exactly that behaviour through its
admission check.

Implementation notes kept faithful to the model of Section 2:

* The paper's L1 locks only the *endpoint nodes* for edge operations; the
  core model's well-formedness additionally wants the written entity itself
  exclusively locked, so sessions wrap each edge INSERT/DELETE in a
  lock/unlock of the edge entity.  Both endpoints being exclusively held
  makes this lock uncontended; it adds no new conflicts beyond those through
  the endpoints.
* Deleted nodes are never reinserted (the standing assumption of Section 4),
  enforced via tombstones in the shared context.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.operations import Operation
from ..core.schedules import Schedule
from ..core.steps import Entity, Step
from ..exceptions import PolicyViolation
from ..graphs.dag import RootedDag
from .base import (
    Access,
    AdmissionResult,
    Admission,
    DeleteEdge,
    DeleteNode,
    InsertEdge,
    InsertNode,
    Intent,
    LockingPolicy,
    PolicyContext,
    PolicySession,
    PROCEED,
    access_steps,
    edge_entity,
)


def _is_edge_entity(entity: Entity) -> bool:
    return isinstance(entity, tuple) and len(entity) == 3 and entity[0] == "edge"


def ddag_node_channel(node: Entity) -> Tuple[str, Entity]:
    """Invalidation channel for rule L5's view of ``node``: its existence
    and its in-edge set in the present graph.  An edge insert into
    ``node`` notifies it; why no other graph mutation needs to is in
    :meth:`DdagSession.admission_dependencies`."""
    return ("ddag-node", node)


class Unlock:
    """An explicit unlock intent, for scripting the paper's exact traces.

    With ``auto_release=False`` sessions release locks only where the intent
    script says so (plus a final drain at commit), which is how the Fig. 3
    and Fig. 4 walk-throughs are reproduced step for step.
    """

    def __init__(self, entity: Entity):
        self.entity = entity

    def __repr__(self) -> str:
        return f"Unlock({self.entity!r})"


class DdagContext(PolicyContext):
    """Shared state: the live database graph plus tombstones."""

    def __init__(self, dag: RootedDag, auto_release: bool = True):
        self.dag = dag
        self.dag.strict = False
        self.auto_release = auto_release
        self.tombstones: Set[Entity] = set()

    def begin(self, name: str, intents: Sequence[Intent]) -> "DdagSession":
        return DdagSession(name, self, intents, auto_release=self.auto_release)


class DdagSession(PolicySession):
    """Online DDAG state machine for one transaction."""

    def __init__(
        self,
        name: str,
        context: DdagContext,
        intents: Sequence[Intent],
        auto_release: bool = True,
    ):
        super().__init__(name)
        self.context = context
        self.intents: List[Intent] = list(intents)
        self.auto_release = auto_release
        self.cursor = 0
        self.queue: List[Step] = []
        self.locked_past: Set[Entity] = set()
        self.held: Set[Entity] = set()
        self.inserting: Set[Entity] = set()
        self._structural = False
        self._draining = False

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _expand(self, intent: Intent) -> List[Step]:
        """Turn the next intent into locked steps, against the present
        graph.  Raises :class:`PolicyViolation` for unservable intents."""
        dag = self.context.dag
        steps: List[Step] = []

        def lock_node(node: Entity, being_inserted: bool = False) -> None:
            if node in self.locked_past:
                if node not in self.held:
                    raise PolicyViolation(
                        "L3", f"{self.name} needs {node!r} again after unlocking it"
                    )
                return
            if being_inserted:
                self.inserting.add(node)
            steps.append(Step(Operation.LOCK_EXCLUSIVE, node))

        if isinstance(intent, Unlock):
            if intent.entity not in self.held:
                raise PolicyViolation(
                    "L1", f"{self.name} unlocks {intent.entity!r} which it does not hold"
                )
            steps.append(Step(Operation.UNLOCK_EXCLUSIVE, intent.entity))
            return steps

        if isinstance(intent, Access):
            lock_node(intent.entity)
            steps.extend(access_steps(intent.entity))
            return steps

        if isinstance(intent, InsertNode):
            if intent.node in self.context.tombstones:
                raise PolicyViolation(
                    "L2",
                    f"{self.name} reinserts deleted node {intent.node!r}; "
                    f"deleted entities may not be reinserted",
                )
            for p in intent.parents:
                if p not in self.held:
                    raise PolicyViolation(
                        "L1",
                        f"{self.name} inserts {intent.node!r} under unheld "
                        f"parent {p!r}",
                    )
            lock_node(intent.node, being_inserted=True)
            steps.append(Step(Operation.INSERT, intent.node))
            for p in intent.parents:
                e = edge_entity(p, intent.node)
                steps.append(Step(Operation.LOCK_EXCLUSIVE, e))
                steps.append(Step(Operation.INSERT, e))
                steps.append(Step(Operation.UNLOCK_EXCLUSIVE, e))
            return steps

        if isinstance(intent, InsertEdge):
            for end in (intent.u, intent.v):
                if end not in self.held:
                    raise PolicyViolation(
                        "L1",
                        f"{self.name} inserts edge ({intent.u!r}, {intent.v!r}) "
                        f"without holding {end!r}",
                    )
            e = edge_entity(intent.u, intent.v)
            steps.append(Step(Operation.LOCK_EXCLUSIVE, e))
            steps.append(Step(Operation.INSERT, e))
            steps.append(Step(Operation.UNLOCK_EXCLUSIVE, e))
            return steps

        if isinstance(intent, DeleteEdge):
            for end in (intent.u, intent.v):
                if end not in self.held:
                    raise PolicyViolation(
                        "L1",
                        f"{self.name} deletes edge ({intent.u!r}, {intent.v!r}) "
                        f"without holding {end!r}",
                    )
            # Holding both endpoints, no other transaction can delete the
            # edge before this one's DELETE executes.
            if not dag.graph.has_edge(intent.u, intent.v):
                raise PolicyViolation(
                    "L1",
                    f"{self.name} deletes edge ({intent.u!r}, {intent.v!r}) "
                    f"which is not in the graph",
                )
            e = edge_entity(intent.u, intent.v)
            steps.append(Step(Operation.LOCK_EXCLUSIVE, e))
            steps.append(Step(Operation.DELETE, e))
            steps.append(Step(Operation.UNLOCK_EXCLUSIVE, e))
            return steps

        if isinstance(intent, DeleteNode):
            if intent.node not in self.held:
                raise PolicyViolation(
                    "L1", f"{self.name} deletes unheld node {intent.node!r}"
                )
            if dag.graph.in_degree(intent.node) or dag.graph.out_degree(intent.node):
                raise PolicyViolation(
                    "L1",
                    f"{self.name} deletes node {intent.node!r} with incident "
                    f"edges; delete the edges first",
                )
            steps.append(Step(Operation.DELETE, intent.node))
            return steps

        raise PolicyViolation("L1", f"unsupported intent {intent!r}")

    def _auto_releases(self) -> List[Step]:
        """Nodes no longer needed: not accessed by a future intent and not a
        current-graph predecessor of a future, not-yet-locked entity."""
        if not self.auto_release:
            return []
        dag = self.context.dag
        future_nodes: Set[Entity] = set()
        for intent in self.intents[self.cursor :]:
            if isinstance(intent, Unlock):
                continue
            if isinstance(intent, Access):
                future_nodes.add(intent.entity)
            elif isinstance(intent, InsertNode):
                future_nodes.add(intent.node)
                future_nodes.update(intent.parents)
            elif isinstance(intent, DeleteNode):
                future_nodes.add(intent.node)
            elif isinstance(intent, (InsertEdge, DeleteEdge)):
                future_nodes.update((intent.u, intent.v))
        releases: List[Step] = []
        for node in sorted(self.held, key=repr):
            if _is_edge_entity(node):
                continue
            if node in future_nodes:
                continue
            needed_as_pred = any(
                target not in self.locked_past
                and target in dag.graph
                and node in dag.predecessors(target)
                for target in future_nodes
            )
            if not needed_as_pred:
                releases.append(Step(Operation.UNLOCK_EXCLUSIVE, node))
        return releases

    # ------------------------------------------------------------------
    # PolicySession protocol
    # ------------------------------------------------------------------

    def peek(self) -> Optional[Step]:
        while not self.queue:
            if self.cursor >= len(self.intents):
                if not self._draining:
                    self._draining = True
                    self.queue.extend(
                        Step(Operation.UNLOCK_EXCLUSIVE, e)
                        for e in sorted(self.held, key=repr)
                    )
                    continue
                return None
            intent = self.intents[self.cursor]
            self.cursor += 1
            self.queue.extend(self._expand(intent))
            self.queue.extend(self._auto_releases())
        return self.queue[0]

    def admission(self) -> AdmissionResult:
        """Re-validate the pending step against the **present** graph (the
        operative clause of rule L5)."""
        step = self.queue[0] if self.queue else None
        if step is None or not step.is_lock:
            return PROCEED
        node = step.entity
        if _is_edge_entity(node):
            return PROCEED  # implied lock; endpoints already held
        if node in self.inserting:
            return PROCEED  # L2
        if not self.locked_past:
            return PROCEED  # L4
        dag = self.context.dag
        if node not in dag.graph:
            return AdmissionResult(
                Admission.ABORT,
                reason=f"L5: node {node!r} no longer exists in the graph",
            )
        preds = dag.predecessors(node)
        if not preds.issubset(self.locked_past):
            missing = sorted(preds - self.locked_past, key=repr)
            return AdmissionResult(
                Admission.ABORT,
                reason=(
                    f"L5: {self.name} has not locked predecessors {missing} "
                    f"of {node!r} in the present graph"
                ),
            )
        if not preds & self.held:
            return AdmissionResult(
                Admission.ABORT,
                reason=(
                    f"L5: {self.name} holds no predecessor of {node!r} "
                    f"at lock time"
                ),
            )
        return PROCEED

    def admission_dependencies(self):
        """The L5 verdict for a pending node lock depends only on that
        node's existence and in-edges in the present graph; everything else
        the verdict reads (``locked_past``, ``held``, ``inserting``) is
        session-local and changes only when this session executes — which
        re-derives the cached classification anyway.

        Only an edge insert into the pending node ``N`` notifies its
        channel.  DDAG admission only proceeds or aborts, and an abort is
        acted on in the tick it is derived, so the only cached verdict is
        PROCEED: ``N`` exists, its predecessors are all in ``locked_past``
        and this session holds one of them, ``p``.  A new predecessor can
        break the second clause, hence the edge-insert notification.  No
        other mutation can flip the verdict:

        * *node insert* — adds no in-edge (each parent edge is its own,
          notified, step), so it can only make an absent ``N`` exist, and
          a verdict derived while ``N`` was absent was ABORT (an ``N``
          this session inserts is L2's, with no dependency);
        * *edge delete* — predecessors only shrink, so the subset clause
          holds; deleting ``(p, N)`` needs ``p`` locked (L1), and this
          session holds it exclusively until its own next step;
        * *node delete* — the deleter plans it only while ``N`` has no
          in-edge and holds ``N`` from then on, so none appears before the
          delete.  A PROCEED derived after the plan needed a held
          predecessor, and there is none; one derived before it keeps
          ``(p, N)`` in place, so the plan is refused."""
        step = self.queue[0] if self.queue else None
        if step is None or not step.is_lock:
            return ()
        node = step.entity
        if _is_edge_entity(node):
            return ()  # implied lock; endpoints already held
        if node in self.inserting:
            return ()  # L2: insertable at any time
        if not self.locked_past:
            return ()  # L4: the first lock is unconditional
        return (ddag_node_channel(node),)

    def executed(self) -> None:
        step = self.queue.pop(0)
        dag = self.context.dag
        if step.is_lock:
            self.locked_past.add(step.entity)
            self.held.add(step.entity)
        elif step.is_unlock:
            self.held.discard(step.entity)
        elif step.op is Operation.INSERT:
            self._structural = True
            if _is_edge_entity(step.entity):
                _, u, v = step.entity
                # On an acyclic graph u->v closes a cycle iff v already
                # reaches u, so the guard walks from v, not the whole DAG.
                assert u != v and not dag.graph.has_path(v, u), (
                    "workload created a cycle"
                )
                dag.graph.add_edge(u, v)
                self.context.notify_changed((ddag_node_channel(v),))
            else:
                dag.graph.add_node(step.entity)
        elif step.op is Operation.DELETE:
            self._structural = True
            if _is_edge_entity(step.entity):
                _, u, v = step.entity
                dag.graph.remove_edge(u, v)
            else:
                dag.graph.remove_node(step.entity)
                self.context.tombstones.add(step.entity)

    @property
    def has_structural_effects(self) -> bool:
        return self._structural


class DdagPolicy(LockingPolicy):
    """Factory for DDAG runs over a given rooted DAG."""

    name = "DDAG"

    def __init__(self, auto_release: bool = True):
        self.auto_release = auto_release

    def create_context(self, dag: Optional[RootedDag] = None, **kwargs) -> DdagContext:
        if dag is None:
            raise ValueError("DdagPolicy.create_context requires dag=RootedDag(...)")
        return DdagContext(dag, auto_release=self.auto_release)


# ----------------------------------------------------------------------
# Offline rule checker
# ----------------------------------------------------------------------


def check_ddag_schedule(
    schedule: Schedule, initial: RootedDag
) -> List[str]:
    """Verify that a recorded schedule obeys rules L1–L5 step by step.

    Replays the schedule against a copy of ``initial``, maintaining each
    transaction's lock history and the evolving graph; returns a list of
    violation descriptions (empty == compliant).  Used to validate simulator
    output and hand-written figure traces.
    """
    dag = initial.snapshot()
    dag.strict = False
    violations: List[str] = []
    locked_past: Dict[str, Set[Entity]] = {}
    held: Dict[str, Set[Entity]] = {}
    tombstones: Set[Entity] = set()

    for pos, event in enumerate(schedule.events):
        txn, step = event.txn, event.step
        past = locked_past.setdefault(txn, set())
        have = held.setdefault(txn, set())
        entity = step.entity
        if step.is_lock:
            if _is_edge_entity(entity):
                _, u, v = entity
                for end in (u, v):
                    if end not in have:
                        violations.append(
                            f"event {pos}: {txn} locks edge {entity!r} without "
                            f"holding endpoint {end!r} (L1)"
                        )
                have.add(entity)
                past.add(entity)
                continue
            if entity in past:
                violations.append(
                    f"event {pos}: {txn} locks node {entity!r} twice (L3)"
                )
            node_exists = entity in dag.graph
            first = not any(not _is_edge_entity(e) for e in past)
            if not first and node_exists:
                preds = dag.predecessors(entity)
                if not preds.issubset(past):
                    violations.append(
                        f"event {pos}: {txn} locks {entity!r} without having "
                        f"locked all present predecessors (L5)"
                    )
                elif preds and not preds & have:
                    violations.append(
                        f"event {pos}: {txn} locks {entity!r} while holding no "
                        f"predecessor (L5)"
                    )
            if not first and not node_exists and entity in tombstones:
                violations.append(
                    f"event {pos}: {txn} locks deleted node {entity!r} (L2)"
                )
            past.add(entity)
            have.add(entity)
        elif step.is_unlock:
            if entity not in have:
                violations.append(
                    f"event {pos}: {txn} unlocks {entity!r} which it does not hold"
                )
            have.discard(entity)
        else:
            if entity not in have:
                violations.append(
                    f"event {pos}: {txn} performs {step} without a lock (L1)"
                )
            if _is_edge_entity(entity):
                _, u, v = entity
                for end in (u, v):
                    if end not in have:
                        violations.append(
                            f"event {pos}: {txn} performs {step} without "
                            f"holding endpoint {end!r} (L1)"
                        )
                if step.op is Operation.INSERT:
                    dag.graph.add_edge(u, v)
                elif step.op is Operation.DELETE:
                    if dag.graph.has_edge(u, v):
                        dag.graph.remove_edge(u, v)
                    else:
                        violations.append(
                            f"event {pos}: {txn} deletes missing edge {entity!r}"
                        )
            else:
                if step.op is Operation.INSERT:
                    if entity in tombstones:
                        violations.append(
                            f"event {pos}: {txn} reinserts deleted node {entity!r}"
                        )
                    dag.graph.add_node(entity)
                elif step.op is Operation.DELETE:
                    if entity in dag.graph:
                        dag.graph.remove_node(entity)
                        tombstones.add(entity)
                    else:
                        violations.append(
                            f"event {pos}: {txn} deletes missing node {entity!r}"
                        )
    return violations
