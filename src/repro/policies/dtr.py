"""The Dynamic Tree (DTR) locking policy — Section 6 of the paper [CM86].

Where the DDAG policy assumes a given database graph, the DTR policy
*creates its own* control structure: a **database forest** maintained by the
concurrency-control algorithm, not by the transactions.  Rules:

* **DT0** — initially the database forest is empty.
* **DT1** — two trees are joined by an edge from the root of one to the root
  of the other; a set of new entities is first connected into a tree, then
  joined.
* **DT2** — when a transaction ``T`` starts, all trees containing entities of
  ``A(T)`` (the entities ``T`` explicitly accesses) are joined into a single
  tree ``g``, the missing entities are added to ``g``, and ``T`` is
  **tree-locked** with respect to ``g``.
* **DT3** — a node may be deleted from the forest when no active transaction
  holds a lock on it and every active transaction remains tree-locked with
  respect to the forest minus the node.

A transaction is *tree-locked* w.r.t. ``g`` when every ``(LX A)`` step except
the first is preceded by ``(LX B)`` and followed by ``(U B)`` where ``B`` is
the parent of ``A`` in ``g``, and no entity is locked twice.

As the paper notes, the locked transaction is **precomputed** when the
transaction begins (unlike DDAG's fully dynamic locking); sessions are
therefore :class:`~repro.policies.base.ScriptedSession` instances playing a
crab-locking walk of the induced subtree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.operations import Operation
from ..core.steps import Entity, Step
from ..core.transactions import Transaction
from ..exceptions import PolicyViolation
from ..graphs.forest import Forest
from .base import (
    Access,
    Intent,
    LockingPolicy,
    PolicyContext,
    PolicySession,
    Read,
    ScriptedSession,
    Write,
    access_steps,
)


def _access_set(intents: Sequence[Intent]) -> List[Entity]:
    """``A(T)``: the entities with an explicit access step, in first-use
    order.  DTR (as reproduced here) supports read/write/access intents; the
    forest, not the data, is the dynamic part of this policy."""
    out: List[Entity] = []
    for intent in intents:
        if isinstance(intent, (Access, Read, Write)):
            if intent.entity not in out:
                out.append(intent.entity)
        else:
            raise PolicyViolation(
                "DT2", f"DTR supports access/read/write intents, not {intent!r}"
            )
    return out


class DtrContext(PolicyContext):
    """Shared state: the database forest plus active transactions' plans."""

    def __init__(self) -> None:
        self.forest = Forest()  # DT0: initially empty
        #: Active transactions -> the forest nodes their plan locks.
        self.plans: Dict[str, Set[Entity]] = {}
        #: Per transaction, the parent map of its planning-time tree
        #: (recorded so tree-lockedness can be audited offline).
        self.plan_parents: Dict[str, Dict[Entity, Optional[Entity]]] = {}
        #: Entities currently locked (maintained via session callbacks).
        self.locked: Dict[Entity, str] = {}
        self.join_log: List[Tuple[Entity, Entity]] = []
        self.delete_log: List[Entity] = []

    # ------------------------------------------------------------------
    # DT1 / DT2
    # ------------------------------------------------------------------

    def _ensure_tree(self, access: Sequence[Entity]) -> Entity:
        """Join/extend the forest so one tree contains all of ``access``;
        return that tree's root (rules DT1 + DT2)."""
        present = [e for e in access if e in self.forest]
        missing = [e for e in access if e not in self.forest]
        roots: List[Entity] = []
        for e in present:
            r = self.forest.root_of(e)
            if r not in roots:
                roots.append(r)
        if not roots:
            if not missing:
                raise PolicyViolation("DT2", "transaction accesses nothing")
            # DT1: connect the new entities into a tree (a star under the
            # first) — there is no existing tree to join.
            root = missing[0]
            self.forest.add_root(root)
            for e in missing[1:]:
                self.forest.add_child(root, e)
            return root
        # Join all involved trees under the first root.
        main = roots[0]
        for other in roots[1:]:
            self.forest.join(main, other)
            self.join_log.append((main, other))
        # Add missing entities as a tree joined under the main root.
        if missing:
            sub_root = missing[0]
            self.forest.add_root(sub_root)
            for e in missing[1:]:
                self.forest.add_child(sub_root, e)
            self.forest.join(main, sub_root)
            self.join_log.append((main, sub_root))
        return main

    def _plan_subtree(self, access: Sequence[Entity]) -> List[Entity]:
        """The nodes to lock: the union of paths from the LCA of ``access``
        down to each accessed entity, in crab (pre)order."""
        paths = [self.forest.path_from_root(e) for e in access]
        # LCA: the longest common prefix of the root paths.
        lca_index = 0
        while all(len(p) > lca_index for p in paths) and len(
            {p[lca_index] for p in paths}
        ) == 1:
            lca_index += 1
        if lca_index == 0:
            raise PolicyViolation("DT2", "access set spans multiple trees")
        lca = paths[0][lca_index - 1]
        needed: Set[Entity] = set()
        for p in paths:
            needed.update(p[lca_index - 1 :])
        # Preorder walk of the induced subtree from the LCA.
        order: List[Entity] = []

        def walk(node: Entity) -> None:
            order.append(node)
            for child in sorted(self.forest.children(node), key=repr):
                if child in needed:
                    walk(child)

        walk(lca)
        return order

    def begin(self, name: str, intents: Sequence[Intent]) -> PolicySession:
        intents = list(intents)
        access = _access_set(intents)
        self._ensure_tree(access)
        order = self._plan_subtree(access)
        parent_map = {n: self.forest.parent(n) for n in order}
        steps = _crab_steps(order, parent_map, set(access))
        self.plans[name] = set(order)
        self.plan_parents[name] = parent_map
        return DtrSession(name, self, steps)

    # ------------------------------------------------------------------
    # DT3
    # ------------------------------------------------------------------

    def can_delete(self, node: Entity) -> bool:
        """The DT3 side condition: the node is unlocked and not part of any
        active transaction's plan (so every active transaction stays
        tree-locked w.r.t. the forest minus the node)."""
        if node not in self.forest:
            return False
        if node in self.locked:
            return False
        return all(node not in plan for plan in self.plans.values())

    def cleanup(self, candidates: Sequence[Entity]) -> List[Entity]:
        """Delete every candidate node DT3 currently allows; returns the
        nodes removed."""
        removed: List[Entity] = []
        for node in candidates:
            if self.can_delete(node):
                self.forest.delete_node(node)
                self.delete_log.append(node)
                removed.append(node)
        return removed


class DtrSession(ScriptedSession):
    """A scripted DTR session that maintains the context's lock table and
    triggers DT3 cleanup at commit."""

    def __init__(self, name: str, context: DtrContext, steps: Sequence[Step]):
        super().__init__(name, steps)
        self.context = context

    def executed(self) -> None:
        step = self.peek()
        assert step is not None
        if step.is_lock:
            self.context.locked[step.entity] = self.name
        elif step.is_unlock:
            if self.context.locked.get(step.entity) == self.name:
                del self.context.locked[step.entity]
        super().executed()

    def on_commit(self) -> None:
        plan = self.context.plans.pop(self.name, set())
        self.context.plan_parents.pop(self.name, None)
        self.context.cleanup(sorted(plan, key=repr))

    def on_abort(self) -> None:
        self.on_commit()


def _crab_steps(
    order: Sequence[Entity],
    parent_map: Dict[Entity, Optional[Entity]],
    access: Set[Entity],
) -> List[Step]:
    """Emit a tree-locked crab walk: lock in preorder, access at lock time,
    unlock each node once its last planned child is locked (and its own
    access, if any, has been emitted)."""
    children: Dict[Entity, List[Entity]] = {n: [] for n in order}
    for n in order:
        p = parent_map[n]
        if p is not None and p in children:
            children[p].append(n)
    pending_children = {n: len(children[n]) for n in order}
    steps: List[Step] = []
    unlocked: Set[Entity] = set()

    def maybe_unlock(node: Entity) -> None:
        if node in unlocked:
            return
        if pending_children[node] == 0:
            unlocked.add(node)
            steps.append(Step(Operation.UNLOCK_EXCLUSIVE, node))

    for node in order:
        steps.append(Step(Operation.LOCK_EXCLUSIVE, node))
        if node in access:
            steps.extend(access_steps(node))
        p = parent_map[node]
        if p is not None and p in pending_children:
            pending_children[p] -= 1
            maybe_unlock(p)
    # Drain: unlock everything still held, leaves first (order is irrelevant
    # for tree-lockedness; deterministic for reproducibility).
    for node in reversed(order):
        maybe_unlock(node)
    return steps


class DtrPolicy(LockingPolicy):
    """Factory for DTR runs."""

    name = "DTR"

    def create_context(self, **kwargs) -> DtrContext:
        return DtrContext()


# ----------------------------------------------------------------------
# Offline tree-locking checker
# ----------------------------------------------------------------------


def check_tree_locked(
    txn: Transaction, parent_map: Dict[Entity, Optional[Entity]]
) -> List[str]:
    """Verify the tree-locking discipline of one locked transaction against
    the parent map of its planning-time tree.

    Checks: the first lock is unconstrained; every other ``(LX A)`` is
    preceded by ``(LX B)`` and followed by ``(U B)`` with ``B`` the parent of
    ``A``; no entity is locked twice.
    """
    violations: List[str] = []
    lock_positions: Dict[Entity, int] = {}
    unlock_positions: Dict[Entity, int] = {}
    for i, s in enumerate(txn.steps):
        if s.is_lock:
            if s.entity in lock_positions:
                violations.append(f"{txn.name} locks {s.entity!r} twice")
            else:
                lock_positions[s.entity] = i
        elif s.is_unlock:
            unlock_positions[s.entity] = i
    if not lock_positions:
        return violations
    first = min(lock_positions.values())
    for entity, pos in lock_positions.items():
        if pos == first:
            continue
        parent = parent_map.get(entity)
        if parent is None:
            violations.append(
                f"{txn.name} locks non-first node {entity!r} with no parent "
                f"in its tree"
            )
            continue
        ppos = lock_positions.get(parent)
        if ppos is None or ppos >= pos:
            violations.append(
                f"{txn.name} locks {entity!r} before its parent {parent!r}"
            )
        upos = unlock_positions.get(parent)
        if upos is not None and upos <= pos:
            violations.append(
                f"{txn.name} unlocks parent {parent!r} before locking {entity!r}"
            )
    return violations


def check_dtr_schedule(
    schedule,
    plan_parents: Dict[str, Dict[Entity, Optional[Entity]]],
) -> List[str]:
    """Offline audit of a DTR run: every transaction's locked projection is
    tree-locked w.r.t. its recorded planning tree, and data steps are
    covered by locks (AL1-style well-formedness is checked by the core)."""
    violations: List[str] = []
    for name in schedule.transactions:
        txn = schedule.projection(name)
        parents = plan_parents.get(name)
        if parents is None:
            violations.append(f"no recorded planning tree for {name}")
            continue
        violations.extend(check_tree_locked(txn, parents))
    return violations
