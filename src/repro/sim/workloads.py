"""Workload generators for the simulator.

These produce the synthetic equivalents of the scenarios motivating each
policy in the paper:

* **traversal workloads** over rooted DAGs (the knowledge-base access
  pattern the DDAG policy was designed for — Section 4 / [CHMS94]);
* **long-transaction workloads** (the altruistic-locking scenario of
  Section 5: one long transaction sweeping many entities plus short
  transactions touching a few);
* **random access-set workloads** for the DTR policy (Section 6) and the
  2PL baseline;
* **dynamic traversal workloads** mixing traversals with node/edge inserts
  (exercising the properness machinery end to end).

Every generator is seeded and returns :class:`~repro.sim.scheduler.WorkloadItem`
lists plus the initial structural state the run needs.

The generators are additionally wrapped as **registered grid factories**
— named entries in :data:`GRID_FACTORIES` with the uniform signature
``fn(seed, **kwargs) -> (items, initial, context_kwargs)``, which build
the workload and any policy-context kwargs (e.g. the DDAG database graph)
from the seed.  With its keyword arguments bound
(``functools.partial(grid_factory(name), **kwargs)``) a grid factory is
the :data:`~repro.sim.runner.WorkloadFactory` that
:func:`~repro.sim.runner.run_cell` and
:func:`~repro.verify.verify_policy` take; the end-to-end benchmark looks
factories up by name.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.states import StructuralState
from ..core.steps import Entity
from ..graphs.dag import RootedDag
from ..graphs.generators import random_rooted_dag, random_subdag_walk
from ..policies.base import Access, InsertNode, Intent, edge_entity
from ..policies.ddag import Unlock
from .scheduler import RestartStrategy, WorkloadItem

#: A registered grid factory: ``fn(seed, **kwargs)`` returning the workload
#: items, the initial structural state, and the policy-context kwargs the
#: workload implies (``{}`` for most; ``{"dag": ...}`` for traversals —
#: policies that take no context kwargs ignore extras).
GridWorkloadFactory = Callable[
    ..., Tuple[List[WorkloadItem], StructuralState, dict]
]

GRID_FACTORIES: Dict[str, GridWorkloadFactory] = {}


def register_grid_factory(
    name: str,
) -> Callable[[GridWorkloadFactory], GridWorkloadFactory]:
    """Register a grid factory under ``name`` (decorator), so callers
    can look it up with :func:`grid_factory`."""

    def decorate(fn: GridWorkloadFactory) -> GridWorkloadFactory:
        if name in GRID_FACTORIES:
            raise ValueError(f"grid factory {name!r} already registered")
        GRID_FACTORIES[name] = fn
        return fn

    return decorate


def grid_factory(name: str) -> GridWorkloadFactory:
    """Look up a registered grid factory by name."""
    try:
        return GRID_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(GRID_FACTORIES)) or "(none)"
        raise KeyError(
            f"unknown grid workload factory {name!r}; registered: {known}"
        ) from None


def _staggered_start(index: int, arrival_rate: Optional[float]) -> int:
    """Arrival tick of the ``index``-th transaction at ``arrival_rate``
    transactions per tick (``None`` = everyone at tick 0)."""
    if arrival_rate is None:
        return 0
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    return int(index / arrival_rate)


def _contended_picks(
    rng: random.Random,
    entities: Sequence[str],
    hot: Sequence[str],
    accesses_per_txn: int,
    hot_traffic: float,
) -> List[str]:
    """One transaction's access set: distinct entities, each drawn from the
    hot pool with probability ``hot_traffic`` (when a hot pool exists),
    otherwise from the whole space.  The distinct-pick target is bounded by
    the reachable pool — all-hot traffic over a hot set smaller than
    ``accesses_per_txn`` would otherwise spin the rejection loop forever."""
    target = min(accesses_per_txn, len(entities))
    if hot and hot_traffic >= 1.0:
        target = min(target, len(hot))
    picks: List[str] = []
    while len(picks) < target:
        pool = hot if hot and rng.random() < hot_traffic else entities
        e = rng.choice(pool)
        if e not in picks:
            picks.append(e)
    return picks


def dag_structural_state(dag: RootedDag) -> StructuralState:
    """The structural state induced by a database graph: every node and every
    edge entity exists."""
    entities = set(dag.nodes())
    entities.update(edge_entity(u, v) for u, v in dag.edges())
    return StructuralState(frozenset(entities))


def ddag_cone_intents(dag: RootedDag, targets: Sequence[Entity]) -> List[Intent]:
    """Accesses covering the ancestor cones of ``targets`` in topological
    order — always admissible under L4/L5 (every predecessor of every locked
    node is locked earlier) and therefore the universal DDAG fallback plan.
    """
    cone = set()
    for t in targets:
        if t in dag.graph:
            cone |= dag.ancestors(t)
    order = [n for n in dag.graph.topological_order() if n in cone]
    return [Access(n) for n in order]


def ddag_restart_from_cone(targets: Sequence[Entity]) -> RestartStrategy:
    """Restart strategy for DDAG aborts: replan from the present graph by
    walking the whole ancestor cone (the paper's "abort and start from node
    2" — node 2 being the dominator — generalised to the root cone)."""

    def strategy(name: str, attempt: int, context) -> Optional[List[Intent]]:
        dag = getattr(context, "dag", None)
        if dag is None:
            return None
        live_targets = [t for t in targets if t in dag.graph]
        if not live_targets:
            return None
        return ddag_cone_intents(dag, live_targets)

    return strategy


def traversal_workload(
    dag: RootedDag,
    num_txns: int,
    walk_length: int = 4,
    seed: int = 0,
    arrival_rate: Optional[float] = None,
) -> Tuple[List[WorkloadItem], StructuralState]:
    """DDAG traversal transactions: each walks a random L5-compatible region
    of the graph and accesses every node it visits.

    ``arrival_rate`` staggers arrivals at roughly that many transactions
    per tick (``None`` keeps the historical everyone-at-tick-0 closed
    system); staggering is what makes thousand-transaction traversal
    stress runs meaningful — the open-system shape of the scale benchmarks.
    """
    rng = random.Random(seed)
    items: List[WorkloadItem] = []
    nodes = sorted(dag.nodes(), key=repr)
    for i in range(num_txns):
        start = rng.choice(nodes)
        walk = random_subdag_walk(dag, start, walk_length, rng)
        intents = [Access(n) for n in walk]
        items.append(
            WorkloadItem(
                name=f"T{i + 1}",
                intents=intents,
                restart=ddag_restart_from_cone(walk),
                start_tick=_staggered_start(i, arrival_rate),
            )
        )
    return items, dag_structural_state(dag)


def dynamic_traversal_workload(
    dag: RootedDag,
    num_txns: int,
    walk_length: int = 4,
    insert_prob: float = 0.5,
    seed: int = 0,
    arrival_rate: Optional[float] = None,
) -> Tuple[List[WorkloadItem], StructuralState]:
    """Traversals that additionally insert fresh leaf nodes under the last
    visited node with probability ``insert_prob`` — the dynamic part of the
    DDAG evaluation (structural churn while traversals run).  See
    :func:`traversal_workload` for ``arrival_rate``."""
    rng = random.Random(seed)
    items: List[WorkloadItem] = []
    nodes = sorted(dag.nodes(), key=repr)
    fresh = max((n for n in nodes if isinstance(n, int)), default=0) + 1
    for i in range(num_txns):
        start = rng.choice(nodes)
        walk = random_subdag_walk(dag, start, walk_length, rng)
        intents: List[Intent] = [Access(n) for n in walk]
        if rng.random() < insert_prob:
            intents.append(InsertNode(fresh, parents=(walk[-1],)))
            fresh += 1
        items.append(
            WorkloadItem(
                name=f"T{i + 1}",
                intents=intents,
                restart=ddag_restart_from_cone(walk),
                start_tick=_staggered_start(i, arrival_rate),
            )
        )
    return items, dag_structural_state(dag)


def long_transaction_workload(
    num_entities: int,
    num_short: int,
    long_length: Optional[int] = None,
    short_length: int = 2,
    seed: int = 0,
    region: str = "uniform",
    short_start: int = 0,
) -> Tuple[List[WorkloadItem], StructuralState]:
    """The altruistic-locking scenario: one long transaction sweeping the
    entity space in order, plus short transactions touching a few entities.

    ``region`` places the short transactions: ``"uniform"`` anywhere,
    ``"leading"`` inside the first third of the sweep.  ``short_start``
    delays the short transactions' arrival; arriving *behind* the sweep is
    the configuration where altruism pays — under strict 2PL the sweep holds
    its whole footprint until commit and the late shorts queue behind its
    lifetime, while under altruistic locking they run in its wake.
    """
    rng = random.Random(seed)
    entities = [f"e{i}" for i in range(num_entities)]
    long_length = num_entities if long_length is None else long_length
    items: List[WorkloadItem] = [
        WorkloadItem(
            name="LONG",
            intents=[Access(e) for e in entities[:long_length]],
        )
    ]
    if region == "leading":
        hi = max(1, num_entities // 3 - short_length + 1)
    else:
        hi = max(1, num_entities - short_length)
    for i in range(num_short):
        lo = rng.randrange(hi)
        picks = entities[lo : lo + short_length]
        items.append(
            WorkloadItem(
                name=f"S{i + 1}",
                intents=[Access(e) for e in picks],
                start_tick=short_start,
            )
        )
    state = StructuralState(frozenset(entities))
    return items, state


def random_access_workload(
    num_entities: int,
    num_txns: int,
    accesses_per_txn: int = 3,
    hot_fraction: float = 0.0,
    seed: int = 0,
) -> Tuple[List[WorkloadItem], StructuralState]:
    """Uniform (or hot-spot skewed) random access sets — the generic
    workload for DTR and 2PL comparisons."""
    rng = random.Random(seed)
    entities = [f"e{i}" for i in range(num_entities)]
    hot = entities[: max(1, int(num_entities * hot_fraction))] if hot_fraction else []
    items: List[WorkloadItem] = []
    for i in range(num_txns):
        picks = _contended_picks(rng, entities, hot, accesses_per_txn, 0.5)
        items.append(WorkloadItem(name=f"T{i + 1}", intents=[Access(e) for e in picks]))
    state = StructuralState(frozenset(entities))
    return items, state


def stress_workload(
    num_entities: int,
    num_txns: int,
    accesses_per_txn: int = 3,
    arrival_rate: float = 2.0,
    hot_fraction: float = 0.05,
    ordered: bool = True,
    seed: int = 0,
) -> Tuple[List[WorkloadItem], StructuralState]:
    """An open-system stress test: ``num_txns`` short transactions arriving
    at roughly ``arrival_rate`` per tick over a large entity space, with a
    small hot set receiving half the traffic.

    This is the scale scenario for the event-driven scheduler: thousands of
    transactions, most of them blocked or not-yet-arrived at any instant, so
    a per-tick rescan of every live session (the naive engine) does work
    proportional to the *population* while the event engine only touches the
    sessions something actually happened to.

    ``ordered`` sorts each transaction's access set into the global entity
    order — the classic deadlock-avoidance discipline — so contention shows
    up as blocking rather than deadlock storms.  Pass ``ordered=False`` for
    a deadlock-heavy variant.
    """
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    rng = random.Random(seed)
    entities = [f"e{i}" for i in range(num_entities)]
    hot = entities[: max(1, int(num_entities * hot_fraction))] if hot_fraction else []
    items: List[WorkloadItem] = []
    for i in range(num_txns):
        picks = _contended_picks(rng, entities, hot, accesses_per_txn, 0.5)
        if ordered:
            picks.sort(key=lambda e: int(e[1:]))
        items.append(
            WorkloadItem(
                name=f"T{i + 1:05d}",
                intents=[Access(e) for e in picks],
                start_tick=_staggered_start(i, arrival_rate),
            )
        )
    return items, StructuralState(frozenset(entities))


def deadlock_storm_workload(
    num_entities: int,
    num_txns: int,
    accesses_per_txn: int = 3,
    arrival_rate: float = 0.5,
    hot_set_size: int = 8,
    hot_traffic: float = 0.8,
    seed: int = 0,
) -> Tuple[List[WorkloadItem], StructuralState]:
    """A deadlock-heavy open system: short transactions whose access sets
    are *not* sorted into the global entity order (so opposite lock orders
    collide), concentrated on a tunable hot set, arriving staggered.

    ``hot_set_size`` is the absolute number of hot entities and
    ``hot_traffic`` the probability each access lands in it — a small hot
    set with most of the traffic keeps several live transactions holding
    one hot entity while waiting for another, which is what breeds
    waits-for cycles.  This is the scale scenario for deadlock handling:
    most ticks find no runnable session and go down the deadlock path,
    which in the naive engine (and the event engine before it searched
    without a per-tick rebuild) re-classified every live session.
    """
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    if not 0 <= hot_traffic <= 1:
        raise ValueError("hot_traffic must be in [0, 1]")
    rng = random.Random(seed)
    entities = [f"e{i}" for i in range(num_entities)]
    hot = entities[: max(1, min(hot_set_size, num_entities))]
    items: List[WorkloadItem] = []
    for i in range(num_txns):
        picks = _contended_picks(rng, entities, hot, accesses_per_txn, hot_traffic)
        # Deliberately unordered: picks stay in draw order, so two
        # transactions over the same hot entities lock them in different
        # orders and deadlock instead of queueing.
        items.append(
            WorkloadItem(
                name=f"T{i + 1:05d}",
                intents=[Access(e) for e in picks],
                start_tick=_staggered_start(i, arrival_rate),
            )
        )
    return items, StructuralState(frozenset(entities))


# ----------------------------------------------------------------------
# Registered grid factories (by-name wrappers of the generators)
# ----------------------------------------------------------------------


@register_grid_factory("stress")
def _grid_stress(seed: int, **kwargs):
    items, initial = stress_workload(seed=seed, **kwargs)
    return items, initial, {}


@register_grid_factory("deadlock_storm")
def _grid_deadlock_storm(seed: int, **kwargs):
    items, initial = deadlock_storm_workload(seed=seed, **kwargs)
    return items, initial, {}


@register_grid_factory("long_transaction")
def _grid_long_transaction(seed: int, **kwargs):
    items, initial = long_transaction_workload(seed=seed, **kwargs)
    return items, initial, {}


@register_grid_factory("random_access")
def _grid_random_access(seed: int, **kwargs):
    items, initial = random_access_workload(seed=seed, **kwargs)
    return items, initial, {}


@register_grid_factory("traversal")
def _grid_traversal(
    seed: int,
    nodes: int = 10,
    edge_prob: float = 0.25,
    num_txns: int = 6,
    walk_length: int = 4,
    arrival_rate: Optional[float] = None,
):
    """Traversals over a seed-derived random rooted DAG.  The DAG doubles
    as the DDAG policy's context (snapshotted, as live runs mutate it);
    static policies ignore the extra context kwarg."""
    dag = random_rooted_dag(nodes, edge_prob, seed=seed)
    items, initial = traversal_workload(
        dag, num_txns, walk_length, seed=seed, arrival_rate=arrival_rate
    )
    return items, initial, {"dag": dag.snapshot()}


@register_grid_factory("dynamic_traversal")
def _grid_dynamic_traversal(
    seed: int,
    nodes: int = 10,
    edge_prob: float = 0.25,
    num_txns: int = 6,
    walk_length: int = 4,
    insert_prob: float = 0.5,
    arrival_rate: Optional[float] = None,
):
    """Dynamic traversals (fresh-leaf inserts) over a seed-derived DAG;
    see :func:`_grid_traversal` for the context kwarg."""
    dag = random_rooted_dag(nodes, edge_prob, seed=seed)
    items, initial = dynamic_traversal_workload(
        dag, num_txns, walk_length,
        insert_prob=insert_prob, seed=seed, arrival_rate=arrival_rate,
    )
    return items, initial, {"dag": dag.snapshot()}


def fig3_dag() -> RootedDag:
    """The database graph of the paper's Fig. 3 walk-through (reconstructed
    as the 5-node chain ``1 -> 2 -> 3 -> 4 -> 5``; the figure itself is not
    reproduced in the text, but the chain is consistent with every step of
    the narration)."""
    return RootedDag(1, [(1, 2), (2, 3), (3, 4), (4, 5)])


def fig3_workload() -> Tuple[List[WorkloadItem], StructuralState]:
    """The two transactions of Fig. 3: T1 locks 2, 3, 4, unlocks 3 then 4;
    T2 starts at 3 and proceeds to 4."""
    dag = fig3_dag()
    t1: List[Intent] = [Access(2), Access(3), Access(4), Unlock(3), Unlock(4), Unlock(2)]
    t2: List[Intent] = [Access(3), Access(4)]
    items = [
        WorkloadItem("T1", t1, restart=ddag_restart_from_cone([2, 3, 4])),
        WorkloadItem("T2", t2, restart=ddag_restart_from_cone([3, 4])),
    ]
    return items, dag_structural_state(dag)
