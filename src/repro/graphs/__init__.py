"""From-scratch graph substrate: digraphs, rooted DAGs, dominators, forests,
and random generators for workloads."""

from .. import _exports

_EXPORTS = {
    "DiGraph": ".digraph",
    "Edge": ".digraph",
    "Forest": ".forest",
    "Node": ".digraph",
    "RootedDag": ".dag",
    "chain": ".dag",
    "diamond": ".dag",
    "dominates": ".dominators",
    "dominator_sets": ".dominators",
    "immediate_dominators": ".dominators",
    "layered_dag": ".generators",
    "random_root_path": ".generators",
    "random_rooted_dag": ".generators",
    "random_subdag_walk": ".generators",
    "random_tree": ".generators",
}

__all__ = tuple(_EXPORTS)
__getattr__, __dir__ = _exports.attach(__name__, _EXPORTS)
