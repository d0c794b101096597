"""Fig. 1 — shapes of D(S') for canonical schedules.

Paper: in *static* databases the serializability graph of a canonical
schedule is a simple path closed by one back edge, with ``T_c`` first
(Fig. 1a); in *dynamic* databases it need not be — the properness of the
schedule involving ``T_c`` may depend on entities inserted by transactions
``T_1 … T_{c-1}``, so ``T_c`` can sit in the middle of the serial order
(Fig. 1b).

Measured: both shapes from real witnesses — a static-style two-transaction
cycle (``T_c`` first, simple path), and a dynamic system whose witness
*provably cannot* put ``T_c`` first: ``T_c``'s own prefix writes an entity
that only an earlier transaction inserts.
"""

from conftest import banner

from repro import StructuralState, Transaction, find_canonical_witness
from repro.enumeration import fig2_system
from repro.viz import render_conflict_graph

AB = StructuralState.of("a", "b")


def _static_style_pair():
    t1 = Transaction.from_text("T1", "(LX a) (W a) (UX a) (LX b) (W b) (UX b)")
    t2 = Transaction.from_text("T2", "(LX b) (W b) (UX b) (LX a) (W a) (UX a)")
    return [t1, t2]


def _dynamic_forced_system():
    """T1 (= the eventual T_c) writes x, which only T0 inserts: every proper
    canonical schedule must execute T0's prefix before T'_1, so c > 0."""
    t0 = Transaction.from_text("T0", "(LX x) (I x) (UX x)")
    t1 = Transaction.from_text("T1", "(LX x) (W x) (UX x) (LX y) (W y) (UX y)")
    t2 = Transaction.from_text("T2", "(LX x) (W x) (UX x) (LX y) (W y) (UX y)")
    return [t0, t1, t2], StructuralState.of("y")


def test_fig1a_static_shape_path_plus_back_edge():
    banner("Fig. 1a — static-style canonical schedule: simple path")
    witness = find_canonical_witness(_static_style_pair(), AB)
    assert witness is not None
    graph = witness.graph()
    print(witness.describe())
    print(render_conflict_graph(graph))
    # The static shape: T_c first, a single source and a single sink, and
    # the path T_c -> ... -> sink to be closed by the (L A*) back edge.
    assert witness.c_index == 0
    assert len(graph.sources()) == 1
    assert len(graph.sinks()) == 1
    assert witness.tc.name in graph.sources()


def test_fig1b_dynamic_shape_tc_forced_inward():
    banner("Fig. 1b — dynamic canonical schedule: T_c cannot be first")
    txns, initial = _dynamic_forced_system()
    witness = find_canonical_witness(txns, initial)
    assert witness is not None
    print(witness.describe())
    print(render_conflict_graph(witness.graph()))
    # The dynamic difference the paper highlights: "the properness of the
    # schedule involving transactions T_c ... may depend on the entities
    # inserted by transactions T_1 ... T_{c-1}".
    assert witness.c_index > 0, "properness forces an inserter ahead of T_c"
    print(f"\nT_c = {witness.tc.name} at position {witness.c_index} "
          f"(paper: T_c 'is not necessarily the first transaction')")


def test_fig1b_fig2_witness_spans_three_transactions():
    banner("Fig. 1b (companion) — the Fig. 2 witness needs all three prefixes")
    witness = find_canonical_witness(fig2_system())
    assert witness is not None
    print(witness.describe())
    assert len(witness.transactions) == 3


def test_fig1_static_style_pair_has_canonical_witness():
    """The static-style pair is unsafe: the canonical search finds a witness."""
    assert find_canonical_witness(_static_style_pair(), AB) is not None
