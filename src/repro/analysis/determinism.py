"""RPR001 — determinism hazards.

Four hazard classes, all of which have bitten (or would bite) the
naive/event byte-equivalence contract:

* **Unsorted set iteration** in ``repro.sim`` / ``repro.policies`` /
  ``repro.graphs`` — any order-dependent consumption (a ``for`` statement,
  a list/dict comprehension, ``list()``/``iter()``/``enumerate()``/
  ``join()``/``choice()`` …) of an expression inferred to be a
  ``set``/``frozenset``.  Under hash randomization the iteration order
  changes per process, so if it can reach a schedule, a wake-up set, or a
  reported row, two runs of the same seed diverge.  Consumption inside
  ``sorted()``/``set()``/``any()``/``min()`` … is order-insensitive and
  allowed; everything else needs ``sorted(...)`` or a
  ``# repro: noqa[RPR001] <why order cannot matter>``.
* **Bare ``random.*`` calls** — module-level randomness is shared,
  unseeded process state; all randomness must flow through an explicit
  seeded ``random.Random`` (the generators and the simulator RNG already
  do).
* **Wall-clock reads** (``time.time``/``perf_counter``/``datetime.now``…)
  outside the bench timing allowlist — wall time in simulation logic makes
  results machine-dependent.
* **Ordering via ``id()``** — CPython addresses vary per process; ``id``
  in a sort key or an ordering comparison is nondeterminism by
  construction.

The set-type inference is module-local and flow-insensitive: set
literals/comprehensions, ``set()``/``frozenset()`` calls, names assigned
from those, parameters/attributes annotated ``Set``/``FrozenSet``,
values of attributes annotated ``Dict[..., Set[...]]`` (a subscript,
``.get``, ``.pop``, or ``.values()`` item of such a dict is a set), set
binops, and calls of module functions whose return annotation is a set.
Unknown types are never flagged — the rule prefers false negatives to
noise.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set

from .core import FileContext, Finding

CODE = "RPR001"

#: Module prefixes where unsorted set iteration can reach schedules,
#: wake-up sets, or reported rows.
SET_SCOPE_PREFIXES = ("repro.sim", "repro.policies", "repro.graphs")

#: Modules allowed to read the wall clock (bench timing sites).
WALL_CLOCK_ALLOW_PREFIXES = ("repro.bench", "benchmarks")

_SET_NAMES = {"set", "frozenset"}
_SET_ANN_NAMES = {"Set", "FrozenSet", "AbstractSet", "MutableSet", "set", "frozenset"}
_DICT_ANN_NAMES = {"Dict", "dict", "DefaultDict", "defaultdict", "Mapping", "MutableMapping"}
_SET_RETURNING_METHODS = {
    "union", "intersection", "difference", "symmetric_difference", "copy",
}
_SAFE_CONSUMERS = {"sorted", "set", "frozenset", "any", "all", "sum", "min", "max", "len"}
_ORDERED_CONSUMERS = {"list", "tuple", "iter", "enumerate", "zip", "reversed", "next"}
_ORDERED_METHODS = {"extend", "join", "choice", "sample", "shuffle", "choices"}
_WALL_TIME_FUNCS = {
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
}
_WALL_DATETIME_FUNCS = {"now", "utcnow", "today"}
_ORDER_CMP = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _in_scope(module: str, prefixes: Sequence[str]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _ann_kind(ann: Optional[ast.AST]) -> str:
    """Classify an annotation: ``'set'``, ``'dict_of_set'``, or ``''``."""
    if ann is None:
        return ""
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        try:
            ann = ast.parse(ann.value, mode="eval").body
        except SyntaxError:
            return ""
    if isinstance(ann, ast.Name) and ann.id in _SET_ANN_NAMES:
        return "set"
    if isinstance(ann, ast.Attribute) and ann.attr in _SET_ANN_NAMES:
        return "set"
    if isinstance(ann, ast.Subscript):
        base = ann.value
        base_name = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else None
        )
        if base_name in _SET_ANN_NAMES:
            return "set"
        if base_name in _DICT_ANN_NAMES:
            sl = ann.slice
            if isinstance(sl, ast.Index):  # pragma: no cover  (py<3.9 compat)
                sl = sl.value  # type: ignore[attr-defined]
            if isinstance(sl, ast.Tuple) and len(sl.elts) == 2:
                if _ann_kind(sl.elts[1]) == "set":
                    return "dict_of_set"
        if base_name == "Optional":
            return _ann_kind(ann.slice)
    return ""


class _SetTypes:
    """Module-local set-type environment (see module docstring)."""

    def __init__(self, ctx: FileContext):
        self.ctx = ctx
        self.set_attrs: Set[str] = set()
        self.dict_of_set_attrs: Set[str] = set()
        self.set_funcs: Set[str] = set()
        #: scope node -> names known set-typed / dict-of-set-typed there.
        self.scope_sets: Dict[ast.AST, Set[str]] = {}
        self.scope_dicts: Dict[ast.AST, Set[str]] = {}
        self._collect_declarations()
        # Two propagation passes resolve one level of aliasing
        # (``x = set(); y = x``) — enough in practice.
        for _ in range(2):
            self._collect_assignments()

    # -- declaration harvesting ------------------------------------------

    def _collect_declarations(self) -> None:
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.AnnAssign):
                kind = _ann_kind(node.annotation)
                if not kind:
                    continue
                target = node.target
                if isinstance(target, ast.Attribute):
                    (self.set_attrs if kind == "set" else self.dict_of_set_attrs).add(
                        target.attr
                    )
                elif isinstance(target, ast.Name):
                    if isinstance(self.ctx.parent(node), ast.ClassDef):
                        (self.set_attrs if kind == "set"
                         else self.dict_of_set_attrs).add(target.id)
                    else:
                        scope = self._scope_of(node)
                        self._names(scope, kind).add(target.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _ann_kind(node.returns) == "set":
                    self.set_funcs.add(node.name)
                for arg in list(node.args.args) + list(node.args.kwonlyargs):
                    kind = _ann_kind(arg.annotation)
                    if kind:
                        self._names(node, kind).add(arg.arg)

    def _collect_assignments(self) -> None:
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.Assign):
                kind = "set" if self.is_set(node.value) else (
                    "dict_of_set" if self._is_dict_of_set(node.value) else ""
                )
                if not kind:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._names(self._scope_of(node), kind).add(target.id)
                    elif isinstance(target, ast.Attribute):
                        (self.set_attrs if kind == "set"
                         else self.dict_of_set_attrs).add(target.attr)
            elif isinstance(node, ast.For):
                self._bind_loop_target(node.target, node.iter, node)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    self._bind_loop_target(gen.target, gen.iter, node)

    def _bind_loop_target(self, target: ast.AST, it: ast.AST, stmt: ast.AST) -> None:
        """``for k, vs in d.items()`` / ``for vs in d.values()`` over a
        dict-of-set binds the value name as a set."""
        if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute)):
            return
        if not self._is_dict_of_set(it.func.value):
            return
        scope = self._scope_of(stmt)
        if it.func.attr == "values" and isinstance(target, ast.Name):
            self._names(scope, "set").add(target.id)
        elif (
            it.func.attr == "items"
            and isinstance(target, ast.Tuple)
            and len(target.elts) == 2
            and isinstance(target.elts[1], ast.Name)
        ):
            self._names(scope, "set").add(target.elts[1].id)

    # -- environment helpers ---------------------------------------------

    def _scope_of(self, node: ast.AST) -> ast.AST:
        scope = self.ctx.enclosing(node, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        return scope if scope is not None else self.ctx.tree

    def _names(self, scope: ast.AST, kind: str) -> Set[str]:
        store = self.scope_sets if kind == "set" else self.scope_dicts
        return store.setdefault(scope, set())

    def _name_has_kind(self, node: ast.Name, kind: str) -> bool:
        store = self.scope_sets if kind == "set" else self.scope_dicts
        scope: Optional[ast.AST] = self._scope_of(node)
        while scope is not None:
            if node.id in store.get(scope, ()):
                return True
            scope = None if scope is self.ctx.tree else (
                self.ctx.enclosing(scope, ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda) or self.ctx.tree
            )
        return False

    # -- queries ----------------------------------------------------------

    def _is_dict_of_set(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in self.dict_of_set_attrs
        if isinstance(node, ast.Name):
            return self._name_has_kind(node, "dict_of_set")
        return False

    def is_set(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return self._name_has_kind(node, "set")
        if isinstance(node, ast.Attribute):
            return node.attr in self.set_attrs
        if isinstance(node, ast.Subscript):
            return self._is_dict_of_set(node.value)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set(node.left) or self.is_set(node.right)
        if isinstance(node, ast.IfExp):
            return self.is_set(node.body) or self.is_set(node.orelse)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in _SET_NAMES or func.id in self.set_funcs:
                    return True
            elif isinstance(func, ast.Attribute):
                if func.attr in self.set_funcs:
                    return True
                if func.attr in _SET_RETURNING_METHODS and self.is_set(func.value):
                    return True
                if func.attr in ("get", "pop", "setdefault") and self._is_dict_of_set(
                    func.value
                ):
                    return True
        return False


def _call_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _consumed_safely(ctx: FileContext, node: ast.AST) -> bool:
    """Is ``node`` a direct argument of an order-insensitive consumer?"""
    parent = ctx.parent(node)
    if isinstance(parent, ast.Call) and node in parent.args:
        name = _call_name(parent)
        return name in _SAFE_CONSUMERS
    return False


def _iter_set_iteration(ctx: FileContext, types: _SetTypes) -> Iterator[Finding]:
    msg = (
        "iteration over a set with nondeterministic order; wrap in sorted(...) "
        "or suppress with a reason order cannot reach output"
    )
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.For) and types.is_set(node.iter):
            yield ctx.finding(CODE, node.iter, msg)
        elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
            if not any(types.is_set(g.iter) for g in node.generators):
                continue
            if isinstance(node, ast.GeneratorExp) or _consumed_safely(ctx, node):
                # A genexp (or comp) feeding sorted()/set()/any()… directly
                # is order-insensitive at the only place it is consumed.
                if isinstance(node, ast.GeneratorExp) and not _consumed_safely(ctx, node):
                    yield ctx.finding(CODE, node, msg)
                continue
            yield ctx.finding(CODE, node, msg)
        elif isinstance(node, ast.Call):
            name = _call_name(node)
            if name in _ORDERED_CONSUMERS or name in _ORDERED_METHODS:
                if any(types.is_set(arg) for arg in node.args):
                    if not _consumed_safely(ctx, node):
                        yield ctx.finding(CODE, node, msg)
        elif isinstance(node, ast.Starred) and types.is_set(node.value):
            yield ctx.finding(CODE, node, msg)


def _iter_random_calls(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
            and func.attr not in ("Random", "SystemRandom")
        ):
            yield ctx.finding(
                CODE,
                node,
                f"module-level random.{func.attr}() uses shared unseeded state; "
                "route randomness through an explicit seeded random.Random",
            )


def _iter_wall_clock(ctx: FileContext) -> Iterator[Finding]:
    if _in_scope(ctx.module, WALL_CLOCK_ALLOW_PREFIXES):
        return
    from_time_imports: Set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            from_time_imports.update(
                alias.asname or alias.name for alias in node.names
                if alias.name in _WALL_TIME_FUNCS
            )
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        flagged = None
        if isinstance(func, ast.Attribute):
            chain = _dotted(func)
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "time"
                and func.attr in _WALL_TIME_FUNCS
            ):
                flagged = chain
            elif func.attr in _WALL_DATETIME_FUNCS and chain is not None and (
                "datetime" in chain.split(".") or "date" in chain.split(".")
            ):
                flagged = chain
        elif isinstance(func, ast.Name) and func.id in from_time_imports:
            flagged = func.id
        if flagged is not None:
            yield ctx.finding(
                CODE,
                node,
                f"wall-clock read {flagged}() outside the bench timing "
                "allowlist makes results time-dependent",
            )


def _iter_id_ordering(ctx: FileContext) -> Iterator[Finding]:
    msg = "ordering via id() is address-dependent and differs across processes"
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.keyword) and node.arg == "key":
            if isinstance(node.value, ast.Name) and node.value.id == "id":
                yield ctx.finding(CODE, node.value, msg)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
            node.func.id == "id"
        ):
            for anc in ctx.ancestors(node):
                if isinstance(anc, ast.Compare) and any(
                    isinstance(op, _ORDER_CMP) for op in anc.ops
                ):
                    yield ctx.finding(CODE, node, msg)
                    break
                if isinstance(anc, ast.Lambda):
                    kw = ctx.parent(anc)
                    if isinstance(kw, ast.keyword) and kw.arg == "key":
                        yield ctx.finding(CODE, node, msg)
                        break
                if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    break


def check_determinism(ctx: FileContext) -> List[Finding]:
    out: List[Finding] = []
    if _in_scope(ctx.module, SET_SCOPE_PREFIXES):
        out.extend(_iter_set_iteration(ctx, _SetTypes(ctx)))
    out.extend(_iter_random_calls(ctx))
    out.extend(_iter_wall_clock(ctx))
    out.extend(_iter_id_ordering(ctx))
    return out
