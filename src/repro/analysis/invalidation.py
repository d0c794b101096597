"""RPR002 — invalidation-protocol conformance.

The admission cache re-checks a blocked dynamic session only when one of
its declared channels (``PolicySession.admission_dependencies``) is
notified (``PolicyContext.notify_changed``).  A mutation that can change
an admission verdict but is never notified leaves sessions parked on stale
verdicts — the exact bug class PRs 2–3 fixed by hand in ``ddag.py`` and
``altruistic.py``.

The check is module-local and conservative:

1. A *declaring class* is any class whose ``admission_dependencies``
   method can return something other than ``None``.
2. The *shared-read set* is the attribute names such a class's
   ``admission`` / ``admission_dependencies`` read through anything other
   than bare ``self`` (``self.context.tombstones`` → ``tombstones``,
   ``other.donated`` → ``donated``), expanded to a fixpoint through
   module-local properties/methods they consult (``reached_locked_point``
   → ``locked_past``, ``_items``); inside expanded bodies *all* reads
   count, because their ``self`` is another object at the call site.
3. Every method of every class in the module (except ``__init__``) that
   mutates a shared attribute — a mutator call like ``.add``/``.pop``/
   ``.add_edge``, an assignment, or a subscript store or ``del`` whose
   target chain ends in a shared name, where a local bound once to an
   attribute chain (``index = self.donors``) stands for that chain —
   must contain at least one call that
   (transitively, module-locally) reaches ``notify_changed``.  Methods
   with zero notifications get one finding per mutation site.

Intentional exceptions (a mutation provably unable to change any verdict)
are suppressed inline with a reason, which is the documentation the
protocol previously lacked.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .core import Finding, register_rule
from .engine import FileContext

CODE = "RPR002"

_MUTATORS = {
    "add", "discard", "remove", "update", "clear", "pop", "popitem",
    "append", "extend", "insert", "setdefault",
    "difference_update", "intersection_update", "symmetric_difference_update",
    "add_edge", "remove_edge", "add_node", "remove_node",
    "add_root", "add_child", "join", "delete_node",
}

_NOTIFY_ROOTS = {"notify_changed"}

_ADMISSION_METHODS = ("admission", "admission_dependencies")


def _attr_chain(
    node: ast.AST, aliases: Optional[Dict[str, List[str]]] = None
) -> List[str]:
    """Attribute names of a ``Name.a.b.c`` chain (empty if not a chain);
    a ``Name`` in ``aliases`` contributes the chain it is bound to."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.reverse()
        return (aliases or {}).get(node.id, []) + parts
    return []


def _aliases(fn: ast.FunctionDef) -> Dict[str, List[str]]:
    """Locals bound exactly once, to an attribute chain
    (``index = self.donors``): a mutation through the local is a mutation
    of that chain."""
    bindings: Dict[str, int] = {}
    args = fn.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                args.vararg, args.kwarg):
        if arg is not None:
            bindings[arg.arg] = bindings.get(arg.arg, 0) + 1
    bound: Dict[str, List[str]] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bindings[node.id] = bindings.get(node.id, 0) + 1
        elif (
            isinstance(node, (ast.Assign, ast.AnnAssign))
            and isinstance(node.value, ast.Attribute)
        ):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            chain = _attr_chain(node.value)
            if len(targets) == 1 and isinstance(targets[0], ast.Name) and chain:
                bound[targets[0].id] = chain
    return {name: chain for name, chain in bound.items() if bindings[name] == 1}


def _returns_non_none(fn: ast.FunctionDef) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and node.value is not None:
            if isinstance(node.value, ast.Constant) and node.value.value is None:
                continue
            return True
    return False


def _methods(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    return {
        item.name: item
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
    }


def _called_names(fn: ast.FunctionDef) -> Set[str]:
    out: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                out.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                out.add(node.func.attr)
    return out


def _notifying_names(ctx: FileContext) -> Set[str]:
    """Module-local function/method names that (transitively) call
    ``notify_changed`` — e.g. ``wake_changed``."""
    bodies: Dict[str, List[ast.FunctionDef]] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.FunctionDef):
            bodies.setdefault(node.name, []).append(node)
    notify = set(_NOTIFY_ROOTS)
    changed = True
    while changed:
        changed = False
        for name, fns in bodies.items():
            if name in notify:
                continue
            for fn in fns:
                if _called_names(fn) & notify:
                    notify.add(name)
                    changed = True
                    break
    return notify


def _reads(
    fn: ast.FunctionDef, *, include_bare_self: bool
) -> Tuple[Set[str], Set[str]]:
    """(attribute names read, member names consulted for expansion).

    A read through bare ``self`` only counts when ``include_bare_self``
    (expanded property bodies — their ``self`` is another object at the
    call site).  Every attribute/method touched is an expansion candidate.
    """
    reads: Set[str] = set()
    consulted: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            consulted.add(node.attr)
            receiver_is_bare_self = (
                isinstance(node.value, ast.Name) and node.value.id == "self"
            )
            if include_bare_self or not receiver_is_bare_self:
                reads.add(node.attr)
    return reads, consulted


def _shared_read_set(ctx: FileContext, declaring: List[ast.ClassDef]) -> Set[str]:
    member_defs: Dict[str, List[ast.FunctionDef]] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef):
            for name, fn in _methods(node).items():
                member_defs.setdefault(name, []).append(fn)

    shared: Set[str] = set()
    pending: List[str] = []
    expanded: Set[str] = set()

    for cls in declaring:
        methods = _methods(cls)
        for mname in _ADMISSION_METHODS:
            fn = methods.get(mname)
            if fn is None:
                continue
            reads, consulted = _reads(fn, include_bare_self=False)
            shared |= reads
            pending.extend(consulted)

    while pending:
        name = pending.pop()
        if name in expanded or name not in member_defs:
            continue
        if name in _ADMISSION_METHODS or name == "__init__":
            continue
        expanded.add(name)
        for fn in member_defs[name]:
            reads, consulted = _reads(fn, include_bare_self=True)
            shared |= reads
            pending.extend(consulted)
    return shared


def _mutations(fn: ast.FunctionDef, shared: Set[str]) -> Iterator[Tuple[ast.AST, str]]:
    aliases = _aliases(fn)
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
                chain = _attr_chain(node.func.value, aliases)
                if chain and chain[-1] in shared:
                    yield node, chain[-1]
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (
                [node.target] if isinstance(node, ast.AugAssign) else node.targets
            )
            for target in targets:
                if isinstance(target, ast.Attribute):
                    chain = _attr_chain(target, aliases)
                elif isinstance(target, ast.Subscript):
                    chain = _attr_chain(target.value, aliases)
                else:
                    continue
                if chain and chain[-1] in shared:
                    yield target, chain[-1]


@register_rule(
    CODE,
    "invalidation-protocol",
    "writes to admission-dependency state must pair with notify_changed",
)
def check_invalidation(ctx: FileContext) -> List[Finding]:
    declaring = [
        node
        for node in ast.walk(ctx.tree)
        if isinstance(node, ast.ClassDef)
        and "admission_dependencies" in _methods(node)
        and _returns_non_none(_methods(node)["admission_dependencies"])
    ]
    if not declaring:
        return []
    shared = _shared_read_set(ctx, declaring)
    notify = _notifying_names(ctx)

    out: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for name, fn in _methods(node).items():
            if name == "__init__":
                continue
            sites = list(_mutations(fn, shared))
            if not sites:
                continue
            if _called_names(fn) & notify:
                continue
            for site, attr in sites:
                out.append(
                    ctx.finding(
                        CODE,
                        site,
                        f"{node.name}.{name} mutates admission-dependency "
                        f"state '{attr}' with no notify_changed on any path",
                    )
                )
    return out
