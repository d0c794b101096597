"""RPR003 — layering conformance (the docs/ARCHITECTURE.md import DAG).

The repo's layers, bottom to top::

    exceptions < core < graphs < {policies, enumeration} < sim
               < {verify, viz} < bench

with the kernel/service split (PR 9) threaded through the middle:
``repro.kernel`` sits *between* the sim state layers and the drivers —
it may import the state layers it absorbed (lock table, waits-for,
deadlock, admission, live, metrics, event log, executor) but never the
drivers above it (``sim.scheduler``, ``sim.runner``, ``sim.grid``) nor
the reference oracle; ``repro.service`` is a front-end that imports
the kernel package and nothing from ``repro.sim`` or ``repro.core`` —
the kernel modules it calls run on the sim state layers, and the one
core name it speaks (``LockMode``) is a kernel re-export.
``repro.sim`` may import the kernel (the scheduler's ``_Run`` is a
kernel driver) but never the service.

Special cases:

* ``sim/reference.py`` is the executable specification — it must stay
  independent of the event-engine internals (``scheduler``, ``admission``,
  ``waits_for``) it is the oracle for, otherwise a bug could propagate to
  both sides of the equivalence suites and cancel out.
* ``repro.analysis`` / ``repro.lint`` import nothing from the rest of
  ``repro``: the linter must not be breakable by the code it checks.
  The package inits export lazily (``repro/_exports.py``), so running
  ``repro/__init__.py`` on the way to the linter loads no other layer.
* ``repro._exports`` imports nothing from ``repro``: every package init
  imports it.

The table below encodes *forbidden* prefixes per module prefix (every
matching rule applies, most specific included).  Relative imports are
resolved against the file's module name before matching.  A package
init's ``_EXPORTS`` table counts as imports too: each entry ``"name":
".sub"`` is checked as ``from .sub import name``, on the entry's line.
"""

from __future__ import annotations

import ast
from itertools import chain
from typing import Iterator, List, Optional, Tuple

from .core import FileContext, Finding

CODE = "RPR003"

_ANALYSIS_FORBIDDEN = (
    "repro.exceptions", "repro.core", "repro.graphs", "repro.policies",
    "repro.enumeration", "repro.sim", "repro.kernel", "repro.service",
    "repro.verify", "repro.viz", "repro.bench",
)

#: (module prefix, forbidden import prefixes).  Every matching row applies.
LAYER_RULES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("repro.exceptions", (
        "repro.core", "repro.graphs", "repro.policies", "repro.enumeration",
        "repro.sim", "repro.kernel", "repro.service", "repro.verify",
        "repro.viz", "repro.bench", "repro.analysis", "repro.lint",
    )),
    ("repro.core", (
        "repro.graphs", "repro.policies", "repro.enumeration", "repro.sim",
        "repro.kernel", "repro.service", "repro.verify", "repro.viz",
        "repro.bench", "repro.analysis", "repro.lint",
    )),
    ("repro.graphs", (
        "repro.policies", "repro.enumeration", "repro.sim", "repro.kernel",
        "repro.service", "repro.verify", "repro.viz", "repro.bench",
        "repro.analysis", "repro.lint",
    )),
    ("repro.policies", (
        "repro.sim", "repro.kernel", "repro.service", "repro.enumeration",
        "repro.verify", "repro.viz", "repro.bench", "repro.analysis",
        "repro.lint",
    )),
    ("repro.enumeration", (
        "repro.sim", "repro.kernel", "repro.service", "repro.verify",
        "repro.viz", "repro.bench", "repro.analysis", "repro.lint",
    )),
    ("repro.sim", (
        "repro.service", "repro.verify", "repro.viz", "repro.bench",
        "repro.analysis", "repro.lint",
    )),
    ("repro.sim.reference", (
        "repro.sim.scheduler", "repro.sim.admission", "repro.sim.waits_for",
    )),
    # The kernel absorbs sim's *state* layers; the drivers and the
    # reference oracle stay strictly above it.
    ("repro.kernel", (
        "repro.sim.scheduler", "repro.sim.runner", "repro.sim.grid",
        "repro.sim.workloads", "repro.sim.reference", "repro.sim.artifacts",
        "repro.service", "repro.enumeration", "repro.verify", "repro.viz",
        "repro.bench", "repro.analysis", "repro.lint",
    )),
    # The service sees the kernel's API surface and nothing below it.
    ("repro.service", (
        "repro.sim", "repro.core", "repro.graphs", "repro.enumeration",
        "repro.verify", "repro.viz", "repro.bench", "repro.analysis",
        "repro.lint",
    )),
    ("repro.verify", ("repro.bench", "repro.viz", "repro.analysis", "repro.lint")),
    ("repro.viz", ("repro.verify", "repro.bench", "repro.analysis", "repro.lint")),
    ("repro.bench", ("repro.analysis", "repro.lint")),
    ("repro.analysis", _ANALYSIS_FORBIDDEN),
    ("repro.lint", _ANALYSIS_FORBIDDEN),
    ("repro._exports", ("repro",)),
)


def _matches(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def _is_package(ctx: FileContext) -> bool:
    return ctx.path.replace("\\", "/").endswith("__init__.py")


def _resolve_relative(
    ctx: FileContext, node: ast.ImportFrom
) -> Optional[str]:
    """The absolute module an ``ImportFrom`` refers to (None if the
    relative import climbs out of the known package)."""
    if node.level == 0:
        return node.module
    parts = ctx.module.split(".") if ctx.module else []
    base = parts if _is_package(ctx) else parts[:-1]
    climb = node.level - 1
    if climb > len(base):
        return None
    if climb:
        base = base[:-climb]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


def _export_entries(ctx: FileContext) -> Iterator[ast.ImportFrom]:
    """Each entry of a package init's module-level ``_EXPORTS`` table
    (name -> submodule, see ``repro/_exports.py``) as the ``from
    <submodule> import <name>`` it stands for, located at the entry."""
    if not _is_package(ctx):
        return
    for node in ctx.tree.body:
        if not (
            isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
            and any(
                isinstance(t, ast.Name) and t.id == "_EXPORTS"
                for t in node.targets
            )
        ):
            continue
        for key, value in zip(node.value.keys, node.value.values):
            if not (
                isinstance(key, ast.Constant) and isinstance(key.value, str)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                continue
            module = value.value.lstrip(".")
            entry = ast.ImportFrom(
                module=module or None,
                names=[ast.alias(name=key.value)],
                level=len(value.value) - len(module),
            )
            yield ast.copy_location(entry, value)


def _imports(ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
    """Every (node, absolute dotted target) imported by the file,
    including per-alias submodule targets of ``from pkg import name``
    and the entries of a package init's ``_EXPORTS`` table."""
    for node in chain(ast.walk(ctx.tree), _export_entries(ctx)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative(ctx, node)
            if base is None:
                continue
            yield node, base
            for alias in node.names:
                if alias.name != "*":
                    yield node, f"{base}.{alias.name}"


def check_layering(ctx: FileContext) -> List[Finding]:
    forbidden: List[Tuple[str, str]] = []
    for prefix, banned in LAYER_RULES:
        if _matches(ctx.module, prefix):
            forbidden.extend((prefix, b) for b in banned)
    if not forbidden:
        return []
    out: List[Finding] = []
    seen = set()
    for node, target in _imports(ctx):
        for layer, banned in forbidden:
            if _matches(target, banned):
                key = (node.lineno, banned)
                if key in seen:
                    continue
                seen.add(key)
                out.append(
                    ctx.finding(
                        CODE,
                        node,
                        f"layer '{layer}' must not import '{banned}' "
                        f"(imports {target})",
                    )
                )
                break
    return out
