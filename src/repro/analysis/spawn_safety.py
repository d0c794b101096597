"""RPR004 — spawn safety of the multiprocess grid.

``run_grid`` fans ``_SeedTask``s out to ``spawn`` workers, so everything a
task references must be importable and picklable in a fresh interpreter:
grid factories must be module-level functions registered under a stable
name, and the specs (``PolicySpec``/``WorkloadSpec``/``GridSpec``) must
not smuggle lambdas, closures, or local classes across the process
boundary (``WorkloadItem``s never cross it — workers rebuild them from
specs — so closures *inside* factory bodies are fine and are not
flagged).

Flagged:

* ``@register_grid_factory(...)`` on a def that is not at module level;
* assignment into ``GRID_FACTORIES`` anywhere but module level, or of a
  lambda;
* a ``lambda`` anywhere inside a ``PolicySpec``/``WorkloadSpec``/
  ``GridSpec``/``_SeedTask`` construction;
* passing a locally-defined function or class by name into one of those
  constructions.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from .core import Finding, register_rule
from .engine import FileContext

CODE = "RPR004"

_REGISTRY_DECORATOR = "register_grid_factory"
_REGISTRY_NAME = "GRID_FACTORIES"
_SPEC_NAMES = {"PolicySpec", "WorkloadSpec", "GridSpec", "_SeedTask"}


def _decorator_name(dec: ast.AST) -> Optional[str]:
    if isinstance(dec, ast.Call):
        dec = dec.func
    if isinstance(dec, ast.Name):
        return dec.id
    if isinstance(dec, ast.Attribute):
        return dec.attr
    return None


def _call_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _local_defs(fn: ast.AST) -> Set[str]:
    """Names of functions/classes defined directly inside ``fn``'s body
    (one level is enough: passing them into a spec is the bug)."""
    out: Set[str] = set()
    for stmt in ast.walk(fn):
        if stmt is fn:
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(stmt.name)
    return out


def _check_registrations(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                if _decorator_name(dec) == _REGISTRY_DECORATOR and not isinstance(
                    ctx.parent(node), ast.Module
                ):
                    yield ctx.finding(
                        CODE,
                        node,
                        f"grid factory '{node.name}' is registered below module "
                        "level; spawn workers cannot import it",
                    )
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == _REGISTRY_NAME
                ):
                    if isinstance(node.value, ast.Lambda):
                        yield ctx.finding(
                            CODE,
                            node.value,
                            f"lambda assigned into {_REGISTRY_NAME}; lambdas "
                            "do not pickle across spawn",
                        )
                    elif not isinstance(ctx.parent(node), ast.Module):
                        yield ctx.finding(
                            CODE,
                            node,
                            f"{_REGISTRY_NAME} mutated below module level; "
                            "spawn workers will not see the entry",
                        )


def _check_spec_calls(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call) and _call_name(node) in _SPEC_NAMES):
            continue
        spec = _call_name(node)
        enclosing_fn = ctx.enclosing(node, ast.FunctionDef, ast.AsyncFunctionDef)
        locals_here = _local_defs(enclosing_fn) if enclosing_fn is not None else set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Lambda):
                yield ctx.finding(
                    CODE,
                    sub,
                    f"lambda inside a {spec} construction; grid specs must "
                    "be picklable for spawn workers",
                )
            elif (
                isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Load)
                and sub.id in locals_here
            ):
                yield ctx.finding(
                    CODE,
                    sub,
                    f"locally-defined '{sub.id}' inside a {spec} construction; "
                    "spawn workers cannot unpickle non-module-level objects",
                )


@register_rule(
    CODE,
    "spawn-safety",
    "grid factories and specs must be module-level and picklable",
)
def check_spawn_safety(ctx: FileContext) -> List[Finding]:
    out = list(_check_registrations(ctx))
    out.extend(_check_spec_calls(ctx))
    return out
