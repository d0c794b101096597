"""File walking, parsing, and dispatch to the rules.

Each file is parsed once into a :class:`FileContext` carrying the AST, a
child→parent map (rules need to ask "what consumes this expression?"), the
source lines, and the file's *module name*.  The module name drives scoping
decisions (RPR001's sorted-iteration rule applies to ``repro.sim`` /
``repro.policies`` / ``repro.graphs``; RPR003's layer table is keyed on
it), and is derived from the path by locating the innermost ``src`` or
``repro`` component.  Fixture files can override it with a leading
``# repro-lint-module: dotted.name`` comment so the corpus under
``tests/lint_fixtures/`` exercises scoped rules without living in ``src/``.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .core import (
    META_CODE,
    FileContext,
    Finding,
    parse_suppressions,
    apply_suppressions,
)
from .determinism import check_determinism
from .layering import check_layering

#: Every rule, run on every file: RPR001, RPR003.
RULES = (check_determinism, check_layering)

_MODULE_OVERRIDE_RE = re.compile(r"#\s*repro-lint-module:\s*([\w.]+)")

_SKIP_DIRS = {"__pycache__", ".git", ".hg", ".mypy_cache", ".pytest_cache"}


def module_name_for(path: str, lines: Sequence[str]) -> str:
    """The dotted module name of ``path`` (see the module docstring)."""
    for text in lines[:5]:
        m = _MODULE_OVERRIDE_RE.search(text)
        if m is not None:
            return m.group(1)
    norm = path.replace(os.sep, "/")
    parts = [p for p in norm.split("/") if p not in ("", ".")]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    anchor = None
    if "src" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("src") + 1
    elif "repro" in parts:
        anchor = parts.index("repro")
    if anchor is None or anchor >= len(parts):
        return parts[-1] if parts else ""
    return ".".join(parts[anchor:])


def build_parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories to ``.py`` files, deterministically."""
    seen: Set[str] = set()
    for raw in paths:
        if os.path.isdir(raw):
            for dirpath, dirnames, filenames in os.walk(raw):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in _SKIP_DIRS and not d.startswith(".")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        full = os.path.join(dirpath, name)
                        if full not in seen:
                            seen.add(full)
                            yield full
        elif raw.endswith(".py"):
            if raw not in seen:
                seen.add(raw)
                yield raw


def load_context(path: str) -> Tuple[Optional[FileContext], Optional[Finding]]:
    """Parse ``path``; on syntax errors return an RPR000 finding instead of
    crashing the whole run."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return None, Finding(
            code=META_CODE,
            path=path,
            line=exc.lineno or 0,
            col=exc.offset or 0,
            message=f"file does not parse: {exc.msg}",
        )
    ctx = FileContext(
        path=path,
        module=module_name_for(path, lines),
        tree=tree,
        lines=lines,
        parents=build_parent_map(tree),
    )
    return ctx, None


def analyze_paths(paths: Sequence[str]) -> List[Finding]:
    """Findings over ``paths``, suppressions applied, in deterministic
    order.  Every file is parsed once and handed to each rule."""
    contexts: List[FileContext] = []
    raw: List[Finding] = []
    for path in iter_python_files(paths):
        ctx, parse_error = load_context(path)
        if ctx is None:
            if parse_error is not None:
                raw.append(parse_error)
            continue
        contexts.append(ctx)
        for check in RULES:
            raw.extend(check(ctx))

    suppressions = {
        ctx.path: parse_suppressions(ctx.lines) for ctx in contexts
    }
    by_path: Dict[str, List[Finding]] = {}
    for f in raw:
        by_path.setdefault(f.path, []).append(f)

    out: List[Finding] = []
    # Union so a file whose only problem is a reasonless noqa (no rule
    # findings at all) still gets its RPR000 meta-finding.
    for path in sorted(set(by_path) | set(suppressions)):
        out.extend(apply_suppressions(
            by_path.get(path, []), suppressions.get(path, {}), path
        ))
    out.sort(key=lambda f: (f.path, f.line, f.col, f.code, f.message))
    return out
