"""Findings, the per-file context, and suppressions.

A rule is a function ``(FileContext) -> List[Finding]``; the engine
(:mod:`repro.analysis.engine`) parses each file once and hands both
rules the same context.

Suppressions are per line and must carry a reason::

    bad_call()  # repro: noqa[RPR001] builds a set; order never escapes

A ``noqa`` with no reason is itself a finding (**RPR000**) — an
undocumented suppression is exactly the reviewer-memory problem this
subsystem replaces.  Nothing is grandfathered: an accepted finding carries
its reason on its own line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

#: Code for meta-findings produced by the engine itself (reasonless noqa,
#: unparsable files).
META_CODE = "RPR000"

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Z0-9,\s]+)\]\s*(.*)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    code: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class FileContext:
    """Everything a rule needs about one parsed file."""

    path: str
    module: str
    tree: ast.Module
    lines: List[str]
    parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        cur = self.parents.get(node)
        while cur is not None:
            yield cur
            cur = self.parents.get(cur)

    def enclosing(self, node: ast.AST, *kinds) -> Optional[ast.AST]:
        """The nearest ancestor of one of ``kinds`` (or None)."""
        for anc in self.ancestors(node):
            if isinstance(anc, kinds):
                return anc
        return None

    def finding(self, code: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            code=code,
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Suppression:
    line: int
    codes: frozenset
    reason: str


def parse_suppressions(lines: Sequence[str]) -> Dict[int, Suppression]:
    """Per-line ``# repro: noqa[CODE, ...] reason`` markers (1-based)."""
    out: Dict[int, Suppression] = {}
    for i, text in enumerate(lines, start=1):
        m = _NOQA_RE.search(text)
        if m is None:
            continue
        codes = frozenset(c.strip() for c in m.group(1).split(",") if c.strip())
        out[i] = Suppression(line=i, codes=codes, reason=m.group(2).strip())
    return out


def apply_suppressions(
    findings: Iterable[Finding],
    suppressions: Dict[int, Suppression],
    path: str,
) -> List[Finding]:
    """Drop suppressed findings; add an RPR000 for each reasonless or
    unused-code-free marker problem (a reasonless noqa is flagged even when
    it suppresses nothing — it is dead weight either way)."""
    kept: List[Finding] = []
    for f in findings:
        sup = suppressions.get(f.line)
        if sup is not None and f.code in sup.codes:
            continue
        kept.append(f)
    for sup in suppressions.values():
        if not sup.reason:
            kept.append(
                Finding(
                    code=META_CODE,
                    path=path,
                    line=sup.line,
                    col=0,
                    message=(
                        "suppression without a reason: write "
                        "'# repro: noqa[CODE] why this is safe'"
                    ),
                )
            )
    return kept
