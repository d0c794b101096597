"""Findings, the rule registry, and suppressions.

A rule is a function ``(FileContext) -> Iterable[Finding]`` registered
under a stable ``RPR0xx`` code; the engine (:mod:`repro.analysis.engine`)
parses each file once and hands every selected rule the same context.

Suppressions are per line and must carry a reason::

    bad_call()  # repro: noqa[RPR001] builds a set; order never escapes

A ``noqa`` with no reason is itself a finding (**RPR000**) — an
undocumented suppression is exactly the reviewer-memory problem this
subsystem replaces.  Nothing is grandfathered: an accepted finding carries
its reason on its own line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

#: Code for meta-findings produced by the engine itself (reasonless noqa,
#: unparsable files).  Not selectable off.
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

    def as_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass(frozen=True)
class Rule:
    """A registered rule: stable code, short name, and the check."""

    code: str
    name: str
    description: str
    check: Callable[..., Iterable[Finding]] = field(repr=False)


_REGISTRY: Dict[str, Rule] = {}


def register_rule(code: str, name: str, description: str):
    """Decorator: register ``fn`` as the checker for ``code``."""

    def deco(fn: Callable) -> Callable:
        if code in _REGISTRY:
            raise ValueError(f"duplicate rule code {code!r}")
        _REGISTRY[code] = Rule(
            code=code, name=name, description=description, check=fn
        )
        return fn

    return deco


#: Alias kept for rule modules that read better as ``@rule(...)``.
rule = register_rule


def all_rules() -> Dict[str, Rule]:
    return dict(_REGISTRY)


def iter_rules(select: Optional[Sequence[str]] = None) -> Iterator[Rule]:
    """Registered rules in code order, optionally filtered to ``select``."""
    wanted = None if not select else set(select)
    if wanted is not None:
        unknown = wanted - set(_REGISTRY) - {META_CODE}
        if unknown:
            raise KeyError(
                f"unknown rule code(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(_REGISTRY))}"
            )
    for code in sorted(_REGISTRY):
        if wanted is not None and code not in wanted:
            continue
        yield _REGISTRY[code]


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
