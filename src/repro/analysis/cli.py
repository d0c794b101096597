"""The ``python -m repro.lint`` command line.

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage errors.  ``--format
json`` emits a stable machine-readable document for CI; ``--format
github`` emits GitHub Actions workflow commands
(``::error file=...,line=...::``) so findings annotate the PR diff.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .core import Finding, all_rules
from .engine import analyze_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Project-specific static analysis (RPR001–RPR003).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "github"),
        default="human",
        help="output format (default: human); 'github' emits Actions "
        "::error annotations",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RPR0xx",
        help="only run these rule codes (repeatable, comma-separable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rule codes and exit",
    )
    return parser


def _parse_select(raw: Optional[Sequence[str]]) -> Optional[List[str]]:
    if not raw:
        return None
    out: List[str] = []
    for chunk in raw:
        out.extend(c.strip() for c in chunk.split(",") if c.strip())
    return out


def _github_escape(value: str) -> str:
    """Escape a workflow-command message per the Actions spec."""
    return (
        value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def render_github(finding: Finding) -> str:
    """One GitHub Actions ``::error`` annotation for ``finding``."""
    return (
        f"::error file={_github_escape(finding.path)},"
        f"line={finding.line},col={finding.col},"
        f"title={_github_escape(finding.code)}::"
        f"{_github_escape(finding.message)}"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, rule in sorted(all_rules().items()):
            print(f"{code}  {rule.name}: {rule.description}")
        return 0

    try:
        findings = analyze_paths(args.paths, select=_parse_select(args.select))
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        counts: dict = {}
        for f in findings:
            counts[f.code] = counts.get(f.code, 0) + 1
        print(
            json.dumps(
                {
                    "version": 1,
                    "findings": [f.as_dict() for f in findings],
                    "counts": counts,
                },
                indent=2,
            )
        )
    else:
        render = render_github if args.format == "github" else Finding.render
        for f in findings:
            print(render(f))
        print(f"{len(findings)} finding(s)")
    return 1 if findings else 0
