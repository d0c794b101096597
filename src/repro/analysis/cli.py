"""The ``python -m repro.lint`` command line.

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage errors.  ``--format
github`` emits GitHub Actions workflow commands
(``::error file=...,line=...::``) so findings annotate the PR diff.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .core import Finding
from .engine import analyze_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Project-specific static analysis (RPR001, RPR003).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "github"),
        default="human",
        help="output format (default: human); 'github' emits Actions "
        "::error annotations",
    )
    return parser


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
    args = build_parser().parse_args(argv)
    try:
        findings = analyze_paths(args.paths)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    render = render_github if args.format == "github" else Finding.render
    for f in findings:
        print(render(f))
    print(f"{len(findings)} finding(s)")
    return 1 if findings else 0
