"""The ``python -m repro.lint`` command line.

Exit codes: ``0`` clean (baseline-grandfathered findings do not fail the
run), ``1`` findings, ``2`` usage errors.  ``--format json`` emits a
stable machine-readable document for CI; ``--format github`` emits
GitHub Actions workflow commands (``::error file=...,line=...::``) so
findings annotate the PR diff; ``--write-baseline`` snapshots the
current findings so a newly-adopted rule can be burned down
incrementally instead of blocking the tree.

``--write-baseline`` composes with ``--select``: only the selected
rules' entries are rewritten, and existing baseline entries for
*unselected* rules are merged back in unchanged (snapshotting one new
rule must not silently un-grandfather every other rule's debt).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .core import Finding, all_rules, load_baseline, save_baseline
from .engine import analyze_paths

DEFAULT_BASELINE = "lint_baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Project-specific static analysis (RPR001–RPR004).",
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
        "--baseline",
        default=DEFAULT_BASELINE,
        metavar="PATH",
        help=f"baseline file of grandfathered findings (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file entirely",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="snapshot current findings into the baseline file and exit 0",
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


def merged_baseline_fingerprints(
    existing: "set[str]", findings: Sequence[Finding], select: Optional[Sequence[str]]
) -> "set[str]":
    """Fingerprints for a baseline rewrite: the current findings, plus —
    when ``--select`` restricted the run — the existing entries of every
    *unselected* rule, carried over unchanged (a selective snapshot must
    not discard the other rules' grandfathered debt)."""
    fps = {f.fingerprint for f in findings}
    if select:
        selected = set(select)
        fps |= {fp for fp in existing if fp.split(":", 1)[0] not in selected}
    return fps


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, rule in sorted(all_rules().items()):
            print(f"{code}  {rule.name}: {rule.description}")
        return 0

    try:
        select = _parse_select(args.select)
        baseline = set() if args.no_baseline else load_baseline(args.baseline)
        if args.write_baseline:
            findings, _ = analyze_paths(args.paths, select=select)
            fps = merged_baseline_fingerprints(baseline, findings, select)
            count = save_baseline(args.baseline, fps)
            print(f"wrote {count} finding(s) to {args.baseline}")
            return 0
        findings, grandfathered = analyze_paths(
            args.paths, select=select, baseline=baseline
        )
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
                    "baseline_suppressed": grandfathered,
                },
                indent=2,
            )
        )
    elif args.format == "github":
        for f in findings:
            print(render_github(f))
        suffix = f" ({grandfathered} baseline-grandfathered)" if grandfathered else ""
        print(f"{len(findings)} finding(s){suffix}")
    else:
        for f in findings:
            print(f.render())
        suffix = f" ({grandfathered} baseline-grandfathered)" if grandfathered else ""
        print(f"{len(findings)} finding(s){suffix}")
    return 1 if findings else 0
