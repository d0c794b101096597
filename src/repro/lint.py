"""``python -m repro.lint`` — the project's static-analysis gate.

Thin runnable wrapper over :mod:`repro.analysis` (rules RPR001 and
RPR003: determinism hazards and layering).  See docs/ARCHITECTURE.md
§ Analysis layer.
"""

from __future__ import annotations

import sys

from .analysis.cli import build_parser, main

__all__ = ["build_parser", "main"]

if __name__ == "__main__":
    sys.exit(main())
