"""Shared helpers for the benchmark harness.

Each bench module reproduces one figure/theorem of the paper: it prints the
paper-vs-measured comparison and asserts the shape the paper predicts.
"""

from __future__ import annotations


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
