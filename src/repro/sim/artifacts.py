"""Unified BENCH_*.json artifact writer.

The ``python -m repro.bench`` CLI writes through
:func:`write_bench_artifact`, and ``--compare`` diffs two such files row
by row, so one payload layout serves every artifact:

.. code-block:: json

    {
      "bench": "<bench name>",
      "schema": 1,
      "scale": 1.0,            // the --scale the run used
      "wall_s": 12.34,         // harness wall clock, if measured
      "rows": [ ... ],         // per-cell dict rows, one shared key set
      "extra": { ... }         // optional bench-specific payload
    }
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

#: Bump when the payload layout changes incompatibly.
SCHEMA_VERSION = 1

#: Row keys that may legitimately be absent from some rows of one
#: artifact: ``CellResult.row()`` lists ``failed_seeds`` only when a seed
#: failed.
OPTIONAL_ROW_KEYS = frozenset({"failed_seeds"})


def _validate_rows(rows: Sequence[Dict[str, object]]) -> None:
    """Artifact rows must be string-keyed mappings with one shared key set
    (modulo :data:`OPTIONAL_ROW_KEYS`) — a ragged table silently breaks
    the cross-PR perf comparison the unified schema exists for."""
    for i, row in enumerate(rows):
        if not isinstance(row, Mapping):
            raise TypeError(f"row {i} is not a mapping: {type(row).__name__}")
        bad = [k for k in row if not isinstance(k, str)]
        if bad:
            raise TypeError(f"row {i} has non-string key(s): {bad!r}")
    if not rows:
        return
    base = set(rows[0]) - OPTIONAL_ROW_KEYS
    for i, row in enumerate(rows):
        keys = set(row) - OPTIONAL_ROW_KEYS
        if keys != base:
            raise ValueError(
                f"row {i} keys {sorted(keys)} do not match row 0 keys "
                f"{sorted(base)}"
            )


def bench_artifact(
    bench: str,
    rows: Sequence[Dict[str, object]],
    *,
    scale: float = 1.0,
    wall_s: Optional[float] = None,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble the unified artifact payload (see the module docstring).

    Raises ``TypeError``/``ValueError`` for rows that are not string-keyed
    mappings sharing one key set (see :func:`_validate_rows`).
    """
    _validate_rows(rows)
    payload: Dict[str, object] = {
        "bench": bench,
        "schema": SCHEMA_VERSION,
        "scale": scale,
        "rows": list(rows),
    }
    if wall_s is not None:
        payload["wall_s"] = round(wall_s, 3)
    if extra:
        payload["extra"] = dict(extra)
    return payload


def write_bench_artifact(
    path: Union[str, Path],
    bench: str,
    rows: Sequence[Dict[str, object]],
    **kwargs,
) -> Dict[str, object]:
    """Write the unified artifact to ``path``, creating missing parent
    directories (``--out path/to/new_dir/file.json`` must not crash a
    bench run at the very end); returns the payload."""
    payload = bench_artifact(bench, rows, **kwargs)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return payload

