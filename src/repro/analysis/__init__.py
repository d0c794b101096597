"""``repro.analysis`` — project-specific static analysis (the lint layer).

The equivalence suites prove the event engine and the multiprocess grid
byte-identical to their references — but only for the seeds they run.
The rules that make determinism *structural* (sorted iteration on
order-reaching paths, the layer DAG) live here as machine-checked
contracts:

* **RPR001** — determinism hazards (unsorted set iteration, bare
  ``random.*``, wall-clock reads, ordering via ``id()``);
* **RPR003** — layering (the docs/ARCHITECTURE.md import DAG).

The invalidation contract (``admission_dependencies`` vs
``notify_changed``) is checked at run time instead, by the naive/event
matrix in ``tests/test_invalidation.py``.

Every rule checks one file at a time.  Run as ``python -m repro.lint
[paths] [--format human|github]``.  This package imports nothing from
the rest of ``repro`` (enforced by RPR003 on itself), so the linter can
never be broken by the code it checks.
"""

from .core import Finding
from .engine import analyze_paths

__all__ = ["Finding", "analyze_paths"]
