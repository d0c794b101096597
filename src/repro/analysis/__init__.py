"""``repro.analysis`` — project-specific static analysis (the lint layer).

The equivalence suites prove the event engine and the multiprocess grid
byte-identical to their references — but only for the seeds they run.
The rules that make determinism *structural* (sorted iteration on
order-reaching paths, the invalidation-channel protocol, the layer DAG)
live here as machine-checked contracts:

* **RPR001** — determinism hazards (unsorted set iteration, bare
  ``random.*``, wall-clock reads, ordering via ``id()``);
* **RPR002** — invalidation-protocol conformance
  (``admission_dependencies`` vs ``notify_changed``);
* **RPR003** — layering (the docs/ARCHITECTURE.md import DAG).

Every rule checks one file at a time.  Run as ``python -m repro.lint
[paths] [--format human|json|github]``.  This package imports nothing
from the rest of ``repro`` (enforced by RPR003 on itself), so the linter
can never be broken by the code it checks.
"""

from .core import (
    Finding,
    Rule,
    all_rules,
    iter_rules,
    register_rule,
    rule,
)
from .engine import FileContext, analyze_file, analyze_paths, iter_python_files

# Importing the rule modules registers their rules.
from . import determinism  # noqa: F401  (registration import)
from . import invalidation  # noqa: F401  (registration import)
from . import layering  # noqa: F401  (registration import)

__all__ = [
    "Finding",
    "Rule",
    "FileContext",
    "all_rules",
    "analyze_file",
    "analyze_paths",
    "iter_python_files",
    "iter_rules",
    "register_rule",
    "rule",
]
