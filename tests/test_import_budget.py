"""What an entry point loads.

The package inits export lazily (``repro/_exports.py``), so importing a
package loads only the submodules its caller reaches.  Each budget runs
one import in a fresh interpreter and lists the modules it must *not*
load: a stray eager import in an init, or a module-level import that
climbs into a heavier layer, shows up here as a named module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def loaded_after(statement: str) -> list:
    """The ``sys.modules`` keys after ``statement`` in a fresh interpreter."""
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(out.stdout.splitlines()[-1])


def offenders(loaded, excluded) -> list:
    """The loaded modules that are, or sit under, one of ``excluded``."""
    return [
        name for name in loaded
        if any(name == x or name.startswith(x + ".") for x in excluded)
    ]


BUDGETS = {
    "from repro.service import LockService": (
        "repro.sim.scheduler", "repro.sim.grid", "repro.policies",
        "repro.core.schedules", "repro.core.canonical",
        "multiprocessing", "statistics",
    ),
    "from repro.sim import Simulator": (
        "repro.sim.grid", "repro.sim.runner", "repro.sim.artifacts",
        "repro.core.canonical", "repro.core.safety", "repro.core.completion",
        "repro.kernel.core", "multiprocessing", "statistics",
    ),
}


@pytest.mark.parametrize("statement", sorted(BUDGETS))
def test_entry_point_loads_within_budget(statement):
    loaded = loaded_after(statement)
    assert offenders(loaded, BUDGETS[statement]) == []


def test_budget_sees_what_it_excludes():
    """The check itself: a full import loads every excluded module."""
    loaded = loaded_after(
        "import repro.sim.grid, repro.sim.artifacts, repro.core.safety, "
        "repro.kernel.core, repro.policies, repro.service"
    )
    for excluded in BUDGETS.values():
        for pattern in excluded:
            assert offenders(loaded, (pattern,)), pattern
