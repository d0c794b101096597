"""The public surface of the lazily exporting package inits, and the
examples that are its main callers."""

from __future__ import annotations

import glob
import importlib
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

PACKAGES = (
    "repro", "repro.core", "repro.graphs", "repro.policies", "repro.sim",
    "repro.kernel", "repro.service",
)

#: What ``from repro import *`` binds: the names the top-level init has
#: always re-exported from ``repro.core`` and ``repro.exceptions``.
REPRO_STAR = {
    "CanonicalWitness", "DatabaseState", "DeadlockError", "Entity", "Event",
    "IllegalScheduleError", "ImproperScheduleError", "InteractionGraph",
    "LockMode", "MalformedScheduleError", "MalformedTransactionError",
    "ModelError", "Operation", "PolicyViolation", "ReproError",
    "SafetyVerdict", "Schedule", "SearchBudgetExceeded",
    "SerializabilityGraph", "SimulationError", "Step", "StructuralState",
    "Transaction", "ValueState", "VerificationError", "all_two_phase",
    "analyze_two_phase", "assert_well_formed", "canonicalize",
    "decide_safety", "find_canonical_witness", "find_completion",
    "find_nonserializable_schedule", "is_completable", "is_safe_bruteforce",
    "is_safe_canonical", "is_serializable", "move", "parse_step",
    "parse_steps", "serializability_graph", "serialization_order",
    "split_at_first_cycle", "static_chordless_heuristic", "step",
    "transpose", "two_phase_locked", "validate_schedule",
}


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_is_its_submodules_object(name):
    package = importlib.import_module(name)
    assert package.__all__ == tuple(package._EXPORTS)
    for attr in package.__all__:
        source = importlib.import_module(package._EXPORTS[attr], name)
        assert getattr(package, attr) is getattr(source, attr), attr
        assert attr in vars(package)  # cached after the first lookup
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_raises_attribute_error_naming_the_package(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=f"module '{name}' has no attribute 'nope'"):
        package.nope


def test_star_import_binds_the_public_names():
    namespace: dict = {}
    exec("from repro import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == REPRO_STAR


EXAMPLES = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=os.path.basename)
def test_example_runs(path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, path], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
