"""The import layers of docs/ARCHITECTURE.md, read from the source.

The layers, bottom to top::

    exceptions < core < graphs < {policies, enumeration} < sim
               < {verify, viz} < bench

with the kernel/service split threaded through the middle: ``repro.kernel``
may import the sim state layers it absorbed (lock table, waits-for,
deadlock, admission, live, metrics, event log, executor) but never the
drivers above it nor the reference oracle; ``repro.service`` imports the
kernel package and nothing from ``repro.sim`` or ``repro.core`` (the one
core name it speaks, ``LockMode``, is a kernel re-export).  ``repro.sim``
may import the kernel but never the service.  ``sim/reference.py`` is the
executable specification and stays independent of the event-engine
internals it is the oracle for, otherwise a bug could reach both sides of
the equivalence suites and cancel out.  ``repro._exports`` imports nothing
from ``repro``: every package init imports it.

The check walks the AST of every module under ``src/repro``, so an import
inside a function body or under ``TYPE_CHECKING`` counts as much as one at
the top; an import-closure test that runs a module would miss the first
until that function runs.  Relative imports are resolved against the
module, and each entry ``"name": ".sub"`` of a package init's
``_EXPORTS`` table counts as ``from .sub import name``.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: (module prefix, forbidden import prefixes).  Every matching row applies.
LAYER_RULES = (
    ("repro.exceptions", (
        "repro.core", "repro.graphs", "repro.policies", "repro.enumeration",
        "repro.sim", "repro.kernel", "repro.service", "repro.verify",
        "repro.viz", "repro.bench",
    )),
    ("repro.core", (
        "repro.graphs", "repro.policies", "repro.enumeration", "repro.sim",
        "repro.kernel", "repro.service", "repro.verify", "repro.viz",
        "repro.bench",
    )),
    ("repro.graphs", (
        "repro.policies", "repro.enumeration", "repro.sim", "repro.kernel",
        "repro.service", "repro.verify", "repro.viz", "repro.bench",
    )),
    ("repro.policies", (
        "repro.sim", "repro.kernel", "repro.service", "repro.enumeration",
        "repro.verify", "repro.viz", "repro.bench",
    )),
    ("repro.enumeration", (
        "repro.sim", "repro.kernel", "repro.service", "repro.verify",
        "repro.viz", "repro.bench",
    )),
    ("repro.sim", (
        "repro.service", "repro.verify", "repro.viz", "repro.bench",
    )),
    ("repro.sim.reference", (
        "repro.sim.scheduler", "repro.sim.admission", "repro.sim.waits_for",
    )),
    # The kernel absorbs sim's *state* layers; the drivers and the
    # reference oracle stay strictly above it.
    ("repro.kernel", (
        "repro.sim.scheduler", "repro.sim.runner", "repro.sim.workloads",
        "repro.sim.reference", "repro.sim.artifacts",
        "repro.service", "repro.enumeration", "repro.verify", "repro.viz",
        "repro.bench",
    )),
    # The service sees the kernel's API surface and nothing below it.
    ("repro.service", (
        "repro.sim", "repro.core", "repro.graphs", "repro.enumeration",
        "repro.verify", "repro.viz", "repro.bench",
    )),
    ("repro.verify", ("repro.bench", "repro.viz")),
    ("repro.viz", ("repro.verify", "repro.bench")),
    ("repro._exports", ("repro",)),
)


def _under(module, prefix):
    return module == prefix or module.startswith(prefix + ".")


def _imports(module, is_package, tree):
    """Every (line, absolute dotted target) the module imports, with the
    per-name submodule targets of ``from pkg import name``."""
    nodes = list(ast.walk(tree))
    for node in tree.body if is_package else ():
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets
        ):
            for key, value in zip(node.value.keys, node.value.values):
                sub = value.value.lstrip(".")
                nodes.append(ast.ImportFrom(
                    module=sub or None, names=[ast.alias(name=key.value)],
                    level=len(value.value) - len(sub), lineno=value.lineno,
                ))
    package = module.split(".") if is_package else module.split(".")[:-1]
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module.split(".") if node.module else []
            if node.level:
                base = package[: max(len(package) - node.level + 1, 0)] + base
            yield node.lineno, ".".join(base)
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, ".".join(base + [alias.name])


def violations(module, is_package, source):
    """``"line: imports target (forbidden to layer)"`` for each import of
    ``module`` that one of its layer rules forbids."""
    rules = [
        (layer, banned)
        for layer, forbidden in LAYER_RULES if _under(module, layer)
        for banned in forbidden
    ]
    return sorted({
        f"{line}: imports {target} ({banned} is forbidden to {layer})"
        for line, target in _imports(module, is_package, ast.parse(source))
        for layer, banned in rules
        if _under(target, banned)
    })


def _modules():
    for path in sorted(SRC.glob("repro/**/*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        yield ".".join(parts[:-1] if is_package else parts), is_package, path


def test_src_keeps_its_layers():
    found = {
        module: bad
        for module, is_package, path in _modules()
        for bad in [violations(module, is_package, path.read_text())]
        if bad
    }
    assert found == {}


def test_every_layer_has_modules():
    modules = [module for module, _, _ in _modules()]
    for layer, _ in LAYER_RULES:
        assert any(_under(m, layer) for m in modules), layer


@pytest.mark.parametrize("module, is_package, source", [
    # A policy reaching into the event engine.
    ("repro.policies.fixture", False,
     "from repro.sim.scheduler import Simulator\n"),
    # An import the interpreter only meets when the function runs.
    ("repro.service.server", False,
     "def later():\n    import repro.sim\n"),
    # A relative import, climbing two packages.
    ("repro.service.server", False, "from ..sim import lock_table\n"),
    # A name bound via ``from package import submodule``.
    ("repro.sim.reference", False, "from repro.sim import admission\n"),
    # An import made only for type checkers.
    ("repro.kernel.core", False,
     "from typing import TYPE_CHECKING\n"
     "if TYPE_CHECKING:\n    from ..sim.scheduler import Simulator\n"),
    # A lazy export entry in a package init.
    ("repro.service", True,
     '_EXPORTS = {\n    "LockService": ".server",\n'
     '    "Simulator": "..sim.scheduler",\n}\n'),
    ("repro._exports", False, "import repro\n"),
])
def test_a_crossing_import_is_found(module, is_package, source):
    assert violations(module, is_package, source) != []


@pytest.mark.parametrize("module, is_package, source", [
    # The kernel may read the sim state layers it absorbed.
    ("repro.kernel.core", False,
     "from ..sim.lock_table import LockTable\n"
     "from ..sim.waits_for import WaitsForGraph\n"),
    # ``from repro.sim import lock_table`` names the package and one state
    # layer; neither is a driver.
    ("repro.kernel.core", False, "from repro.sim import lock_table\n"),
    # The service speaks to the kernel package.
    ("repro.service.server", False, "from ..kernel import LockKernel\n"),
    # The event engine drives the kernel.
    ("repro.sim.scheduler", False, "from ..kernel.lifecycle import KernelRun\n"),
    # The oracle shares the leaf helpers, only not the engine internals.
    ("repro.sim.reference", False,
     "from . import deadlock\nfrom .live import LiveEntry\n"),
    # An export table that stays inside its own package.
    ("repro.service", True, '_EXPORTS = {\n    "LockService": ".server",\n}\n'),
    # Only a package init's ``_EXPORTS`` is an import table.
    ("repro.sim.scheduler", False, '_EXPORTS = {"Runner": "..bench.cli"}\n'),
    # A stdlib module, and a name that merely starts with ``repro``.
    ("repro._exports", False, "import importlib\nimport reprolib\n"),
])
def test_an_allowed_import_is_not_flagged(module, is_package, source):
    assert violations(module, is_package, source) == []


@pytest.mark.parametrize("module, is_package, source, line", [
    ("repro.service.server", False,
     "import asyncio\n\n\ndef later():\n    import repro.sim\n", 5),
    ("repro.service", True,
     '_EXPORTS = {\n    "LockService": ".server",\n'
     '    "Simulator": "..sim.scheduler",\n}\n', 3),
    ("repro.kernel.core", False,
     "from typing import TYPE_CHECKING\n"
     "if TYPE_CHECKING:\n    from ..sim.scheduler import Simulator\n", 3),
])
def test_a_crossing_is_reported_on_its_line(module, is_package, source, line):
    found = violations(module, is_package, source)
    assert found and all(f.startswith(f"{line}: ") for f in found)
