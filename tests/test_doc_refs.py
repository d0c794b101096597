"""``docs/ARCHITECTURE.md`` names only what exists.

Two kinds of backticked reference are resolved against the tree:

* test ids — ``tests/test_x.py``, ``tests/test_x.py::name`` and
  ``tests/test_x.py::TestY::test_z`` (a ``[param]`` suffix is ignored),
  and bare ``TestY::test_z`` ids, which some test file must define;
* ``Class.attr`` names whose class is defined under ``repro``: the
  attribute must be on the imported class or its bases, or be assigned
  as ``self.attr`` / annotated in the body of one of them (instance
  attributes and dataclass fields).

Each test fails naming every dead reference with its line.
"""

import ast
import importlib
import inspect
import re
import textwrap
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOC = ROOT / "docs" / "ARCHITECTURE.md"

_SPAN = re.compile(r"`([^`\n]+)`")
_PARAM = re.compile(r"\[[^\]]*\]$")
_CLASS_ATTR = re.compile(r"(?<![\w.])([A-Z_]\w*)\.([A-Za-z_]\w*)")


def spans(text):
    """``(line, backticked text)`` for every inline code span."""
    return [
        (text.count("\n", 0, m.start()) + 1, m.group(1))
        for m in _SPAN.finditer(text)
    ]


# ----------------------------------------------------------------------
# Test ids
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _defined(path):
    """``{name: set of method names}`` for the test file's top-level
    classes (methods of bases defined in the same file included), and
    ``{name: set()}`` for its top-level functions."""
    tree = ast.parse((ROOT / path).read_text())
    bodies = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}

    def methods(node):
        own = {
            f.name for f in node.body
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for base in node.bases:
            if isinstance(base, ast.Name) and base.id in bodies:
                own |= methods(bodies[base.id])
        return own

    out = {name: methods(node) for name, node in bodies.items()}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[node.name] = set()
    return out


def _test_files():
    return [
        p.relative_to(ROOT).as_posix()
        for d in ("tests", "benchmarks")
        for p in sorted((ROOT / d).rglob("test_*.py"))
    ]


def _resolves(path, parts):
    if not parts:
        return True
    defined = _defined(path)
    if len(parts) > 2 or parts[0] not in defined:
        return False
    return len(parts) == 1 or parts[1] in defined[parts[0]]


def dead_test_ids(text):
    """Every test id in ``text`` that names no file, no top-level class
    or function of it, or no method of that class."""
    dead = []
    for line, span in spans(text):
        head, _, rest = span.partition("::")
        parts = [_PARAM.sub("", p) for p in rest.split("::")] if rest else []
        if head.startswith(("tests/", "benchmarks/")) and head.endswith(".py"):
            ok = (ROOT / head).is_file() and _resolves(head, parts)
        elif rest and re.fullmatch(r"Test\w*", head):
            ok = any(_resolves(f, [head, *parts]) for f in _test_files())
        else:
            continue
        if not ok:
            dead.append(f"line {line}: `{span}`")
    return dead


# ----------------------------------------------------------------------
# Class attributes
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def repro_classes():
    """``{class name: [module, ...]}`` for every top-level class under
    ``src/repro``."""
    src = ROOT / "src"
    out = {}
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                out.setdefault(node.name, []).append(module)
    return out


@lru_cache(maxsize=None)
def _assigned(cls):
    """Names the class body assigns as ``self.x`` or annotates."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    names = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            names.add(node.attr)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _has(cls, attr):
    return hasattr(cls, attr) or any(
        attr in _assigned(k)
        for k in cls.__mro__
        if k.__module__.split(".")[0] == "repro"
    )


def dead_class_refs(text):
    """Every ``Class.attr`` in ``text`` whose class is defined under
    ``repro`` and has no such attribute."""
    classes = repro_classes()
    dead = []
    for line, span in spans(text):
        for name, attr in _CLASS_ATTR.findall(span):
            if name in classes and not any(
                _has(getattr(importlib.import_module(m), name), attr)
                for m in classes[name]
            ):
                dead.append(f"line {line}: `{name}.{attr}` in `{span}`")
    return dead


# ----------------------------------------------------------------------


class TestArchitectureDoc:
    def test_every_test_id_resolves(self):
        assert dead_test_ids(DOC.read_text()) == []

    def test_every_repro_class_attribute_resolves(self):
        assert dead_class_refs(DOC.read_text()) == []


class TestTheCheck:
    def test_it_reads_the_doc(self):
        # Scanning nothing would pass vacuously.
        text = DOC.read_text()
        ids = [s for _, s in spans(text) if "::" in s]
        refs = [r for _, s in spans(text) for r in _CLASS_ATTR.findall(s)]
        assert len(ids) > 20 and len(refs) > 50

    def test_it_names_dead_references(self):
        text = "\n".join([
            "`Classifier.settle` and `AdmissionCache.route`",
            "`tests/test_doc_refs.py::TestTheCheck::test_it_names_dead_references`",
            "`tests/test_doc_refs.py::TestTheCheck::test_gone[x]`",
            "`TestArchitectureDoc::test_every_test_id_resolves`",
            "`TestNoSuchClass::test_x` and `tests/no_such_file.py`",
            "`Random.choice` is not a repro class",
        ])
        assert dead_class_refs(text) == [
            "line 1: `AdmissionCache.route` in `AdmissionCache.route`",
        ]
        assert dead_test_ids(text) == [
            "line 3: `tests/test_doc_refs.py::TestTheCheck::test_gone[x]`",
            "line 5: `TestNoSuchClass::test_x`",
            "line 5: `tests/no_such_file.py`",
        ]
