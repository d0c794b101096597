"""Lazy package exports (PEP 562).

Each package init declares one ``_EXPORTS`` table, public name ->
relative submodule, and takes its module ``__getattr__`` and ``__dir__``
from :func:`attach`.  A name's submodule is imported the first time the
name is used, so importing a package loads only the submodules its
caller reaches; the resolved object is then cached in the package's
globals and later lookups never come back here.

This module imports nothing from the rest of ``repro`` (checked by
``tests/test_layering.py``): every package init imports it.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, List, Mapping, Tuple


def attach(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, resolving each name of
    ``exports`` from its submodule on first use."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        try:
            target = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(target, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
