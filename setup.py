"""Package metadata for ``repro``, in one self-contained file.

The name, the version (parsed from ``src/repro/__init__.py`` without
importing the package) and the ``src/`` layout are all declared here.
Install with::

    pip install .
    python setup.py develop   # where PEP 660 editable installs are unavailable
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

HERE = Path(__file__).resolve().parent


def read_version() -> str:
    init = (HERE / "src" / "repro" / "__init__.py").read_text(encoding="utf-8")
    match = re.search(r'^__version__\s*=\s*["\']([^"\']+)["\']', init, re.MULTILINE)
    if match is None:
        raise RuntimeError("no __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro",
    version=read_version(),
    description=(
        "A reproduction of Safe Locking Policies for Dynamic Databases "
        "(Chaudhri & Hadzilacos)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
)
