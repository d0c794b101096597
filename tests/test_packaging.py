"""``setup.py`` is self-contained: the metadata it reports comes from the
file itself and the package's ``__version__``, with no other file to
point at."""

import runpy
import subprocess
import sys
from pathlib import Path

import setuptools

import repro

ROOT = Path(__file__).resolve().parent.parent


def test_setup_reports_the_package_name_and_version():
    out = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    ).stdout.split()
    assert out[-2:] == ["repro", repro.__version__]


def test_setup_lists_every_package_under_src(monkeypatch):
    declared = {}
    monkeypatch.setattr(setuptools, "setup", lambda **kw: declared.update(kw))
    runpy.run_path(str(ROOT / "setup.py"))
    src = ROOT / "src"
    on_disk = sorted(
        ".".join(init.parent.relative_to(src).parts)
        for init in src.rglob("__init__.py")
    )
    assert declared["package_dir"] == {"": "src"}
    assert sorted(declared["packages"]) == on_disk
    assert "repro.sim" in on_disk
