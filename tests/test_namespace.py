"""The lazy `groupsums` namespace: each public name is imported from its
home module on first use."""

import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import groupsums

SRC = Path(__file__).resolve().parent.parent / "src"


def test_public_names_are_their_home_modules_objects():
    assert groupsums.__all__ == ["__version__", *groupsums._HOMES]
    for name, module in groupsums._HOMES.items():
        assert getattr(groupsums, name) is getattr(import_module(f"groupsums.{module}"), name), name


def test_dir_and_star_import_give_every_name_before_use():
    """In a fresh interpreter, where no submodule is loaded yet, `dir` lists
    every public name and `from groupsums import *` binds each one."""
    script = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import groupsums; "
              "print(sorted(set(groupsums.__all__) - set(dir(groupsums)))); "
              "ns = {}; exec('from groupsums import *', ns); "
              "print(sorted(n for n in groupsums.__all__ if ns.get(n) is not getattr(groupsums, n)))")
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", script],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n[]\n", done.stdout + done.stderr


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        groupsums.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from groupsums import no_such_name  # noqa: F401
