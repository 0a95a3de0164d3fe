"""The package's lazy exports: ``twinbuild.X`` loads X's submodule on first
use and behaves as the eager re-exports did."""

import importlib
import subprocess
import sys

import pytest

import twinbuild


def test_every_export_is_its_submodules_object():
    for name in twinbuild.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module("twinbuild." + twinbuild._HOME[name])
        assert getattr(twinbuild, name) is getattr(home, name), name
        assert vars(twinbuild)[name] is getattr(home, name), name


def test_dir_lists_every_export():
    assert set(twinbuild.__all__) <= set(dir(twinbuild))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such"):
        twinbuild.no_such
    # Resolving __main__ would run the command line.
    assert not hasattr(twinbuild, "__main__")


def test_star_import_and_submodule_attributes_in_a_fresh_interpreter():
    code = (
        "import sys\n"
        "import twinbuild\n"
        "print(twinbuild.building is sys.modules['twinbuild.building'])\n"
        "names = {}\n"
        "exec('from twinbuild import *', names)\n"
        "print([n for n in twinbuild.__all__ if names.get(n) is not getattr(twinbuild, n)])\n"
        "print(twinbuild.samples is sys.modules['twinbuild.samples'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n[]\nTrue\n"


def test_every_submodule_star_imports_in_a_fresh_interpreter():
    # A name left in a submodule's __all__ after its definition is gone
    # fails here: ``from M import *`` resolves every entry.
    code = (
        "import pkgutil, twinbuild\n"
        "bad = []\n"
        "for info in pkgutil.iter_modules(twinbuild.__path__):\n"
        "    if info.name == '__main__':\n"
        "        continue\n"
        "    try:\n"
        "        exec(f'from twinbuild.{info.name} import *', {})\n"
        "    except Exception as exc:\n"
        "        bad.append(f'{info.name}: {exc!r}')\n"
        "print(bad)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
