"""Cold start: each command imports only the modules it runs.

Every command runs in a fresh interpreter, which reports the modules it
holds after the command; the lazy package namespace is checked in this
process.
"""

import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import eulerhall

FIXTURE = str(Path(__file__).parent / "fixtures" / "family_obstructed.json")

PROBE = (
    "import sys\n"
    "from eulerhall.cli import main\n"
    "rc = main(sys.argv[1:])\n"
    "sys.stderr.write('\\n'.join(sorted(sys.modules)))\n"
    "sys.exit(rc)\n"
)


def loaded_modules(*argv):
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines())


@pytest.mark.parametrize(
    "argv, present, absent",
    [
        (
            ("sweep", "--max-m", "1", "--max-atom", "1"),
            "eulerhall.sweep",
            ("concurrent.futures", "multiprocessing", "eulerhall.dynamics",
             "eulerhall.obstruction", "eulerhall.matching", "eulerhall.ring",
             "eulerhall.bundles", "eulerhall.selftest", "dataclasses", "inspect"),
        ),
        (
            # --jobs 2 loads no worker pool, though two subsets could be split
            ("sweep", "--max-m", "1", "--max-atom", "2", "--jobs", "2"),
            "eulerhall.sweep",
            ("concurrent.futures", "multiprocessing", "dataclasses", "inspect"),
        ),
        (
            ("analyze", FIXTURE),
            "eulerhall.obstruction",
            ("eulerhall.dynamics", "eulerhall.sweep", "eulerhall.selftest",
             "concurrent.futures", "dataclasses", "inspect"),
        ),
        (
            ("dynamics", "--window", "1", "--depth", "1"),
            "eulerhall.dynamics",
            ("eulerhall.sweep", "eulerhall.obstruction", "eulerhall.selftest",
             "eulerhall.matching", "eulerhall.bundles", "eulerhall.ring",
             "concurrent.futures", "dataclasses", "inspect"),
        ),
    ],
    ids=["sweep", "sweep --jobs 2", "analyze", "dynamics"],
)
def test_command_loads_only_its_modules(argv, present, absent):
    modules = loaded_modules(*argv)
    assert present in modules
    assert sorted(modules.intersection(absent)) == []


def test_public_names_resolve_to_their_modules():
    for name in eulerhall.__all__:
        if name == "__version__":
            continue
        module = import_module(f"eulerhall.{eulerhall._MODULE_OF[name]}")
        assert getattr(eulerhall, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from eulerhall import *", namespace)
    assert set(eulerhall.__all__) <= set(namespace)
    assert set(eulerhall.__all__) <= set(dir(eulerhall))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        eulerhall.no_such_name
