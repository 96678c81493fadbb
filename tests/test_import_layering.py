"""The live service path never loads the simulator.

An object host (``argus-repro serve``) and the subject client
(``argus-repro discover``) import the daemon, the client, snapshot
loading and the update wire.  None of them may load the discrete-event
simulator: ``repro`` and ``repro.net`` resolve their re-exports on first
access (PEP 562), and ``repro.net.retry`` / ``repro.net.faults`` import
no sibling.  No module of the package at all may load a dependency the
package has dropped, and ``pyproject.toml`` may not list one.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.net

LIVE_PATH = (
    "repro.service",
    "repro.service.daemon",
    "repro.service.client",
    "repro.backend.persistence",
    "repro.backend.updatewire",
    "repro.net.retry",
    "repro.cli",
)
#: Third-party packages the project no longer depends on.
DROPPED_DEPENDENCIES = ("networkx",)
SIMULATOR = (
    *DROPPED_DEPENDENCIES,
    "repro.net.node",
    "repro.net.run",
    "repro.net.topology",
    "repro.net.simulator",
)


def modules_loaded_by(imports: tuple[str, ...]) -> set[str]:
    """``sys.modules`` of a fresh interpreter after importing *imports*."""
    code = "".join(f"import {name}\n" for name in imports)
    code += "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return set(json.loads(result.stdout))


def test_live_path_loads_no_simulator():
    loaded = modules_loaded_by(LIVE_PATH)
    assert set(LIVE_PATH) <= loaded
    assert sorted(loaded & set(SIMULATOR)) == []


def test_no_module_loads_a_dropped_dependency():
    modules = tuple(
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")  # runs the CLI on import
    )
    loaded = modules_loaded_by(modules)
    assert set(modules) <= loaded
    assert sorted(loaded & set(DROPPED_DEPENDENCIES)) == []


def test_pyproject_lists_no_dropped_dependency():
    pyproject = Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
    text = pyproject.read_text(encoding="utf-8").lower()
    assert [name for name in DROPPED_DEPENDENCIES if name in text] == []


def test_importing_the_packages_loads_no_simulator():
    loaded = modules_loaded_by(("repro", "repro.net"))
    assert sorted(loaded & set(SIMULATOR)) == []


@pytest.mark.parametrize("package", [repro, repro.net], ids=lambda p: p.__name__)
def test_every_export_resolves_to_its_defining_module(package):
    listing = dir(package)
    assert set(package._EXPORTS) <= set(package.__all__)
    for name in package.__all__:
        value = getattr(package, name)
        assert name in listing, name
        module = package._EXPORTS.get(name)
        if module is None:
            continue
        assert getattr(importlib.import_module(module), name) is value, name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module, name


def test_net_exports_are_the_whole_public_surface():
    assert set(repro.net._EXPORTS) == set(repro.net.__all__)


@pytest.mark.parametrize("package", [repro, repro.net], ids=lambda p: p.__name__)
def test_unknown_names_raise_attribute_error(package):
    assert not hasattr(package, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name


def test_submodules_still_import_from_the_package():
    from repro.net import faults, run, topology

    assert run.simulate_discovery is repro.net.simulate_discovery
    assert faults.FaultSchedule is repro.net.FaultSchedule
    assert topology.star is repro.net.star
