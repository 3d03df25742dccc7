"""The public surface: what ``__all__`` names exists, what the program
uses, and importing is cheap.

A name deleted from a module but left in its ``__all__`` still imports
cleanly until someone runs ``from module import *`` or looks it up, so
this walks every module of the package and resolves each export.

A public class or function of the robustness layer or the NCC that only
the tests use is machinery no mission runs: it must be deleted, not kept
as a knob, unless it is the tests' own reference (see
``TEST_ONLY_ALLOWED``).

Every import a module makes is read by that module: an import left
behind by a deletion still costs load time and hides the dependency the
module really has.  No linter is assumed, so this is a plain ``ast``
walk; package ``__init__`` modules import to re-export and are left out.

Importing the package must not pull in ``scipy.signal``: it costs
about a second and 48 MB in every fresh interpreter, and the package's
one FFT convolution (``repro.dsp.filters.fft_filter``) is built on
``scipy.fft`` instead.  Those checks run in a fresh interpreter, since
this test process may already have imported it for other tests.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: packages whose module-level public classes and functions must be
#: used by the program (``src/``, ``benchmarks/``, ``examples/``)
USED_PACKAGES = ("repro/robustness", "repro/ncc")

#: test-only names that stay, each with its reason
TEST_ONLY_ALLOWED = {
    "restart_from_zero_upload": (
        "the whole-file baseline the DTN tests hold the resumable "
        "uploader against (>= 2x the file size across one blackout)"
    ),
}


def test_every_exported_name_resolves():
    stale = []
    modules = 0
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        module = importlib.import_module(info.name)
        modules += 1
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                stale.append(f"{info.name}.{name}")
    assert modules > 1
    assert stale == []


def _public_defs():
    """``{name: path}`` of the module-level public classes and functions
    of :data:`USED_PACKAGES`."""
    out = {}
    for pkg in USED_PACKAGES:
        for path in sorted((SRC / pkg).rglob("*.py")):
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                    if not node.name.startswith("_"):
                        out[node.name] = path.relative_to(ROOT)
    return out


def _names_used(paths):
    """Every identifier read as a name or an attribute in ``paths``.

    Imports, ``__all__`` strings and docstrings are not uses, and
    neither is a top-level definition's mention of its own name.
    """
    used = set()
    for path in paths:
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    used.add(node.attr)
    return used


def test_robustness_and_ncc_names_are_used_outside_tests():
    defs = _public_defs()
    program = _names_used(
        p for d in ("src", "benchmarks", "examples") for p in (ROOT / d).rglob("*.py")
    )
    test_only = sorted(
        f"{path}: {name}"
        for name, path in defs.items()
        if name not in program and name not in TEST_ONLY_ALLOWED
    )
    assert test_only == []
    # an allowance for a name that is gone or now used is stale
    assert {n for n in TEST_ONLY_ALLOWED if n in defs and n not in program} == set(
        TEST_ONLY_ALLOWED
    )


def _imported_names(tree):
    """``{bound name: line}`` of a module's imports (not ``__future__``)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _names_read(tree):
    """Names a module reads, attribute roots included, and the strings
    of its ``__all__`` (a module may re-export)."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in node.value.elts}
    return read


def test_every_import_is_read():
    unused = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = _names_read(tree)
        unused += [
            f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in _imported_names(tree).items()
            if name not in read
        ]
    assert unused == []


def _scipy_signal_after(code: str) -> str:
    """Run ``code`` in a fresh interpreter on ``src``; return the
    ``scipy.signal`` modules it left in ``sys.modules``, as printed."""
    code = textwrap.dedent(code) + textwrap.dedent(
        """
        import sys
        print(sorted(m for m in sys.modules if m.startswith("scipy.signal")))
        """
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


def test_import_leaves_out_scipy_signal():
    """``import repro.scenarios`` and every other module of the package."""
    loaded = _scipy_signal_after(
        """
        import importlib, pkgutil
        import repro, repro.scenarios
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name.rsplit(".", 1)[-1] != "__main__":
                importlib.import_module(info.name)
        """
    )
    assert loaded == "[]"


def test_mission_and_return_link_leave_out_scipy_signal():
    """One golden mission, then one CDMA return-link composite."""
    loaded = _scipy_signal_after(
        """
        import numpy as np
        from repro.core import PayloadConfig, RegenerativePayload
        from repro.core.registry import default_registry
        from repro.dsp.cdma import CdmaReturnBank
        from repro.scenarios import ScenarioRunner, canonical_scenarios

        assert ScenarioRunner(canonical_scenarios()[0]).run().completed
        cfg = PayloadConfig(
            num_carriers=1, fpga_rows=8, fpga_cols=8, fpga_bits_per_clb=32
        )
        payload = RegenerativePayload(cfg, default_registry())
        payload.boot(modem="modem.cdma")
        bank = CdmaReturnBank.for_users(2, payload.demods[0].behaviour().config)
        rng = np.random.default_rng(0)
        sent = [rng.integers(0, 2, 32).astype(np.uint8) for _ in range(2)]
        out = payload.process_return_link(bank.transmit(sent), 2, 32)
        assert all(np.array_equal(b, s) for b, s in zip(out["bits"], sent))
        """
    )
    assert loaded == "[]"
