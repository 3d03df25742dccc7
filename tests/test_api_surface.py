"""The public surface: every name a module exports in ``__all__`` exists.

A name deleted from a module but left in its ``__all__`` still imports
cleanly until someone runs ``from module import *`` or looks it up, so
this walks every module of the package and resolves each export.
"""

import importlib
import pkgutil

import repro


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
