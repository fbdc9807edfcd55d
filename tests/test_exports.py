"""Every name in a ``repro`` module's ``__all__`` must resolve.

A re-export that outlives the module it came from fails here, not at a
user's import.
"""

from __future__ import annotations

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    names = [repro.__name__] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix=f"{repro.__name__}.")
        if not info.name.endswith(".__main__")
    ]
    unresolved = []
    checked = 0
    for name in names:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", [])
        checked += len(exported)
        unresolved += [f"{name}.{n}" for n in exported if not hasattr(module, n)]
    assert unresolved == []
    assert checked > 0
