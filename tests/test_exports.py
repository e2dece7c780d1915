"""Every name a ``repro`` module lists in ``__all__`` must resolve.

A stale export (a deleted class still named in its package's
``__all__``) breaks ``from repro.x import *`` without failing any
ordinary import; this catches it.
"""

import importlib
from pathlib import Path

import pytest

import repro

_ROOT = Path(repro.__file__).parent


def _modules_with_all():
    for path in sorted(_ROOT.rglob("*.py")):
        if "__all__" not in path.read_text():
            continue
        parts = path.relative_to(_ROOT.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts)


@pytest.mark.parametrize("name", list(_modules_with_all()))
def test_every_all_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
