"""Every name a module exports in ``__all__`` is defined: the package and
each of its nine layer modules import, and none lists a name it no longer
has, which would break ``from module import *``."""

from __future__ import annotations

import importlib

import pytest

LAYERS = (
    "rootsys", "qdata", "affine", "invariants", "modexpr", "duality", "cuspidal", "pbw", "cli",
)


@pytest.mark.parametrize("name", ("",) + LAYERS, ids=lambda name: name or "qaffpbw")
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"qaffpbw.{name}" if name else "qaffpbw")
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, (module.__name__, missing)
