"""Every public name a module exports resolves."""

import importlib

import pytest


@pytest.mark.parametrize("module", [
    "doflab", "doflab.exactgeom", "doflab.regions", "doflab.scheme", "doflab.serialize",
])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)
