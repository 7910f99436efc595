import types

import shadowosc
from shadowosc import free_series, goldberg, oscillator


def test_star_import_binds_public_names_and_no_module():
    namespace = {}
    exec("from shadowosc import *", namespace)
    del namespace["__builtins__"]
    public = {
        name
        for name, value in vars(shadowosc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(namespace) == public
    # Every exported name comes from a submodule, so a stray helper import
    # in the package (say ``from types import ModuleType``) fails here.
    for name, value in namespace.items():
        assert any(
            getattr(module, name, None) is value
            for module in (free_series, goldberg, oscillator)
        ), name
