"""The package's export list matches what it binds."""

import types

import hadstab


def test_all_is_exactly_the_public_names():
    """``__all__`` lists every public name the package binds, other than its
    submodules, and nothing else, so a removed name cannot stay listed."""
    bound = {
        name
        for name, obj in vars(hadstab).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert len(set(hadstab.__all__)) == len(hadstab.__all__)
    assert set(hadstab.__all__) == bound


def test_every_export_imports():
    namespace = {}
    exec("from hadstab import *", namespace)
    assert set(hadstab.__all__) <= namespace.keys()
