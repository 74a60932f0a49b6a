"""The package's public surface: every exported name resolves."""

import solitonlab


def test_every_exported_name_resolves():
    assert len(set(solitonlab.__all__)) == len(solitonlab.__all__)
    assert [name for name in solitonlab.__all__ if not hasattr(solitonlab, name)] == []


def test_star_import_binds_every_exported_name():
    # a name left in __all__ after its definition is gone breaks only this
    namespace: dict = {}
    exec("from solitonlab import *", namespace)
    assert set(solitonlab.__all__) <= namespace.keys()
