"""The public export list of l1lab resolves."""

import l1lab


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from l1lab import *", namespace)
    assert len(set(l1lab.__all__)) == len(l1lab.__all__)
    for name in l1lab.__all__:
        assert namespace[name] is getattr(l1lab, name)
