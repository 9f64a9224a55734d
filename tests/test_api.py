"""The package's public names: every export resolves, so a stale entry fails here."""

import stormsim


def test_every_exported_name_resolves():
    missing = [name for name in stormsim.__all__ if not hasattr(stormsim, name)]
    assert missing == []
    assert len(set(stormsim.__all__)) == len(stormsim.__all__)


def test_star_import():
    namespace = {}
    exec("from stormsim import *", namespace)
    assert set(stormsim.__all__) <= set(namespace)
