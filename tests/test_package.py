"""The package's public names: every exported name resolves."""

import loadshift


def test_every_exported_name_resolves():
    missing = [name for name in loadshift.__all__ if not hasattr(loadshift, name)]
    assert missing == []


def test_star_import_brings_every_exported_name():
    namespace = {}
    exec("from loadshift import *", namespace)
    assert set(loadshift.__all__) <= set(namespace)
