"""The package's export list: every name resolves and is listed once."""

import pxthin


def test_every_export_resolves_once():
    names = pxthin.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(pxthin, name)]
    assert missing == []
