import loopcs


def test_every_exported_name_resolves():
    # a stale __all__ entry only fails on `from loopcs import *`
    missing = [name for name in loopcs.__all__ if not hasattr(loopcs, name)]
    assert missing == []
    assert len(set(loopcs.__all__)) == len(loopcs.__all__)
