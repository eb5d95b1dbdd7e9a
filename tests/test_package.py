"""The package namespace: what `mckay3` exports."""

import mckay3


def test_every_export_is_bound():
    # a name left in __all__ after its definition is deleted breaks
    # `from mckay3 import *` and nothing else
    assert [name for name in mckay3.__all__ if not hasattr(mckay3, name)] == []
