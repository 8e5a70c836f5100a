import mobsum


def test_all_exports_resolve():
    # a name left in __all__ after its definition is deleted breaks
    # ``from mobsum import *``
    missing = [name for name in mobsum.__all__ if not hasattr(mobsum, name)]
    assert not missing, missing
    assert len(set(mobsum.__all__)) == len(mobsum.__all__)
