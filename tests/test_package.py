"""The package's public surface: every exported name resolves."""

import hinge


def test_all_names_resolve():
    missing = [name for name in hinge.__all__ if not hasattr(hinge, name)]
    assert not missing
    assert len(set(hinge.__all__)) == len(hinge.__all__)
