import symkal


def test_all_names_resolve():
    missing = [name for name in symkal.__all__ if not hasattr(symkal, name)]
    assert not missing
    assert len(set(symkal.__all__)) == len(symkal.__all__)
