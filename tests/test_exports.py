import netelast


def test_all_names_resolve_sorted_and_unique():
    names = netelast.__all__
    assert [n for n in names if not hasattr(netelast, n)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)
