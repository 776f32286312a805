"""The package's hand-kept export list."""

import qcheis


def test_all_names_resolve_without_duplicates():
    assert len(qcheis.__all__) == len(set(qcheis.__all__))
    missing = [name for name in qcheis.__all__ if not hasattr(qcheis, name)]
    assert missing == []
