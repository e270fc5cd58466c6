"""Test ids are read cut to their first 100 characters, so no two collected
ids may share those."""

from collections import Counter

ID_CHARS = 100


def test_collected_ids_distinct_in_their_first_100_characters(request):
    cut = Counter(item.nodeid[:ID_CHARS] for item in request.session.items)
    shared = sorted(prefix for prefix, n in cut.items() if n > 1)
    assert not shared, shared
