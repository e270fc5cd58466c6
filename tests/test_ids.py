"""Test ids are read cut to their first 100 characters, so no two collected
ids may share those; and an id names a case, so no pinned digest is part of
one (a re-pin would rename the test)."""

import re
from collections import Counter

ID_CHARS = 100


def test_collected_ids_distinct_in_their_first_100_characters(request):
    cut = Counter(item.nodeid[:ID_CHARS] for item in request.session.items)
    shared = sorted(prefix for prefix, n in cut.items() if n > 1)
    assert not shared, shared


def test_no_collected_id_holds_a_sha256(request):
    digests = [item.nodeid for item in request.session.items
               if re.search(r"[0-9a-fA-F]{64}", item.nodeid)]
    assert not digests, digests
