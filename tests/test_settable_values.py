"""scripts/settable_values.py, the count of what a caller can set: one line
per value, then the count, which moves only on purpose."""

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

# A change that moves this count updates it and says why in CHANGES.md.
SETTABLE_VALUES = 81


def test_count_is_pinned_and_ends_the_listing(capsys):
    spec = importlib.util.spec_from_file_location(
        "settable_values", os.path.join(ROOT, "scripts", "settable_values.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main() == 0
    *listed, count = capsys.readouterr().out.splitlines()
    assert int(count) == len(listed) == len(set(listed)) == SETTABLE_VALUES, listed
    assert "network.expand_shorthand(**settings)" in listed
    assert "dfsmn train --lr" in listed
