"""scripts/unrun_statements.py, the line trace of src/dfsmn/ under the tests:
its ast walk finds the statements a run is checked against."""

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

SOURCE = '''"""Module docstring."""
from typing import TYPE_CHECKING
if TYPE_CHECKING:
    import os
@staticmethod
def f(x,
      y):
    """Function docstring."""
    if x:
        return (y +
                1)
    try:
        pass
    except ValueError:
        return 2
    return 0
'''


def test_walk_skips_docstrings_and_type_checking_and_counts_headers_once():
    spec = importlib.util.spec_from_file_location(
        "unrun_statements", os.path.join(ROOT, "scripts", "unrun_statements.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    found = {line: list(lines) for line, lines in script.statements(SOURCE).items()}
    # the def counts by its decorator and its two signature lines; the if by
    # its header alone, the return under it by its own two lines
    assert found == {2: [2], 6: [5, 6, 7], 9: [9], 10: [10, 11], 12: [12], 13: [13],
                     15: [15], 16: [16]}
