"""``tools/code_lines.py``'s count on small sample sources."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from code_lines import code_lines  # noqa: E402

SAMPLE = '''"""A module docstring
over two lines."""

import os  # a trailing comment counts as code


# a comment line
class Box:
    """A class docstring."""

    def size(self):
        """A one-line docstring."""
        text = """a string
that is not a docstring"""
        return len(text)
'''


def test_docstrings_comments_and_blank_lines_are_not_counted():
    # import, class, def, the two lines of the string, return.
    assert code_lines(SAMPLE) == 6


def test_a_string_that_opens_no_body_counts_on_every_line():
    assert code_lines('x = 1\n"""not\na docstring"""\n') == 3


def test_empty_source_has_no_code():
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n# and a comment\n\n') == 0
