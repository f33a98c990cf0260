"""The examples in the docstrings and the README's Library section run
and print what they claim."""

import doctest
import re
from pathlib import Path

import pytest

from rigidres import betti, cli, deform, frames, homology, monomials, posets

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module", [betti, cli, deform, frames, homology,
                                    monomials, posets],
                         ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_library_example_runs():
    # the first ```python fence after the "## Library" heading
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "assert verify_resolution(res).ok" in block
    exec(compile(block, f"{README}:Library", "exec"), {})
