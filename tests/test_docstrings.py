"""The examples in the docstrings run and print what they claim."""

import doctest

import pytest

from rigidres import betti, deform, frames, homology, monomials, posets


@pytest.mark.parametrize("module", [betti, deform, frames, homology,
                                    monomials, posets],
                         ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
