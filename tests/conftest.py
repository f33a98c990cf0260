"""Shared frozen inputs for the test suite.

The two "twin" ideals have isomorphic Betti posets but lcm-lattices
that admit no join-preserving atom-bijective map in either direction;
the expected Hasse diagrams of their lcm-lattices are frozen below as
integer-labelled cover lists (labels arbitrary, compared up to
isomorphism).  SQUAREFREE17 is a six-generator squarefree ideal whose
17-element lcm-lattice has exactly one homologically silent element;
HEXAGON is the edge ideal of the 6-cycle.
"""

import pytest
from hypothesis import strategies as st

from rigidres.monomials import Monomial, MonomialIdeal, minimalize, parse_ideal
from rigidres.posets import meet_closure

TWIN_A_TEXT = (
    "b^2*c*e^2*f^2; c*d*e^2*f^2; a*d*e^2*f^2; a*b*e*f; a*b^2*c*d*f; a*b^2*c*d*e"
)
TWIN_B_TEXT = (
    "b*c*e^2*f^2; c*d*e^2*f^2; a*d*e^2*f^2; a^2*b*e*f; a^2*b*c*d*f; a^2*b*c*d*e"
)
SQUAREFREE17_TEXT = (
    "u*v*x*y*z; a*t*w*x*y*z; s*t*u*w*z; a*s*t*u*v*w*x; a*s*u*v*w*x*y; s*t*v*y*z"
)
HEXAGON_TEXT = "a*b; b*c; c*d; d*e; e*f; a*f"

# expected Hasse diagram of TWIN_A's lcm-lattice (14 nodes, 23 covers)
HASSE_TWIN_A = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
    (1, 10), (1, 7), (2, 8), (2, 7), (3, 8), (3, 9),
    (4, 9), (4, 10), (4, 11), (5, 11), (6, 11),
    (7, 13), (8, 12), (9, 12), (10, 13), (11, 13), (12, 13),
]

# expected Hasse diagram of TWIN_B's lcm-lattice (14 nodes, 23 covers)
HASSE_TWIN_B = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
    (1, 10), (1, 7), (2, 8), (2, 7), (3, 8), (3, 9),
    (4, 9), (4, 10), (4, 11), (5, 11), (6, 11),
    (7, 12), (8, 12), (9, 13), (10, 13), (11, 13), (12, 13),
]

# expected Hasse diagram of SQUAREFREE17's lcm-lattice (17 nodes, 31 covers)
HASSE_17 = [
    (0, 9), (0, 1), (0, 2), (0, 3), (0, 13), (0, 7),
    (1, 4), (1, 8), (1, 10), (2, 4), (2, 5), (2, 11),
    (3, 12), (3, 5), (3, 14), (4, 6), (5, 6), (6, 16),
    (7, 12), (7, 8), (7, 11), (8, 16), (9, 10), (9, 15),
    (10, 16), (11, 16), (12, 16), (13, 14), (13, 15),
    (14, 16), (15, 16),
]


def random_generic_ideal(rng, max_generators=6, max_variables=6):
    """A random strongly generic monomial ideal: in every variable the
    generators carry pairwise distinct nonzero exponents, so the Scarf
    complex supports the minimal resolution and the ideal is rigid.
    Draws are biased toward more generators; fewer variables are used
    for the largest draws to keep lattice sizes moderate."""
    while True:
        n = rng.randint(3, max_generators + 2)
        hi = min(max_variables, 4 if n >= 5 else max_variables)
        d = rng.randint(min(3, hi), hi)
        cols = [rng.sample(range(1, n + 1), n) for _ in range(d)]
        gens = minimalize(Monomial(col[i] for col in cols) for i in range(n))
        if len(gens) > max_generators:
            gens = minimalize(gens[:max_generators])
        if len(gens) >= 2:
            return MonomialIdeal(tuple(f"x{j + 1}" for j in range(d)), gens)


# for each atom count k, up to four random supports of at least two
# atoms, paired with k; built once
_FAMILIES = {
    k: st.lists(st.sets(st.integers(min_value=0, max_value=k - 1),
                        min_size=2, max_size=k),
                min_size=0, max_size=4).map(lambda fam, k=k: (fam, k))
    for k in range(2, 5)}


def random_lattices():
    """Small atomic lattices via meet closure of random support
    families; every lattice drawn in one example has the same atom
    count, 2 to 4."""
    n = st.shared(st.integers(min_value=2, max_value=4), key="atoms")
    return n.flatmap(_FAMILIES.__getitem__).map(
        lambda t: meet_closure(t[0], t[1]))


@pytest.fixture(scope="session")
def twin_a():
    return parse_ideal(TWIN_A_TEXT)


@pytest.fixture(scope="session")
def twin_b():
    return parse_ideal(TWIN_B_TEXT)


@pytest.fixture(scope="session")
def squarefree17():
    return parse_ideal(SQUAREFREE17_TEXT)


@pytest.fixture(scope="session")
def hexagon_ideal():
    return parse_ideal(HEXAGON_TEXT)


# -- acceptance summary: one PASS/FAIL line per criterion --------------------

_ACCEPTANCE_OUTCOMES = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if name.startswith("test_criterion_"):
        _ACCEPTANCE_OUTCOMES[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_OUTCOMES:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE_OUTCOMES):
        verdict = "PASS" if _ACCEPTANCE_OUTCOMES[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"{name}: {verdict}")
