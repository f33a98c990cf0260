"""Seeded benchmark inputs and the independent checks run on outputs.

Everything here is plain Python on exponent vectors; nothing imports
rigidres, so the expected values it derives (lcm supports, rigidity read
off a Betti table) do not share code with the program under test.

An ideal is a pair (variables, generators): variable names in the
lexicographic order that ``rigidres.parse_ideal`` uses, and a tuple of
exponent tuples in generator order, which fixes the atom numbering of
the lcm-lattice downstream.
"""

import hashlib
import itertools
import math
import re

# The fixture ideals of the test suite, kept here so the benchmark does
# not depend on the tests.
TWIN_A = ("b^2*c*e^2*f^2; c*d*e^2*f^2; a*d*e^2*f^2; a*b*e*f; a*b^2*c*d*f; "
          "a*b^2*c*d*e")
TWIN_B = ("b*c*e^2*f^2; c*d*e^2*f^2; a*d*e^2*f^2; a^2*b*e*f; a^2*b*c*d*f; "
          "a^2*b*c*d*e")
SQUAREFREE17 = ("u*v*x*y*z; a*t*w*x*y*z; s*t*u*w*z; a*s*t*u*v*w*x; "
                "a*s*u*v*w*x*y; s*t*v*y*z")
HEXAGON = "a*b; b*c; c*d; d*e; e*f; a*f"
BOOLEAN5 = "a; b; c; d; e"
# Small input for the untimed warm-up jobs; no timed job uses it.
WARMUP = "x*y; y*z"

# The three cases of acceptance criterion 08: (ideal, facets).  Facets
# name generator positions, so these inputs are never relabelled.
SIMPLICIAL_CASES = (
    ("simplex3", "x; y; z", "1,2,3"),
    ("path3", "x*y; y*z; z*w", "1,2; 2,3"),
    ("square2", "x^2; x*y; y^2", None),  # None: the Scarf complex
)


def parse(text):
    """Ideal text in the ``.ideal`` grammar (no comments) → ideal."""
    gens = []
    for chunk in re.split(r"[;\n]", text):
        if not chunk.strip():
            continue
        powers = {}
        for factor in chunk.split("*"):
            name, _, exp = factor.strip().partition("^")
            powers[name] = powers.get(name, 0) + int(exp or 1)
        gens.append(powers)
    variables = tuple(sorted({v for g in gens for v in g}))
    return variables, tuple(tuple(g.get(v, 0) for v in variables)
                            for g in gens)


def text(ideal):
    """The ``.ideal`` text of an ideal, generators in order."""
    variables, gens = ideal
    return "; ".join(
        "*".join(v if e == 1 else f"{v}^{e}"
                 for v, e in zip(variables, g) if e)
        for g in gens)


def digest(ideal):
    return hashlib.sha256(text(ideal).encode()).hexdigest()[:16]


def relabel(ideal, rng):
    """The same ideal with generators shuffled and variables renamed by a
    random permutation: an isomorphic lattice with new atom numbers."""
    variables, gens = ideal
    gens = list(gens)
    rng.shuffle(gens)
    names = list(variables)
    rng.shuffle(names)
    renamed = dict(zip(variables, names))
    order = sorted(range(len(variables)), key=lambda j: renamed[variables[j]])
    return (tuple(renamed[variables[j]] for j in order),
            tuple(tuple(g[j] for j in order) for g in gens))


def cycle_edge_ideal(n):
    """Edge ideal of the n-cycle on vertices x01..xNN."""
    names = [f"x{i + 1:02d}" for i in range(n)]
    return parse("; ".join(f"{names[i]}*{names[(i + 1) % n]}"
                           for i in range(n)))


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def strongly_generic(rng, n, d):
    """A strongly generic ideal with exactly n generators in d variables.

    Every column of exponents is a permutation of 1..n; a draw is redone
    until no generator divides another, so all n are minimal.
    """
    while True:
        cols = [rng.sample(range(1, n + 1), n) for _ in range(d)]
        gens = tuple(tuple(col[i] for col in cols) for i in range(n))
        if not any(i != j and divides(gens[i], gens[j])
                   for i in range(n) for j in range(n)):
            return tuple(f"x{j + 1}" for j in range(d)), gens


# --------------------------------------------------------------------------
# independent expectations

def lcm_supports(ideal):
    """Atom supports of all lcms of generator subsets (brute force)."""
    _, gens = ideal
    n, width = len(gens), len(gens[0])
    family = set()
    for r in range(n + 1):
        for subset in itertools.combinations(gens, r):
            top = tuple(max((g[j] for g in subset), default=0)
                        for j in range(width))
            family.add(frozenset(i for i, g in enumerate(gens)
                                 if divides(g, top)))
    return family


def augmentation_count(ideal, budget):
    """How many augmentations a deformation scan with this budget tries:
    all sets of at most `budget` supports of size 2..n−1 missing from
    the lcm-lattice."""
    n = len(ideal[1])
    family = lcm_supports(ideal)
    missing = sum(1 for r in range(2, n)
                  for s in itertools.combinations(range(n), r)
                  if frozenset(s) not in family)
    return sum(math.comb(missing, r) for r in range(1, budget + 1))


def rigid_from_table(table):
    """Rigidity read off a graded Betti table ({"graded": [...]}):
    every multidegree carries total rank at most one, and no two
    comparable multidegrees carry rank in the same homological index."""
    by_degree = {}
    by_index = {}
    for entry in table["graded"]:
        deg = tuple(entry["degree"])
        by_degree[deg] = by_degree.get(deg, 0) + entry["beta"]
        by_index.setdefault(entry["i"], []).append(deg)
    if any(total > 1 for total in by_degree.values()):
        return False
    for degrees in by_index.values():
        for a, b in itertools.combinations(degrees, 2):
            if divides(a, b) or divides(b, a):
                return False
    return True
