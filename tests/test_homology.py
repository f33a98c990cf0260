import itertools
import random
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from rigidres import frames, homology
from rigidres.betti import betti_poset, crosscut_complex
from rigidres.frames import scarf_complex
from rigidres.homology import (
    FieldSpec,
    SimplicialComplex,
    SpanBasis,
    axpy,
    homology_ranks,
    reduce_cycle,
    reduced_homology,
)
from rigidres.monomials import Monomial, parse_ideal
from rigidres.posets import Poset, lcm_lattice, order_complex

from test_frames import cycle_edge_ideal

Q = FieldSpec(0)

HEXAGON = SimplicialComplex([{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {1, 6}])

# the classical 6-vertex triangulation of the real projective plane:
# 10 triangles, every one of the 15 edges in exactly two of them
RP2_TRIANGLES = [{1, 2, 5}, {1, 2, 6}, {1, 3, 4}, {1, 3, 6}, {1, 4, 5},
                 {2, 3, 4}, {2, 3, 5}, {2, 4, 6}, {3, 5, 6}, {4, 5, 6}]
RP2 = SimplicialComplex(RP2_TRIANGLES)


# --------------------------------------------------------------------------
# chains as {face: scalar} dicts, converted at the edge to the pair
# (vector on face ids, d) that representatives and reduce_cycle use

def face_boundary(face, F):
    """∂(face) with alternating signs; removing the j-th vertex (in the
    increasing tuple) contributes (−1)^j.  For a vertex this is +1·∅."""
    return {face[:j] + face[j + 1:]: F.coerce((-1) ** j)
            for j in range(len(face))}


def boundary(chain, F):
    """∂ of a chain {face: scalar}, face by face."""
    out = {}
    for f, c in chain.items():
        axpy(out, c, face_boundary(f, F), F)
    return out


def boundary_matrix(K, i, F):
    """Columns of ∂_i: C_i → C_{i−1}, keyed by i-face, in the fixed
    face order.  ∂_0 is the augmentation onto the empty face; ∂_{−1} = 0."""
    return {f: face_boundary(f, F) if i >= 0 else {}
            for f in K.faces_of_dim(i)}


def as_vector(K, i, chain):
    """A chain {i-face of K: scalar} as (vector on i-face ids, d)."""
    ids = {f: k for k, f in enumerate(K.faces_of_dim(i))}
    d = lcm(*(Fraction(c).denominator for c in chain.values()))
    return {ids[f]: int(Fraction(c) * d) for f, c in chain.items()}, d


def as_chain(K, i, z, F):
    """The i-chain z = (vector on face ids, d) of K as {face: scalar}."""
    vec, d = z
    faces = K.faces_of_dim(i)
    return {faces[k]: F.coerce(Fraction(v, d)) for k, v in vec.items()}


def small_complexes():
    # 7 and 11 leave gaps in the vertex set: faces are tuples of the
    # vertices themselves, never of their ranks
    vertex = st.one_of(st.integers(min_value=1, max_value=5),
                       st.sampled_from([7, 11]))
    facet = st.sets(vertex, min_size=1, max_size=3)
    return st.lists(facet, min_size=0, max_size=6).map(SimplicialComplex)


def test_field_spec_validates():
    FieldSpec(0)
    FieldSpec(7)
    with pytest.raises(ValueError):
        FieldSpec(6)
    with pytest.raises(ValueError):
        FieldSpec(1)


@pytest.mark.parametrize("characteristic", [3.0, 0.0, "3", True, None])
def test_field_spec_refuses_a_characteristic_that_is_not_an_int(
        characteristic):
    with pytest.raises(ValueError, match="must be an int"):
        FieldSpec(characteristic)


def test_coerce_reduces_integers_mod_p():
    assert FieldSpec(3).coerce(7) == 1
    assert FieldSpec(3).coerce(-1) == 2
    assert FieldSpec(0).coerce(-1) == Fraction(-1)


@pytest.mark.parametrize("x, residue", [
    (Fraction(1, 2), 2),  # 2·2 = 4 ≡ 1
    (Fraction(-1, 2), 1),
    (0.5, 2),
    (Fraction(4, 5), 2),  # 5 ≡ 2 and 2·2 ≡ 4 ≡ 1
    (Fraction(6, 1), 0),
], ids=str)
def test_coerce_reads_a_rational_as_a_over_b_mod_p(x, residue):
    assert FieldSpec(3).coerce(x) == residue
    assert FieldSpec(0).coerce(x) == Fraction(x)


@pytest.mark.parametrize("p, x", [(3, Fraction(1, 3)), (3, Fraction(2, 9)),
                                  (2, 0.5), (2, Fraction(-3, 2))], ids=str)
def test_coerce_refuses_a_denominator_divisible_by_p(p, x):
    with pytest.raises(ValueError, match=f"no value mod {p}"):
        FieldSpec(p).coerce(x)


def test_downward_closure_and_dim():
    K = SimplicialComplex([{1, 2, 3}])
    assert K.dim == 2
    assert {(1, 2), (3,), ()} <= K.faces
    assert len(K.faces) == 8


def test_empty_complex():
    K = SimplicialComplex()
    assert K.dim == -1
    assert K.faces == frozenset({()})
    assert reduced_homology(K).ranks == {-1: 1}


@pytest.mark.parametrize("vertex", [frozenset({2}), "a", 2.0, None],
                         ids=repr)
def test_closing_constructor_refuses_a_non_int_vertex(vertex):
    # frozensets sort by inclusion, a partial order: face order would
    # be undefined, so the vertex is named and refused
    with pytest.raises(ValueError, match=re.escape(f"vertex {vertex!r} "
                                                   "is not an int")):
        SimplicialComplex([{1, 3}, {1, vertex}])


def stack_closure(faces):
    """The reference for `SimplicialComplex`: the faces generated by
    `faces`, closed by a stack walk that deletes one vertex at a time,
    as one sorted list per dimension from −1 up."""
    stack = [tuple(sorted(f)) for f in faces]
    closed = {()}
    while stack:
        f = stack.pop()
        if f not in closed:
            closed.add(f)
            stack.extend(f[:j] + f[j + 1:] for j in range(len(f)))
    levels = [[] for _ in range(max(map(len, closed)) + 1)]
    for f in closed:
        levels[len(f)].append(f)
    return [sorted(fs) for fs in levels]


def assert_matches_stack_closure(K, faces):
    levels = stack_closure(faces)
    assert K.dim == len(levels) - 2
    assert K.vertices == tuple(v for fs in levels[1:2] for (v,) in fs)
    for i in range(-1, K.dim + 2):
        assert K.faces_of_dim(i) == (levels[i + 1] if i <= K.dim else [])


@given(st.lists(st.sets(st.sampled_from([-7, -2, -1, 0, 3, 4, 9, 100]),
                        max_size=5), max_size=7).map(lambda fs: fs + fs[:2]))
@settings(max_examples=100)
def test_constructor_matches_the_stack_walk(faces):
    # negative and non-contiguous vertices, empty and repeated generators
    assert_matches_stack_closure(SimplicialComplex(faces), faces)


def test_two_points():
    K = SimplicialComplex([{1}, {2}])
    assert reduced_homology(K).ranks == {0: 1}


def test_a_complex_compares_by_its_faces_on_every_route():
    f = frozenset
    # the content of test_betti's collide fixture: its coatom crosscut
    # is an edge, the order complex of the fragment is two points
    X = [f({0, 1}), f({1, 2})]
    routes = {
        "edge": [SimplicialComplex([{0, 1}]), crosscut_complex(f(X)),
                 order_complex(Poset([{0}, {0, 1}]))],
        "two points": [SimplicialComplex([{0}, {1}]),
                       crosscut_complex(f([f({0}), f({1})])),
                       order_complex(Poset(X))],
        "triangle": [SimplicialComplex([{0, 1, 2}]),
                     crosscut_complex(f([f({0, 1}), f({0, 2}), f({0, 3})])),
                     order_complex(Poset([{0}, {0, 1}, {0, 1, 2}]))],
    }
    for first, *others in routes.values():
        for K in others:
            assert K == first and hash(K) == hash(first)
            assert K.faces == first.faces and repr(K) == repr(first)
    edge, points, triangle = (Ks[0] for Ks in routes.values())
    assert edge != points and points != edge and edge != triangle
    assert len({K for Ks in routes.values() for K in Ks}) == 3
    assert edge != edge.faces
    assert edge.faces == frozenset({(), (0,), (1,), (0, 1)})
    assert repr(points) == "SimplicialComplex[{0}, {1}]"
    assert repr(triangle) == "SimplicialComplex[{0, 1, 2}]"


def test_scarf_closure_check_compares_faces(monkeypatch):
    I = parse_ideal("x^2; x*y; y^2")
    assert scarf_complex(I).faces == {(), (0,), (1,), (2,), (0, 1), (1, 2)}
    # a unique-lcm family that is not closed under subsets is refused
    unit, m = Monomial([0, 0]), Monomial([1, 1])
    monkeypatch.setattr(frames, "_subsets_by_lcm",
                        lambda I: {unit: [()], m: [(0, 1)]})
    with pytest.raises(AssertionError, match="subset-closed"):
        scarf_complex(I)


def test_hexagon_circle():
    assert reduced_homology(HEXAGON).ranks == {1: 1}


def test_full_simplex_acyclic():
    K = SimplicialComplex([{1, 2, 3, 4}])
    assert reduced_homology(K).ranks == {}


def test_sphere_boundaries():
    triangle = SimplicialComplex([{1, 2}, {2, 3}, {1, 3}])
    assert reduced_homology(triangle).ranks == {1: 1}
    tetra_boundary = SimplicialComplex(
        [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}]
    )
    assert reduced_homology(tetra_boundary).ranks == {2: 1}


def test_projective_plane_depends_on_characteristic():
    assert reduced_homology(RP2, FieldSpec(0)).ranks == {}
    assert reduced_homology(RP2, FieldSpec(2)).ranks == {1: 1, 2: 1}
    assert reduced_homology(RP2, FieldSpec(3)).ranks == {}


def test_vertex_boundary_is_augmentation():
    cols = boundary_matrix(SimplicialComplex([{1}, {2}]), 0, Q)
    assert cols == {
        (1,): {(): 1},
        (2,): {(): 1},
    }


def test_edge_boundary_signs():
    (col,) = boundary_matrix(SimplicialComplex([{1, 2}]), 1, Q).values()
    assert col == {(2,): 1, (1,): -1}


@pytest.mark.parametrize("p", [0, 3])
@pytest.mark.parametrize("n", [4, 5], ids=["3-simplex", "4-simplex"])
def test_kernel_boundary_signs_past_position_two(n, p):
    # the kernel's own columns: deleting position j of an i-face has
    # sign (−1)^j (p − 1 for −1 over GF(p)), and ∂_{i−1} ∘ ∂_i = 0
    levels = homology._integer_boundaries(SimplicialComplex([range(n)]), p)
    for (_, lower, _, lower_column), (i, faces, _, column) in zip(levels,
                                                                 levels[1:]):
        for f in faces:
            col = column(f)
            assert {lower[k]: c for k, c in col.items()} == {
                f[:j] + f[j + 1:]: (-1) ** j % p if p else (-1) ** j
                for j in range(i + 1)}
            twice = {}
            for k, c in col.items():
                for r, d in lower_column(lower[k]).items():
                    twice[r] = twice.get(r, 0) + c * d
            assert all(v % p == 0 if p else v == 0 for v in twice.values())


@given(small_complexes())
def test_boundary_squares_to_zero(K):
    for i in range(0, K.dim + 1):
        for col in boundary_matrix(K, i, Q).values():
            assert not boundary(col, Q)


@given(small_complexes())
def test_euler_characteristic(K):
    basis = reduced_homology(K, Q)
    alternating = sum((-1) ** i * h for i, h in basis.ranks.items())
    assert alternating == sum((-1) ** (len(f) - 1) for f in K.faces)


@given(small_complexes())
@settings(max_examples=40)
def test_cone_is_acyclic(K):
    cone = SimplicialComplex([f + (99,) for f in K.faces])
    assert reduced_homology(cone, Q).ranks == {}


@given(small_complexes())
@settings(max_examples=30)
def test_characteristic_zero_matches_gf7(K):
    assert reduced_homology(K, Q).ranks == reduced_homology(K, FieldSpec(7)).ranks


@given(small_complexes())
@settings(max_examples=30)
def test_representatives_are_independent_cycles(K):
    basis = reduced_homology(K, Q)
    for i, reps in basis.representatives.items():
        fresh = SpanBasis(Q)
        for col in boundary_matrix(K, i + 1, Q).values():
            fresh.insert(col)
        for rep in reps:
            chain = as_chain(K, i, rep, Q)
            if i >= 0:
                assert not boundary(chain, Q)
            assert fresh.insert(chain)


def test_representatives_deterministic():
    a = reduced_homology(SimplicialComplex([{1, 2}, {2, 3}, {1, 3}, {4}]), Q)
    b = reduced_homology(SimplicialComplex([{4}, {1, 3}, {2, 3}, {1, 2}]), Q)
    assert a.ranks == b.ranks
    assert a.representatives == b.representatives


def test_reduce_cycle_on_representative_is_unit_vector():
    basis = reduced_homology(HEXAGON, Q)
    (rep,) = basis.representatives[1]
    assert reduce_cycle(rep, 1, basis) == [1]


def test_reduce_cycle_on_boundary_is_zero():
    z = boundary({(1, 2, 3): Fraction(1)}, Q)
    K = SimplicialComplex([{1, 2, 3}, {1, 3, 4}])
    basis = reduced_homology(K, Q)
    assert reduce_cycle(as_vector(K, 1, z), 1, basis) == []
    K2 = SimplicialComplex([{1, 2, 3}, {1, 4}, {4, 5}, {1, 5}])
    basis2 = reduced_homology(K2, Q)
    assert reduce_cycle(as_vector(K2, 1, z), 1, basis2) == [0]


def test_reduce_cycle_around_hexagon():
    basis = reduced_homology(HEXAGON, Q)
    walk = {
        (1, 2): Fraction(1),
        (2, 3): Fraction(1),
        (3, 4): Fraction(1),
        (4, 5): Fraction(1),
        (5, 6): Fraction(1),
        (1, 6): Fraction(-1),
    }
    assert not boundary(walk, Q)
    (c,) = reduce_cycle(as_vector(HEXAGON, 1, walk), 1, basis)
    assert abs(c) == 1


def test_reduce_cycle_rejects_non_cycles():
    basis = reduced_homology(HEXAGON, Q)
    edge = as_vector(HEXAGON, 1, {(1, 2): Fraction(1)})
    with pytest.raises(ValueError, match="not a cycle"):
        reduce_cycle(edge, 1, basis)
    # {2, 5} is no edge of the hexagon, so it has no id among the six
    n_edges = len(HEXAGON.faces_of_dim(1))
    for k in (n_edges, -1):
        with pytest.raises(ValueError, match="not in the complex"):
            reduce_cycle(({k: 1}, 1), 1, basis)
    with pytest.raises(ValueError, match="not in the complex"):
        reduce_cycle(({0: 1}, 1), 2, basis)
    (rep,) = basis.representatives[1]
    for d, F in ((0, Q), (2, FieldSpec(2)), (6, FieldSpec(3))):
        with pytest.raises(ValueError, match="zero in the field"):
            reduce_cycle((rep[0], d), 1, reduced_homology(HEXAGON, F))


def test_a_basis_reduces_its_own_representatives_in_its_field():
    # in char 2 the hexagon's representative has every edge at +1, which
    # is no cycle over Q; the field comes from the basis, not the caller
    B = betti_poset(lcm_lattice(cycle_edge_ideal(7)), FieldSpec(3))
    cases = [(HEXAGON, FieldSpec(2)),
             (order_complex(B.open_interval(B.top)), FieldSpec(3))]
    for K, F in cases:
        basis = reduced_homology(K, F)
        assert basis.field == F and basis.ranks
        for i, reps in basis.representatives.items():
            for j, rep in enumerate(reps):
                assert reduce_cycle(rep, i, basis) == [
                    int(k == j) for k in range(len(reps))]


# --------------------------------------------------------------------------
# the tagged pass runs only where there is homology

def tagged_inserts(monkeypatch):
    """The combinations of the columns inserted with one, as inserted."""
    seen = []
    insert = homology.Elimination.insert

    def recording(self, col, combo=None):
        if combo is not None:
            seen.append(dict(combo))
        return insert(self, col, combo)

    monkeypatch.setattr(homology.Elimination, "insert", recording)
    return seen


CONE = SimplicialComplex([{0, 1, 2}, {0, 2, 3}, {0, 3, 4}, {0, 4, 5},
                          {0, 5, 6}, {0, 1, 6}])  # the cone over HEXAGON


@pytest.mark.parametrize("K", [
    CONE,
    # the order complex of a fragment with a top is a cone on the top
    order_complex(Poset([{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2}])),
], ids=["cone", "fragment-with-top"])
def test_acyclic_complexes_tag_nothing(monkeypatch, K):
    seen = tagged_inserts(monkeypatch)
    basis = reduced_homology(K, Q)
    assert basis.ranks == {} and seen == []
    for i in range(-1, K.dim + 1):
        assert basis.rank(i) == 0
        assert i in basis._reducers


def test_hexagon_tags_only_its_edges(monkeypatch):
    seen = tagged_inserts(monkeypatch)
    basis = reduced_homology(HEXAGON, Q)
    assert basis.ranks == {1: 1}
    # the six columns of ∂_1, then the one representative entering the
    # reducer of H̃_1; ∂_0 and ∂_{−1} are never tagged
    edges = HEXAGON.faces_of_dim(1)
    assert seen == [{k: 1} for k in range(len(edges))] + [{0: 1}]


@pytest.mark.parametrize("K, i", [(HEXAGON, 0), (HEXAGON, -1), (CONE, 1),
                                  (CONE, 0)])
def test_reduce_cycle_of_a_boundary_without_homology(K, i):
    basis = reduced_homology(K, Q)
    assert basis.rank(i) == 0
    for f in K.faces_of_dim(i + 1):
        z = boundary({f: Fraction(3)}, Q)
        assert reduce_cycle(as_vector(K, i, z), i, basis) == []


@pytest.mark.parametrize("K, i", [(HEXAGON, 0), (CONE, 1), (CONE, 0)])
def test_reduce_cycle_refuses_a_non_cycle_without_homology(K, i):
    # where h_i = 0 the basis keeps no reducer, and the cycle check
    # still runs: one i-face alone has a nonzero boundary
    basis = reduced_homology(K, Q)
    assert basis.rank(i) == 0
    with pytest.raises(ValueError, match="not a cycle"):
        reduce_cycle(({0: 1}, 1), i, basis)


# --------------------------------------------------------------------------
# the elimination kernel against the reference SpanBasis elimination

def express(basis, col):
    """(residue, combo) for a SpanBasis: col = Σ combo[t]·column_t +
    (a combination of untagged columns) + residue, over the tagged
    columns t."""
    col, combo, _ = basis._reduce(col, {})
    p = basis.F.characteristic
    return col, {t: -c % p if p else -c for t, c in combo.items()}


def reference_homology(K, F):
    """Ranks and representatives by two SpanBasis passes per degree: the
    boundaries of (i+1)-faces first, then the kernel of ∂_i found by a
    tagged pass, whose vectors enter when independent of what came
    before."""
    ranks, representatives = {}, {}
    p = F.characteristic
    for i in range(-1, K.dim + 1):
        reducer = SpanBasis(F)
        for col in boundary_matrix(K, i + 1, F).values():
            reducer.insert(col)
        ker_finder = SpanBasis(F)
        reps = []
        for f, col in boundary_matrix(K, i, F).items():
            if not ker_finder.insert(col, tag=f):
                _, combo = express(ker_finder, col)
                vec = {t: -c % p if p else -c for t, c in combo.items()}
                vec[f] = F.one
                if reducer.insert(dict(vec)):
                    reps.append(vec)
        if reps:
            ranks[i] = len(reps)
            representatives[i] = reps
    return ranks, representatives


def span_ranks(K, F):
    """h_i = #i-faces − rank ∂_i − rank ∂_{i+1}, ranks by fresh SpanBases."""
    rank = {}
    for i in range(-1, K.dim + 2):
        basis = SpanBasis(F)
        for col in boundary_matrix(K, i, F).values():
            basis.insert(col)
        rank[i] = basis.rank
    ranks = {}
    for i in range(-1, K.dim + 1):
        h = len(K.faces_of_dim(i)) - rank[i] - rank[i + 1]
        if h:
            ranks[i] = h
    return ranks


FIELDS = st.sampled_from([FieldSpec(0), FieldSpec(2), FieldSpec(3)])


def torsion_complexes():
    """RP2 with up to three triangles dropped and triangles through two
    new vertices glued on.  Over Q their elimination meets pivot
    entries ±2, so the fraction-free update has to scale columns."""
    extra = [set(t) for t in itertools.combinations(range(1, 9), 3)
             if max(t) > 6]
    kept = st.sets(st.integers(0, 9), min_size=7)
    glued = st.lists(st.sampled_from(extra), min_size=2, max_size=12)
    return st.builds(
        lambda k, g: SimplicialComplex([RP2_TRIANGLES[j] for j in k] + g),
        kept, glued)


# complexes of that kind on which dropping the scaling of a column's
# combination, the coefficient of a representative's own face, or the
# combination's part of the content changes some output over Q
SCALED_EXAMPLES = [
    [{1, 2, 5}, {1, 2, 6}, {1, 2, 7}, {1, 3, 4}, {1, 3, 6}, {1, 4, 5},
     {1, 5, 7}, {1, 6, 7}, {2, 3, 4}, {2, 3, 5}, {2, 4, 6}, {2, 5, 8},
     {2, 6, 7}, {3, 5, 6}, {3, 6, 7}, {4, 5, 6}, {5, 6, 7}, {5, 6, 8},
     {6, 7, 8}],
    [{1, 2, 5}, {1, 2, 6}, {1, 2, 8}, {1, 3, 4}, {1, 3, 6}, {1, 3, 7},
     {1, 4, 5}, {1, 4, 8}, {1, 6, 8}, {1, 7, 8}, {2, 3, 4}, {2, 3, 5},
     {2, 4, 6}, {2, 5, 8}, {2, 6, 7}, {3, 5, 6}, {3, 6, 8}, {4, 5, 6},
     {5, 6, 8}],
    [{1, 2, 5}, {1, 2, 6}, {1, 3, 4}, {1, 3, 6}, {1, 3, 8}, {1, 4, 5},
     {1, 6, 7}, {1, 7, 8}, {2, 3, 4}, {2, 3, 5}, {2, 4, 6}, {2, 4, 7},
     {2, 5, 7}, {2, 7, 8}, {3, 4, 7}, {3, 5, 6}, {4, 5, 6}, {4, 6, 7},
     {5, 6, 8}, {6, 7, 8}],
]


def check_against_reference(K, F):
    basis = reduced_homology(K, F)
    ranks, representatives = reference_homology(K, F)
    assert homology_ranks(K, F) == basis.ranks == span_ranks(K, F) == ranks
    assert list(homology_ranks(K, F)) == sorted(ranks)
    assert {i: [as_chain(K, i, r, F) for r in reps]
            for i, reps in basis.representatives.items()} == representatives
    p = F.characteristic
    for reps in basis.representatives.values():
        for vec, d in reps:
            assert all(type(c) is int for c in (d, *vec.values()))
            if p:
                assert all(0 < c < p for c in vec.values())


def check_reduce_cycle(K, F, scalar):
    """z = Σ c_j·rep_j + ∂w for drawn c and w; reduce_cycle must give c."""
    basis = reduced_homology(K, F)
    for i in range(-1, K.dim + 1):
        reps = basis.representatives.get(i, [])
        coords = [F.coerce(scalar()) for _ in reps]
        z = {}
        for c, rep in zip(coords, reps):
            axpy(z, c, as_chain(K, i, rep, F), F)
        w = {f: F.coerce(scalar()) for f in K.faces_of_dim(i + 1)}
        axpy(z, F.one, boundary({f: c for f, c in w.items() if c}, F), F)
        assert reduce_cycle(as_vector(K, i, z), i, basis) == coords


def field_scalar(F):
    if F.characteristic:
        return st.integers(0, F.characteristic - 1)
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


# the scalars of each field of FIELDS, built once
FIELD_SCALARS = {F.characteristic: field_scalar(F)
                 for F in (FieldSpec(0), FieldSpec(2), FieldSpec(3))}


@given(st.one_of(small_complexes(), torsion_complexes()), FIELDS)
@settings(max_examples=80)
def test_kernel_matches_reference_elimination(K, F):
    check_against_reference(K, F)


@given(st.one_of(small_complexes(), torsion_complexes()), FIELDS, st.data())
@settings(max_examples=80)
def test_reduce_cycle_recovers_coordinates(K, F, data):
    scalars = FIELD_SCALARS[F.characteristic]
    check_reduce_cycle(K, F, lambda: data.draw(scalars))


@pytest.mark.parametrize("facets", SCALED_EXAMPLES)
@pytest.mark.parametrize("F", [FieldSpec(0), FieldSpec(2), FieldSpec(3)],
                         ids=["char0", "char2", "char3"])
def test_kernel_on_complexes_with_scaled_pivots(facets, F):
    K = SimplicialComplex(facets)
    check_against_reference(K, F)
    rng = random.Random(len(facets))
    # halves exist in GF(3) but not in GF(2)
    top = 1 if F.characteristic == 2 else 2
    for _ in range(5):
        check_reduce_cycle(K, F, lambda: Fraction(rng.randint(-3, 3),
                                                  rng.randint(1, top)))
