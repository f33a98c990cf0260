import pytest
from hypothesis import given, strategies as st

from rigidres.monomials import (
    MAX_EXPONENT,
    IdealSyntaxError,
    Monomial,
    MonomialIdeal,
    minimalize,
    parse_ideal,
)

exponents = st.integers(min_value=0, max_value=6)


def vectors(dim):
    return st.tuples(*[exponents] * dim).map(Monomial)


MAX_DIM = 5
dims = st.shared(st.integers(min_value=1, max_value=MAX_DIM), key="dim")


def per_dim(make):
    """dims.flatmap(make) with make(d) built once for each d, not on
    every draw: a strategy is an immutable description, so the one
    built up front draws what a fresh one would."""
    built = {d: make(d) for d in range(1, MAX_DIM + 1)}
    return dims.flatmap(built.__getitem__)


monomials = per_dim(vectors)
pairs = per_dim(lambda d: st.tuples(vectors(d), vectors(d)))
triples = per_dim(lambda d: st.tuples(vectors(d), vectors(d), vectors(d)))


def test_parse_two_generators():
    ideal = parse_ideal("x*y; y*z")
    assert ideal.variables == ("x", "y", "z")
    assert set(ideal.generators) == {Monomial((1, 1, 0)), Monomial((0, 1, 1))}
    assert ideal.ambient_dim == 3


def test_parse_newline_separator_and_comments():
    ideal = parse_ideal("x^2  # squares\ny^3\n\n# trailing comment\n")
    assert set(ideal.generators) == {Monomial((2, 0)), Monomial((0, 3))}


def test_parse_minimalizes():
    assert parse_ideal("x; x*y").to_text() == "x"


def test_parse_repeated_variable_multiplies():
    (g,) = parse_ideal("x*x^2").generators
    assert g == Monomial((3,))


def test_parse_six_generator_example():
    text = "b^2*c*e^2*f^2; c*d*e^2*f^2; a*d*e^2*f^2; a*b*e*f; a*b^2*c*d*f; a*b^2*c*d*e"
    ideal = parse_ideal(text)
    assert ideal.variables == ("a", "b", "c", "d", "e", "f")
    assert len(ideal.generators) == 6
    assert Monomial((0, 2, 1, 0, 2, 2)) in ideal.generators


@pytest.mark.parametrize(
    "bad, pos_and_why",
    [
        ("", "no generators"),
        ("   \n  ", "no generators"),
        ("x^0", "generator equal to 1"),
        ("x*", "empty factor"),
        ("x^2^3", "cannot read factor"),
        ("3*x", "cannot read factor"),
        ("x^99999999999999", "too large"),
    ],
)
def test_parse_errors(bad, pos_and_why):
    with pytest.raises(IdealSyntaxError) as err:
        parse_ideal(bad)
    assert pos_and_why in str(err.value)


def test_syntax_error_carries_position():
    with pytest.raises(IdealSyntaxError) as err:
        parse_ideal("x*y; y*%z")
    assert err.value.position >= 5


@pytest.mark.parametrize("bad,position", [
    ("x*", 2),
    ("x**y", 2),
    ("x*y*", 4),
    ("a; x * y*", 9),
])
def test_empty_factor_reports_its_own_position(bad, position):
    with pytest.raises(IdealSyntaxError) as err:
        parse_ideal(bad)
    assert err.value.position == position
    assert f"empty factor (at position {position})" in str(err.value)


def test_a_comment_keeps_the_offsets_after_it():
    with pytest.raises(IdealSyntaxError) as err:
        parse_ideal("x # comment\n*y")
    assert err.value.position == 12


def test_the_exponent_bound_holds_for_the_sum_of_factors():
    assert parse_ideal(f"x^{MAX_EXPONENT - 1}*x").generators == (
        Monomial((MAX_EXPONENT,)),)
    with pytest.raises(IdealSyntaxError) as err:
        parse_ideal(f"y; x*x^{MAX_EXPONENT}")
    assert err.value.position == 5
    assert f"exponent {MAX_EXPONENT + 1} of x too large" in str(err.value)


def test_an_exponent_past_the_int_digit_limit_is_a_syntax_error():
    """Longer than MAX_EXPONENT is too large before it is read: it is
    refused at its factor, without its digits, and well past the 4,300
    digits Python's int() refuses with a ValueError of its own."""
    with pytest.raises(IdealSyntaxError) as err:
        parse_ideal("y; x^" + "9" * 5000)
    assert str(err.value) == ("exponent of x too large (5000 digits) "
                              "(at position 2)")
    assert parse_ideal("x^" + "0" * 5000 + "3").generators == (Monomial((3,)),)


def test_round_trip():
    text = "a*b^2; b*c^3; a^4*c"
    assert parse_ideal(parse_ideal(text).to_text()) == parse_ideal(text)


def test_constructor_rejects_non_minimal():
    with pytest.raises(ValueError):
        MonomialIdeal(("x", "y"), [Monomial((1, 0)), Monomial((1, 1))])


def test_constructor_rejects_unit():
    with pytest.raises(ValueError):
        MonomialIdeal(("x",), [Monomial((0,))])


def test_constructor_rejects_no_generators_and_wrong_length():
    with pytest.raises(ValueError, match="at least one generator"):
        MonomialIdeal(("x",), [])
    with pytest.raises(ValueError, match="does not match variable count"):
        MonomialIdeal(("x", "y"), [Monomial((1,))])


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        Monomial((1, 2)).lcm(Monomial((1, 2, 3)))


def test_ratio_requires_divisibility():
    with pytest.raises(ValueError):
        Monomial((1, 0)).ratio(Monomial((0, 1)))


def test_format_unit():
    assert Monomial((0, 0)).format(("x", "y")) == "1"


@pytest.mark.parametrize("bad", [1.7, 2.0, "3", True, None],
                         ids=["fraction", "integral-float", "string", "bool",
                              "none"])
def test_constructor_rejects_an_exponent_that_is_not_an_int(bad):
    # no exponent is truncated or parsed: (1.7, 2) is not (1, 2)
    with pytest.raises(ValueError) as err:
        Monomial((bad, 2))
    assert str(err.value) == f"exponent {bad!r} in {(bad, 2)} is not an int"


@given(pairs)
def test_lcm_commutative(ab):
    a, b = ab
    assert a.lcm(b) == b.lcm(a)


@given(triples)
def test_lcm_associative(abc):
    a, b, c = abc
    assert a.lcm(b).lcm(c) == a.lcm(b.lcm(c))


@given(monomials)
def test_lcm_idempotent(a):
    assert a.lcm(a) == a


@given(pairs)
def test_lcm_is_least_upper_bound(ab):
    a, b = ab
    j = a.lcm(b)
    assert a.divides(j) and b.divides(j)


@given(pairs)
def test_divides_antisymmetric(ab):
    a, b = ab
    if a.divides(b) and b.divides(a):
        assert a == b


@given(triples)
def test_divides_transitive(abc):
    a, b, c = abc
    if a.divides(b) and b.divides(c):
        assert a.divides(c)


@given(pairs)
def test_ratio_inverts_multiplication(ab):
    a, b = ab
    j = a.lcm(b)
    q = j.ratio(a)
    assert Monomial(x + y for x, y in zip(q, a)) == j


@given(per_dim(lambda d: st.lists(vectors(d), min_size=1, max_size=8)))
def test_minimalize_idempotent_and_order_stable(ms):
    once = minimalize(ms)
    assert minimalize(once) == once
    assert set(minimalize(reversed(ms))) == set(once)
    # every dropped monomial is divisible by a kept one
    for m in ms:
        assert any(k.divides(m) for k in once)


def test_lcm_takes_any_number_of_monomials():
    a, b, c = Monomial((2, 0, 1)), Monomial((0, 3, 0)), Monomial((1, 1, 4))
    assert a.lcm() is a
    assert a.lcm(b) == Monomial((2, 3, 1))
    assert a.lcm(b, c) == a.lcm(b).lcm(c) == Monomial((2, 3, 4))
    assert type(Monomial((0, 0, 0)).lcm(a, b, c)) is Monomial
    # a mismatch in any argument raises, wherever it stands
    short = Monomial((1, 1))
    for args in ((short,), (short, b), (b, short), (b, c, short)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            a.lcm(*args)
