"""Grammar round-trips and parse errors."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from agrees.errors import AgreesError, EmptyIdeal, ParseError, UnknownVariable
from agrees.fields import QQ, PrimeField
from agrees.parse import parse_ideal_spec, parse_polynomial
from agrees.poly import BASE_RING, Polynomial, rees_ring

FP = PrimeField(2147483647)


def test_two_term_difference():
    p = parse_polynomial("x^2 - y^2", BASE_RING, QQ)
    assert len(p.terms) == 2 and max(map(sum, p.terms)) == 2
    assert p.terms[(2, 0)] == 1 and p.terms[(0, 2)] == -1


def test_like_terms_collect():
    p = parse_polynomial("x^2*y^3 + x^2*y^3", BASE_RING, QQ)
    assert p.terms == {(2, 3): Fraction(2)}


def test_substituted_boundary_certificate():
    # n=5, alpha=3 substituted by the caller gives x^2 - y^2
    assert parse_polynomial("x^2 - y^{}".format(5 - 3), BASE_RING, QQ) == \
        parse_polynomial("x^2 - y^2", BASE_RING, QQ)


def test_ideal_spec_four_generators():
    gens = parse_ideal_spec("x^3, x^2 y^3, x y^5, y^6", BASE_RING, QQ)
    assert [str(g) for g in gens] == ["x^3", "x^2*y^3", "x*y^5", "y^6"]


def test_ideal_spec_wrapped():
    gens = parse_ideal_spec("ideal(x, y)", BASE_RING, QQ)
    assert [str(g) for g in gens] == ["x", "y"]


def test_ideal_spec_parameter_ideal():
    gens = parse_ideal_spec("x^3, y^6", BASE_RING, QQ)
    assert len(gens) == 2


def test_empty_ideal_rejected():
    with pytest.raises(EmptyIdeal):
        parse_ideal_spec("ideal()", BASE_RING, QQ)
    with pytest.raises((EmptyIdeal, ParseError)):
        parse_ideal_spec("   ", BASE_RING, QQ)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^", BASE_RING, QQ)
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse_polynomial("x + + y", BASE_RING, QQ)
    with pytest.raises(ParseError):
        parse_polynomial("x 2", BASE_RING, QQ)


def test_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_polynomial("z^2", BASE_RING, QQ)
    with pytest.raises(UnknownVariable):
        parse_polynomial("t*x", BASE_RING, QQ)  # t is not a base-ring variable
    # but t and T1 parse in the extended ring
    ring = rees_ring(2)
    p = parse_polynomial("y^6*T1 - x^3*T2", ring, QQ)
    assert len(p.terms) == 2


def test_optional_star_and_whitespace():
    variants = ["2*x^2*y", "2 x^2 y", "2x^2y", "2 * x^2 * y"]
    expected = parse_polynomial(variants[0], BASE_RING, QQ)
    for text in variants[1:]:
        assert parse_polynomial(text, BASE_RING, QQ) == expected
    assert parse_polynomial("2 * x", BASE_RING, QQ).terms == {(1, 0): 2}


@pytest.mark.parametrize("text, star", [("3*", 1), ("2*+x", 1), ("1/2*", 3), ("x*", 1),
                                         ("x^2*", 3), ("2 * ", 2)])
def test_a_dangling_star_is_a_parse_error(text, star):
    # a '*' after a coefficient, as after a variable, needs a variable next
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, BASE_RING, QQ)
    assert err.value.position == star
    with pytest.raises(ParseError) as err:
        parse_ideal_spec("x^2, " + text, BASE_RING, QQ)
    assert err.value.position == star + 5
    # the same star followed by a variable parses
    assert parse_polynomial(text.replace("*", "*y"), BASE_RING, QQ).terms


@pytest.mark.parametrize("text,message", [
    ("x^2, ", "expected a term, found end of input at position 5 "
              "(expected coefficient or variable)"),
    ("x^", "unexpected end of input at position 2 (expected an integer)"),
    ("1/", "unexpected end of input at position 2 (expected an integer)"),
    ("ideal(x, y", "unexpected end of input at position 10 (expected ')')"),
    ("ideal x", "unexpected 'x' at position 6 (expected '(')"),
    ("ideal(x) y", "unexpected 'y' at position 9 (expected end of input)"),
    # digits are ASCII: a superscript or another script's digit is no integer
    ("x²", "unexpected character '²' at position 1"),
    ("x^³", "unexpected character '³' at position 2"),
    ("٣x", "unexpected character '٣' at position 0"),
])
def test_errors_name_tokens_as_they_are_typed(text, message):
    # the end of the input reads "end of input", not the EOF token's value,
    # and an expected token is named as the user would type it
    with pytest.raises(ParseError) as err:
        parse_ideal_spec(text, BASE_RING, QQ)
    assert str(err.value) == message


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet="0123456789xytTideal^*+-/(), \t²٣é\u00a0")))
def test_the_input_layer_raises_only_package_errors(text):
    # whatever is typed or pasted, a caller sees an AgreesError or a result
    for field in (QQ, FP):
        try:
            parse_ideal_spec(text, BASE_RING, field)
        except AgreesError:
            pass


def test_fraction_coefficients():
    p = parse_polynomial("1/2*x + 3/4", BASE_RING, QQ)
    assert p.terms[(1, 0)] == Fraction(1, 2)
    assert p.terms[(0, 0)] == Fraction(3, 4)
    q = parse_polynomial("1/2*x", BASE_RING, FP)
    assert q.terms[(1, 0)] == FP.fraction(1, 2)


def test_vanishing_denominator_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_polynomial("1/0*x", BASE_RING, QQ)
    with pytest.raises(ParseError):
        parse_polynomial(f"1/{FP.p}*x", BASE_RING, FP)


def _random_poly(rng, field):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        e = (rng.randint(0, 7), rng.randint(0, 7))
        c = field.from_int(rng.choice([-5, -3, -2, -1, 1, 2, 3, 7]))
        terms[e] = c
    return Polynomial(BASE_RING, field, terms)


@pytest.mark.parametrize("field", [QQ, FP])
def test_print_parse_round_trip(field):
    rng = random.Random(23)
    for _ in range(200):
        p = _random_poly(rng, field)
        assert parse_polynomial(str(p), BASE_RING, field) == p


def test_round_trip_rees_ring():
    ring = rees_ring(3)
    rng = random.Random(5)
    for _ in range(50):
        terms = {
            tuple(rng.randint(0, 3) for _ in range(ring.arity)):
                QQ.from_int(rng.choice([-2, -1, 1, 3]))
            for _ in range(rng.randint(1, 4))
        }
        p = Polynomial(ring, QQ, terms)
        assert parse_polynomial(str(p), ring, QQ) == p
