"""Grammar conformance, parse errors, and printing round-trips."""

import re
from fractions import Fraction

import pytest

from primespec import (ConfigError, Polynomial, PolynomialSyntaxError, UnknownVariableError,
                       context, parse_polynomial)
from primespec.parse import parse_ideal_source

from conftest import random_polynomial, seeded


@pytest.fixture
def ty():
    return context(("Y",), params=("T",))


def test_basic_difference(ty):
    p = parse_polynomial("Y^2 - T", ty)
    assert p.terms == {(0, 2): Fraction(1), (1, 0): Fraction(-1)}


def test_comma_is_a_syntax_error(ty):
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial("Y - X, Y - X^2", ty)
    assert err.value.position is not None


def test_parenthesized_power():
    ctx = context(("Y1", "Y2"))
    p = parse_polynomial("(Y1+Y2)^2", ctx)
    assert p.terms == {(2, 0): Fraction(1), (1, 1): Fraction(2), (0, 2): Fraction(1)}


def test_unknown_variable_named(ty):
    with pytest.raises(UnknownVariableError) as err:
        parse_polynomial("Y + W", ty)
    assert err.value.name == "W"


def test_rationals_and_juxtaposition(ty):
    assert parse_polynomial("1/2 Y", ty) == Polynomial.variable(ty, "Y") * Fraction(1, 2)
    assert parse_polynomial("2Y", ty) == Polynomial.variable(ty, "Y") * 2
    assert parse_polynomial("3(Y + 1)", ty) == parse_polynomial("3Y + 3", ty)
    assert parse_polynomial("Y T", ty) == parse_polynomial("T*Y", ty)


def test_unary_minus(ty):
    assert parse_polynomial("-T", ty) == -Polynomial.variable(ty, "T")
    assert parse_polynomial("-2^2", ty) == Polynomial.constant(ty, -4)


def test_power_binds_tighter_than_product(ty):
    assert parse_polynomial("2Y^2", ty) == parse_polynomial("2*(Y^2)", ty)


_EXPECTED = "expected a number, variable or parenthesized expression"


@pytest.mark.parametrize("text, error, message, position", [
    ("Y^-2", PolynomialSyntaxError, "exponent must be an unsigned integer", 2),
    ("Y^(2)", PolynomialSyntaxError, "exponent must be an unsigned integer", 2),
    ("2/0", PolynomialSyntaxError, "denominator must be a positive integer", 2),
    ("(Y", PolynomialSyntaxError, "expected ')'", 2),
    ("Y/2", PolynomialSyntaxError, "unexpected '/'", 1),
    ("2 3", PolynomialSyntaxError, "unexpected 3", 2),
    ("Y,", PolynomialSyntaxError, "unexpected character ','", 1),
    ("", PolynomialSyntaxError, _EXPECTED, 0),
    ("Y +", PolynomialSyntaxError, _EXPECTED, 3),
    ("W + Y", UnknownVariableError, "unknown variable 'W'", 0),
], ids=["Y^-2", "Y^(2)", "2/0", "(Y", "Y/2", "2 3", "Y,", "empty", "Y +", "W + Y"])
def test_error_contract(ty, text, error, message, position):
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial(text, ty)
    assert type(err.value) is error
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


@pytest.mark.parametrize("text, position", [
    ("Y^\u00b2", 2),          # superscript two
    ("Y^\u0663 - 1", 2),      # Arabic-Indic three
    ("Y + \uff11", 4),        # fullwidth one
    ("Y\u00e9", 1),           # e acute inside an identifier
    ("\uff39 + 1", 0),        # fullwidth Y
])
def test_digits_and_identifiers_are_ascii(ty, text, position):
    message = f"unexpected character {text[position]!r} (at position {position})"
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial(text, ty)
    assert str(err.value) == message
    with pytest.raises(ConfigError, match=f"^line 3: {re.escape(message)}$"):
        parse_ideal_source(f"vars: Y\ngens:\n{text}\n")


def test_a_number_too_long_for_int_is_a_syntax_error_on_its_line(ty):
    # int() converts at most 4300 digits by default; the parser leaves that
    # limit as it is and reports the number where it starts.
    text = "Y - " + "1" * 5000
    message = "number too long: 5000 digits (at position 4)"
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial(text, ty)
    assert str(err.value) == message and err.value.position == 4
    with pytest.raises(ConfigError, match=f"^line 3: {re.escape(message)}$"):
        parse_ideal_source(f"vars: Y\ngens:\n{text}\n")


def test_print_parse_roundtrip_on_random(ty):
    rng = seeded(7)
    for _ in range(100):
        p = random_polynomial(ty, rng)
        assert parse_polynomial(str(p), ty) == p


def test_zero_prints_and_parses(ty):
    assert str(Polynomial.zero(ty)) == "0"
    assert parse_polynomial("0", ty).is_zero


def test_ideal_file_roundtrip():
    source = """
    # a parametrized curve
    params: T
    vars: Y1, Y2

    gens:
    Y2 - T*Y1^2   # fiber over T
    Y1 - 1
    """
    ctx, gens = parse_ideal_source(source)
    assert ctx.param_names == ("T",)
    assert ctx.var_names == ("Y1", "Y2")
    assert len(gens) == 2


def test_ideal_file_requires_sections():
    with pytest.raises(ConfigError):
        parse_ideal_source("vars: Y\n")
    with pytest.raises(ConfigError):
        parse_ideal_source("gens:\nY\n")
    with pytest.raises(ConfigError):
        parse_ideal_source("vars: Y\ngens:\nY +\n")


@pytest.mark.parametrize("source, message", [
    ("vars: Y\nvars: X\ngens:\nX\n", "line 2: duplicate 'vars:'"),
    ("params: T\nvars: Y\n# the other parameter\nPARAMS: S\ngens:\nY\n",
     "line 4: duplicate 'params:'"),
], ids=["vars", "params"])
def test_ideal_file_rejects_a_repeated_header(source, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_ideal_source(source)
