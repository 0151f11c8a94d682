"""Canonical binomial representation, evaluation, parsing."""

import tracemalloc
from fractions import Fraction

import pytest

from treetoric.binomials import (
    Binomial,
    coord_var,
    monomial,
    parse_binomial,
    parse_var_name,
    var_name,
)


def test_var_names_roundtrip():
    for v in [("p", 0, 1), ("q", 3, 4), ("s", 11, 12), ("q", 2, 10)]:
        assert parse_var_name(var_name(v)) == v


def test_coord_var_normalizes():
    assert coord_var("q", 4, 1) == ("q", 1, 4)


def test_canonical_orientation():
    a = monomial([("q", 0, 1)])
    b = monomial([("q", 0, 2)])
    assert Binomial.make(a, b) == Binomial.make(b, a)
    assert Binomial.make(a, b).lead == b


def test_degenerate_is_none():
    m = monomial([("q", 1, 2), ("q", 1, 2)])
    assert Binomial.make(m, m) is None


def test_repeated_variable_exponent():
    m = monomial([("q", 1, 2), ("q", 1, 2)])
    assert m == ((("q", 1, 2), 2),)


def test_evaluate():
    b = Binomial.make(
        monomial([("p", 0, 1)]), monomial([("p", 0, 2)])
    )
    assert b.evaluate({("p", 0, 1): Fraction(5), ("p", 0, 2): Fraction(5)}) == 0
    # constructed zero: p03*p24 - p02*p34 at (2)(3) - (1)(6)
    q = Binomial.make(
        monomial([("p", 0, 3), ("p", 2, 4)]),
        monomial([("p", 0, 2), ("p", 3, 4)]),
    )
    point = {
        ("p", 0, 3): Fraction(2),
        ("p", 2, 4): Fraction(3),
        ("p", 0, 2): Fraction(1),
        ("p", 3, 4): Fraction(6),
    }
    assert q.evaluate(point) == 0
    point[("p", 3, 4)] = Fraction(7)
    assert q.evaluate(point) == -1


def test_evaluate_missing_variable():
    b = Binomial.make(monomial([("p", 0, 1)]), monomial([("p", 0, 2)]))
    with pytest.raises(KeyError):
        b.evaluate({("p", 0, 1): Fraction(1)})


def test_text_and_parse_roundtrip():
    b = Binomial.make(
        monomial([("q", 0, 3), ("q", 2, 4)]),
        monomial([("q", 0, 2), ("q", 3, 4)]),
    )
    assert parse_binomial(b.text()) == b
    assert parse_binomial("q12^2 - q01*q02").lead == ((("q", 1, 2), 2),)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_binomial("q01 + q02")
    with pytest.raises(ValueError):
        parse_binomial("q01 - q01")


def test_parse_rejects_exponent_below_one():
    for text in ("q01^0 - q02", "q01^0*q03 - q02", "q01 - q02^0*q03"):
        with pytest.raises(ValueError, match="exponent"):
            parse_binomial(text)


def test_parse_large_exponent_without_expanding():
    tracemalloc.start()
    try:
        b = parse_binomial("q01^1000000 - q02*q01^3")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert b.lead == ((("q", 0, 1), 1000000),)
    assert b.trail == ((("q", 0, 1), 3), (("q", 0, 2), 1))
    assert peak < 2**20

