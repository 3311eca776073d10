"""Fuzz the input boundary: scalar text and point JSON.

Arbitrary text into parse_scalar, and arbitrary JSON-shaped values into
scalar_from_json and point_from_json, must give a value or raise ValueError,
never another exception type.  Formatted scalars and JSON scalars must
round-trip.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from d4vgit.gitcore import PointHV, point_from_json, point_to_json
from d4vgit.scalars import (
    QI, Scalar, adjoin_sqrt, format_scalar, parse_scalar, scalar_from_json,
    scalar_to_json,
)


def value_or_value_error(fn, arg):
    try:
        return fn(arg)
    except ValueError:
        return None


# text biased towards the scalar grammar, plus arbitrary unicode
scalar_text = st.one_of(
    st.text(),
    st.text(alphabet="0123456789+-/*i e._", max_size=30),
    st.lists(st.sampled_from(["1", "23", "/", "4", "+", "-", "*i", "i", "e9",
                              "0", ".5", " "]), max_size=8).map("".join),
)

# JSON-shaped values: scalars, lists and objects whose keys and strings
# lean towards the point and tower formats
json_key = st.one_of(st.sampled_from(["gens", "coeffs", "alpha", "beta", "B", "x"]),
                     st.text(max_size=3))
json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    scalar_text,
)
json_values = st.recursive(
    json_leaf,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(json_key, children, max_size=5)),
    max_leaves=30,
)


@st.composite
def tower_dicts(draw):
    """Near-valid tower scalars: string generators, coeffs of any nesting."""
    gens = draw(st.lists(st.one_of(st.sampled_from(["2", "3", "-1", "4", "0", "5/7"]),
                                   json_values), max_size=5))
    coeffs = draw(st.recursive(st.sampled_from(["1", "-2/3", "i", "x"]),
                               lambda c: st.lists(c, min_size=1, max_size=3),
                               max_leaves=8))
    return {"gens": gens, "coeffs": coeffs}


@st.composite
def point_dicts(draw):
    """Point-shaped objects with arbitrary entries, sometimes of wrong arity."""
    entry = st.one_of(scalar_text, tower_dicts(), json_values)
    triple = st.lists(entry, min_size=2, max_size=4)
    data = {"alpha": draw(st.lists(entry, min_size=2, max_size=4)),
            "beta": draw(entry),
            "B": draw(st.lists(triple, min_size=2, max_size=4)),
            "x": draw(st.lists(entry, min_size=1, max_size=3))}
    for key in draw(st.lists(st.sampled_from(sorted(data)), max_size=1)):
        del data[key]
    return data


@given(scalar_text)
@settings(max_examples=300)
def test_parse_scalar_gives_value_or_value_error(text):
    x = value_or_value_error(parse_scalar, text)
    assert x is None or (isinstance(x, Scalar) and x.field is QI)


@given(st.one_of(json_values, tower_dicts()))
@settings(max_examples=200)
def test_scalar_from_json_gives_value_or_value_error(data):
    x = value_or_value_error(scalar_from_json, data)
    if x is not None:
        assert scalar_from_json(scalar_to_json(x)) == x


@given(st.one_of(json_values, point_dicts()))
@settings(max_examples=120)
def test_point_from_json_gives_value_or_value_error(data):
    p = value_or_value_error(point_from_json, data)
    if p is not None:
        assert isinstance(p, PointHV)
        again = point_from_json(json.loads(json.dumps(point_to_json(p))))
        assert again.same_h_part(p) and again.x == p.x


big = st.integers(-2 ** 300, 2 ** 300)


@given(big, big, st.integers(1, 2 ** 300))
def test_formatted_scalar_round_trips(re, im, den):
    x = QI.scalar(re, im) / den
    assert parse_scalar(format_scalar(x)) == x
    assert scalar_from_json(json.loads(json.dumps(scalar_to_json(x)))) == x


@given(st.lists(st.tuples(big, big), min_size=2, max_size=8))
def test_tower_scalar_json_round_trips(leaves):
    field = QI
    for p in (2, 3, 5)[:len(leaves).bit_length() - 1]:
        field, _ = adjoin_sqrt(field, p)

    def build(fld, coeffs):
        if fld.is_base:
            return QI.scalar(*coeffs[0])
        half = len(coeffs) // 2
        return (fld.lift(build(fld.base, coeffs[:half]))
                + fld.generator() * fld.lift(build(fld.base, coeffs[half:])))

    x = build(field, leaves[:2 ** field.depth])
    assert scalar_from_json(json.loads(json.dumps(scalar_to_json(x)))) == x


def test_nested_tower_generators_raise_value_error():
    """A generator that is itself a tower scalar may name only the
    generators before it, so hostile nesting stops before any recursion
    limit."""
    data = {"gens": [], "coeffs": "2"}
    for _ in range(5000):
        data = {"gens": [data], "coeffs": "1"}
    with pytest.raises(ValueError):
        scalar_from_json(data)
    with pytest.raises(ValueError):
        scalar_from_json({"gens": ["2", {"gens": 7, "coeffs": "1"}], "coeffs": "1"})
    nested_ok = {"gens": ["2", {"gens": ["2"], "coeffs": ["3", "1"]}],
                 "coeffs": [["1", "0"], ["0", "1"]]}
    x = scalar_from_json(nested_ok)
    assert x.field.depth == 2 and scalar_from_json(scalar_to_json(x)) == x
