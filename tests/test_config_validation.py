"""The CLI's config validation gives jsonschema's verdict and best_match
message on configs drawn from every command's schema, jsonschema being the
oracle; the CLI itself runs without it."""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from carnotlab.cli import DEFAULTS, SCHEMAS, _schema_message

NAN = float("nan")

# Values that break some schema: wrong types, bools in number slots, 2.0 for
# an integer, NaN and infinities, huge numbers and repeated or empty lists.
EDGE_VALUES = [
    None, True, False, 0, -1, 1, 2.0, 1.5, -0.0, NAN, math.inf, -math.inf, 1e300, 10**30,
    "", "x", "3", [], [3, 3], [3.0, 3], [True, 1], [True, 1, True], [NAN, NAN], [None], {},
    {"a": 1},
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)


def _options(schema: dict) -> list[dict]:
    return schema.get("anyOf", [schema])


def _valid(schema: dict) -> st.SearchStrategy:
    """Values the schema accepts, by construction."""
    strategies = []
    for option in _options(schema):
        if "enum" in option:
            strategies.append(st.sampled_from(option["enum"]))
        elif option["type"] == "integer":
            ints = st.integers(option.get("minimum"), option.get("maximum"))
            strategies += [ints, ints.map(float)]
        elif option["type"] == "number":
            low = option.get("exclusiveMinimum")
            strategies.append(st.floats(low, exclude_min=low is not None, allow_nan=False,
                                        allow_infinity=False))
        elif option["type"] == "array":
            item = _valid(option["items"])
            lists = st.lists(item, min_size=option["minItems"], max_size=option["minItems"] + 3,
                             unique_by=repr if option.get("uniqueItems") else None)
            strategies.append(lists)
        elif option["type"] == "string":
            strategies.append(st.text(min_size=option.get("minLength", 0), max_size=4))
        else:
            strategies.append(st.none())
    return st.one_of(strategies)


def _near_bounds(schema: dict) -> list:
    """Numbers on and just past each bound, as ints and floats."""
    values = []
    for option in _options(schema):
        option = option.get("items", option)
        for key in ("minimum", "maximum", "exclusiveMinimum"):
            if key in option:
                bound = option[key]
                values += [bound, float(bound), bound - 1, bound + 1, bound - 0.5, bound + 0.5]
    return values


def _value(schema: dict) -> st.SearchStrategy:
    near = _near_bounds(schema)
    arrays = [o for o in _options(schema) if o.get("type") == "array"]
    return st.one_of(
        _valid(schema),
        st.sampled_from(EDGE_VALUES),
        *([st.sampled_from(near)] if near else []),
        # Lists of valid items, often repeating one.
        *(st.lists(_valid(o["items"]), min_size=2, max_size=4) for o in arrays),
        JSON_VALUES,
    )


@st.composite
def configs(draw):
    """A command and a config: every value valid, or each at its default or
    drawn; now and then a key left out or an unknown key added (either error
    masks the rest)."""
    command = draw(st.sampled_from(sorted(SCHEMAS)))
    schema = SCHEMAS[command]
    valid_only = draw(st.booleans())
    config = {
        key: draw(_valid(sub) if valid_only else st.just(DEFAULTS[command][key]) | _value(sub))
        for key, sub in schema["properties"].items()
    }
    for key in draw(st.lists(st.sampled_from(sorted(config)), max_size=2)
                    | st.just([]) | st.just([])):
        config.pop(key, None)
    unknown = st.text(max_size=6).filter(lambda k: k not in schema["properties"])
    config.update(draw(st.dictionaries(unknown, JSON_VALUES, max_size=2) | st.just({})))
    return command, config


def _jsonschema_message(value, schema: dict) -> str | None:
    """The message `jsonschema.validate` raises, less its metaschema check
    (test_cli.py runs that), which takes most of its time."""
    error = best_match(validator_for(schema)(schema).iter_errors(value))
    return None if error is None else error.message


@settings(derandomize=True, max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(configs())
@example(("geodesic", {**DEFAULTS["geodesic"], "target": [1, "x", 0, 0]}))
@example(("geodesic", {**DEFAULTS["geodesic"], "target": "far", "restarts": 2.5}))
@example(("gap", {**DEFAULTS["gap"], "p": True, "degrees": [2, 2, 0]}))
@example(("ball-check", {**DEFAULTS["ball-check"], "radii": [NAN, NAN], "exponent": 1}))
@example(("localize", {**DEFAULTS["localize"], "member": "", "level_l": 1, "zz": 0, "a": 0}))
@example(("verify-algebra", {"steps": [3, True, 3], "samples": 2.0, "tolerance": math.inf}))
def test_message_matches_jsonschema(drawn):
    command, config = drawn
    schema = SCHEMAS[command]
    assert _schema_message(config, schema) == _jsonschema_message(config, schema)


def _keyword_uses(schema: dict):
    """(keyword, argument) for every keyword in a schema and its subschemas."""
    for keyword, arg in schema.items():
        yield keyword, arg
        if keyword == "properties":
            for sub in arg.values():
                yield from _keyword_uses(sub)
        elif keyword == "items":
            yield from _keyword_uses(arg)
        elif keyword == "anyOf":
            for sub in arg:
                yield from _keyword_uses(sub)


# Each keyword SCHEMAS uses, with every distinct argument it takes there.
KEYWORD_USES: dict[str, list] = {}
for _schema in SCHEMAS.values():
    for _keyword, _arg in _keyword_uses(_schema):
        if _arg not in KEYWORD_USES.setdefault(_keyword, []):
            KEYWORD_USES[_keyword].append(_arg)


@pytest.mark.parametrize("keyword", sorted(KEYWORD_USES))
def test_every_schema_keyword_is_implemented(keyword):
    probes = [*EDGE_VALUES, *DEFAULTS.values(), {"target": [1, 0]}, {"kind": "x", "seed": -1}]
    for arg in KEYWORD_USES[keyword]:
        schema = {keyword: arg}
        for value in probes:
            assert _schema_message(value, schema) == _jsonschema_message(value, schema), value


def test_an_unknown_keyword_is_an_error():
    with pytest.raises(KeyError, match="not implemented"):
        _schema_message(1, {"multipleOf": 2})
