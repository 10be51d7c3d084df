"""The checked JSON reader: paths in errors, and totality of every loader."""

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefnet import (
    Distribution,
    InputError,
    interpretation_from_json,
    interpretation_to_json,
    network_from_json,
    stimuli_from_json,
)
from prefnet.jsonin import read_json, where
from genutil import (
    network_to_json,
    random_feedforward_net,
    random_fuzzy_interp,
    random_stimuli,
    stimuli_to_json,
)

FIELDS = [
    "units", "inputs", "C", "id", "activation", "bias", "in", "stimuli",
    "values", "domain", "concepts", "roles", "individuals", "mu",
]

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)

_KIND = {
    dict: "an object", list: "a list", str: "a string", int: "a number",
    float: "a number", bool: "a boolean", type(None): "null",
}
_MISSING = object()
_TYPE_ERROR = re.compile(r"expected (an object|a list|a string|a number), got (.+)")
_LENGTH_ERROR = re.compile(r"expected (\d+) items, got (\d+)")


def _walk(doc, message):
    """Follow the JSON path that starts ``message``: the value it names
    (``_MISSING`` for an absent key), and the rest of the message."""
    if message.startswith("top level: "):
        return doc, message[len("top level"):]
    value, rest, first = doc, message, True
    while not rest.startswith(": "):
        if rest.startswith('["'):
            key, end = json.JSONDecoder().raw_decode(rest, 1)
            assert rest[end] == "]", message
            rest = rest[end + 1:]
        elif rest.startswith("["):
            end = rest.index("]")
            key, rest = int(rest[1:end]), rest[end + 1:]
        else:
            assert first or rest.startswith("."), message
            key = re.match(r"\.?([^.\[:]+)", rest).group(1)
            assert key.isidentifier(), message
            rest = rest[len(key) + (not first):]
        first = False
        assert value is not _MISSING, message
        if isinstance(key, int):
            assert type(value) is list and key < len(value), message
            value = value[key]
        else:
            assert type(value) is dict, message
            value = value.get(key, _MISSING)
    return value, rest


def _check_error(doc, message):
    """A reader error names the path of a value that really is wrong there;
    any other message comes from a constructor's range or id check."""
    tail = re.search(
        r": (expected .+, got .+|unknown field; allowed: .+|missing required field"
        r"|number out of range)$",
        message,
    )
    if tail is None:
        return
    value, rest = _walk(doc, message)
    what = rest[2:]
    if what == "missing required field":
        assert value is _MISSING, message
        return
    assert value is not _MISSING, message
    if what == "number out of range":
        assert type(value) is int, message
    elif m := _LENGTH_ERROR.fullmatch(what):
        assert type(value) is list and len(value) == int(m.group(2)) != int(m.group(1))
    elif m := _TYPE_ERROR.fullmatch(what):
        assert _KIND[type(value)] == m.group(2) != m.group(1), message


def _positions(doc):
    """Every (container, key) pair inside ``doc``."""
    if isinstance(doc, dict):
        pairs = list(doc.items())
    elif isinstance(doc, list):
        pairs = list(enumerate(doc))
    else:
        return []
    out = []
    for key, value in pairs:
        out.append((doc, key))
        out.extend(_positions(value))
    return out


@st.composite
def _mutated(draw, make):
    """A valid document with one field dropped, renamed or replaced."""
    doc = make(random.Random(draw(st.integers(0, 2**32))))
    container, key = draw(st.sampled_from(_positions(doc)))
    action = draw(st.sampled_from(["drop", "rename", "replace"]))
    if action == "replace" or (action == "rename" and isinstance(container, list)):
        container[key] = draw(JSON)
    elif action == "drop":
        del container[key]
    else:
        container[draw(st.sampled_from(FIELDS) | st.text(max_size=5))] = container.pop(key)
    return doc


def _network_doc(rng):
    return network_to_json(random_feedforward_net(rng, max_layers=2, max_width=3))


def _stimuli_doc(rng):
    net = random_feedforward_net(rng, max_layers=2, max_width=3)
    return stimuli_to_json(random_stimuli(rng, net, 2))


def _interpretation_doc(rng):
    interp = random_fuzzy_interp(rng, ["A", "B"], size=3, roles=["r"])
    return interpretation_to_json(interp)


def _distribution_doc(rng):
    weights = [rng.random() + 0.1 for _ in range(3)]
    return {"mu": {f"d{k}": w / sum(weights) for k, w in enumerate(weights)}}


def _check_total(load, doc):
    # Anything but InputError fails the test.
    try:
        load(doc)
    except InputError as e:
        _check_error(doc, str(e))


@settings(max_examples=500, deadline=None)
@given(JSON | _mutated(_network_doc))
def test_network_loader_totality(doc):
    _check_total(network_from_json, doc)


@settings(max_examples=500, deadline=None)
@given(JSON | _mutated(_stimuli_doc))
def test_stimuli_loader_totality(doc):
    _check_total(stimuli_from_json, doc)


@settings(max_examples=500, deadline=None)
@given(JSON | _mutated(_interpretation_doc))
def test_interpretation_loader_totality(doc):
    _check_total(interpretation_from_json, doc)


@settings(max_examples=500, deadline=None)
@given(JSON | _mutated(_distribution_doc))
def test_distribution_loader_totality(doc):
    _check_total(Distribution.from_json, doc)


def test_where_formats_keys_and_indices():
    assert where(()) == "top level"
    assert where(("units", 3, "in", 5)) == "units[3].in[5]"
    assert where(("c",)) == "c"
    assert where(("concepts", "a b", "x")) == 'concepts["a b"].x'


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "top level: expected an object, got a list"),
        ({"units": [{"id": "u", "in": [["x"]]}]}, "units[0].in[0]: expected 2 items, got 1"),
        ({"units": [], "inputs": [True]}, "inputs[0]: expected a string, got a boolean"),
        ({"units": [{"id": "u", "bias": 10**400}]}, "units[0].bias: number out of range"),
        ({"units": [], "c": []}, "c: unknown field; allowed: units, inputs, C"),
        ({"units": [{}]}, "units[0].id: missing required field"),
    ],
)
def test_network_errors_name_the_path(doc, message):
    with pytest.raises(InputError) as exc:
        network_from_json(doc)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text",
    ['{"domain": [', "1" * 5000, "[" * 100000],
    ids=["truncated", "long-integer", "deep-nesting"],
)
def test_read_json_rejects_what_json_cannot_load(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: invalid JSON"):
        read_json(path)


def test_read_json_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"domain": ["caf\xe9"]}'.encode("latin-1"))
    with pytest.raises(InputError, match="not UTF-8"):
        read_json(path)
