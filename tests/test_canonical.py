import hashlib
import json

import pytest

from vet.canonical import (
    JsonPointer,
    canonical_bytes,
    canonical_loads,
    content_hash,
    is_hash_string,
    json_field,
    parse_hex,
    parse_int,
)
from vet.errors import ValidationError


def test_sorted_compact_golden():
    obj = {"b": "2", "a": "1", "nested": {"z": None, "y": True}}
    assert canonical_bytes(obj) == b'{"a":"1","b":"2","nested":{"y":true,"z":null}}'


def test_key_order_independent():
    assert canonical_bytes({"a": "1", "b": "2"}) == canonical_bytes({"b": "2", "a": "1"})


def test_unicode_not_escaped():
    assert canonical_bytes({"k": "café"}) == '{"k":"café"}'.encode("utf-8")


@pytest.mark.parametrize("bad", [1, 1.5, {"n": 3}, ["x", 0], {"a": {"b": [2.0]}}, True and 0])
def test_numbers_rejected(bad):
    with pytest.raises(ValidationError):
        canonical_bytes(bad)


def test_bool_and_null_allowed():
    assert canonical_bytes([True, False, None]) == b"[true,false,null]"


def test_unserializable_type_rejected():
    with pytest.raises(ValidationError):
        canonical_bytes({"k": b"bytes"})
    with pytest.raises(ValidationError):
        canonical_bytes({1: "non-string key"})


def test_loads_round_trip():
    obj = {"a": ["1", {"b": None}], "c": "x"}
    assert canonical_loads(canonical_bytes(obj)) == obj
    assert canonical_loads(canonical_bytes(obj).decode()) == obj


def test_content_hash_matches_independent_oracle():
    obj = {"b": "2", "a": "1"}
    # Independent computation: plain json.dumps with the same conventions.
    oracle = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    assert content_hash(obj) == "sha256:" + hashlib.sha256(oracle).hexdigest()


def test_is_hash_string():
    good = "sha256:" + "a" * 64
    assert is_hash_string(good)
    assert not is_hash_string("sha256:" + "a" * 63)
    assert not is_hash_string("sha256:" + "A" * 64)
    assert not is_hash_string("md5:" + "a" * 64)
    assert not is_hash_string(None)


def test_json_pointer():
    doc = {"a": {"b": ["x", "y"]}, "e~f": "tilde", "g/h": "slash", "": "empty"}
    assert JsonPointer("").resolve(doc) == doc
    assert JsonPointer("/a/b/1").resolve(doc) == "y"
    assert JsonPointer("/e~0f").resolve(doc) == "tilde"
    assert JsonPointer("/g~1h").resolve(doc) == "slash"
    assert JsonPointer("/").resolve(doc) == "empty"


@pytest.mark.parametrize(
    "pointer", ["/missing", "/a/b/5", "/a/b/x", "/a/b/0/deep", "no-slash"]
)
def test_json_pointer_errors(pointer):
    doc = {"a": {"b": ["x", "y"]}}
    with pytest.raises(KeyError):
        JsonPointer(pointer).resolve(doc)


@pytest.mark.parametrize(
    "text, value", [("0", 0), ("7", 7), ("-1", -1), ("12345678901234567890", 12345678901234567890)]
)
def test_parse_int_reads_the_decimal_spelling(text, value):
    assert parse_int(text, "n") == value


@pytest.mark.parametrize(
    "text",
    ["01", "+1", " 1", "1 ", "1_0", "-0", "", "1.0", "0x1", "٣", "9" * 5000, 1, None, True,
     float("inf"), float("nan")],
)
def test_parse_int_refuses_other_spellings(text):
    with pytest.raises(ValidationError, match="n must be a decimal integer string"):
        parse_int(text, "n")


def test_parse_hex_reads_lowercase_hex():
    assert parse_hex("", "h") == b""
    assert parse_hex("00ff", "h") == b"\x00\xff"


@pytest.mark.parametrize("text", ["00FF", "00fF", " 00", "00 ff", "0", "zz", 5, None, ["00"]])
def test_parse_hex_refuses_other_spellings(text):
    with pytest.raises(ValidationError, match="h must be a lowercase hex string"):
        parse_hex(text, "h")


def test_json_field():
    obj = {"s": "x", "d": {}, "l": [], "b": False, "n": None, "i": "12", "h": "ab"}
    assert json_field(obj, "s") == "x"
    assert json_field(obj, "d", dict) == {}
    assert json_field(obj, "l", list) == []
    assert json_field(obj, "b", bool) is False
    assert json_field(obj, "n", object) is None
    assert json_field(obj, "i", int) == 12
    assert json_field(obj, "h", bytes) == b"\xab"
    assert json_field(obj, "absent", str, "default") == "default"
    assert json_field(obj, "absent", int, None) is None


@pytest.mark.parametrize(
    "obj, key, kind, message",
    [
        ({}, "k", str, "missing field k"),
        ({"k": 5}, "k", str, "k must be a string, not int"),
        ({"k": "x"}, "k", dict, "k must be an object, not str"),
        ({"k": {}}, "k", list, "k must be an array, not dict"),
        ({"k": "true"}, "k", bool, "k must be a boolean, not str"),
        ({"k": "01"}, "k", int, "k must be a decimal integer string"),
        ({"k": 1}, "k", int, "k must be a decimal integer string"),  # a JSON number
        ({"k": "AB"}, "k", bytes, "k must be a lowercase hex string"),
        (["k"], "k", str, "expected an object holding k, not list"),
    ],
)
def test_json_field_names_the_field(obj, key, kind, message):
    with pytest.raises(ValidationError, match=message):
        json_field(obj, key, kind)


@pytest.mark.parametrize(
    "data",
    [
        b"not json",
        b"\xff",
        b'{"a":"\\ud800"}',  # an escaped half of a surrogate pair
        b'{"a":"\\udc00x"}',
        '{"a":"\ud800"}',  # a raw one
        b"[" * 100_000 + b"]" * 100_000,
    ],
)
def test_loads_refuses_what_has_no_canonical_form(data):
    with pytest.raises(ValidationError):
        canonical_loads(data)


def test_loads_reads_an_escaped_surrogate_pair():
    loaded = canonical_loads(b'{"a":"\\ud83d\\ude00","b":"\\u0001"}')
    assert loaded == {"a": "\U0001f600", "b": "\x01"}


@pytest.mark.parametrize(
    "data, key",
    [
        (b'{"a":"1","a":"2"}', "a"),
        (b'{"a":"1","b":"2","a":"1"}', "a"),
        (b'{"x":[{"k":"1"},{"k":"1","k":"1"}]}', "k"),
        (b'{"x":{"y":"1","y":{"z":"1"}}}', "y"),
    ],
)
def test_loads_refuses_a_duplicate_member_name(data, key):
    with pytest.raises(ValidationError, match=f"duplicate member name '{key}'"):
        canonical_loads(data)


def test_loads_reads_the_same_name_in_different_objects():
    assert canonical_loads(b'{"a":{"a":"1"},"b":[{"a":"2"},{"a":"3"}]}') == {
        "a": {"a": "1"},
        "b": [{"a": "2"}, {"a": "3"}],
    }
