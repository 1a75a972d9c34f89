"""Instance and plan files are decoded by orjson where it reads what the
standard library's ``json`` reads, and by ``json`` everywhere else: every
document, error and message is what a text-mode ``json.load`` gives."""

import codecs
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from districter import (InstanceError, Plan, generate_grid_instance,
                        load_instance, load_plan, save_plan)
from districter.cli import main
from districter.instances import _decode, save_instance


def text_mode_load(data: bytes):
    """What ``json.load(open(path, encoding="utf-8-sig"))`` gives for a file
    holding ``data``: the same text-mode reader over the same bytes."""
    return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig"))


def outcome(decode, data):
    """``("value", v)`` or ``("error", type, message)``."""
    try:
        return ("value", decode(data))
    except (ValueError, RecursionError) as exc:
        return ("error", type(exc), str(exc))


def same_value(a, b) -> bool:
    """``a`` and ``b`` are the same JSON value: types alike at every level,
    floats by ``repr`` (so -0.0, NaN and infinities compare), dicts with
    their keys in the same order.  Iterative, for deeply nested values."""
    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, float):
            if repr(x) != repr(y):
                return False
        elif isinstance(x, list):
            if len(x) != len(y):
                return False
            pending.extend(zip(x, y))
        elif isinstance(x, dict):
            if list(x) != list(y):
                return False
            pending.extend((x[k], y[k]) for k in x)
        elif x != y:
            return False
    return True


def assert_reads_as_json_does(data: bytes):
    mine, reference = outcome(_decode, data), outcome(text_mode_load, data)
    if reference[0] == "error":
        assert mine == reference
    else:
        assert mine[0] == "value" and same_value(mine[1], reference[1])


def signed(digits):
    return st.tuples(st.sampled_from(["", "-"]), digits).map("".join)


# integers of 1 to 25 digits, of either sign
integers = signed(st.integers(1, 25).flatmap(
    lambda k: st.integers(10 ** (k - 1) if k > 1 else 0, 10 ** k - 1)).map(
        str))
# decimal texts that no float's repr gives: up to 20 digits either side of
# the point, and an exponent
decimals = st.from_regex(
    r"-?(0|[1-9][0-9]{0,19})(\.[0-9]{1,20})?([eE][+-]?[0-9]{1,5})?",
    fullmatch=True)
specials = st.sampled_from([
    str(2 ** 63), str(2 ** 64), str(-2 ** 63), str(-2 ** 63 - 1),
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400", "-0.0",
    "-0", "5e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",
    "1.7976931348623157e308", "1.7976931348623159e308", "9007199254740993",
    "9007199254740993.0", "2.2250738585072011e-308", "true", "false",
    "null"])
# strings through json's own encoder, ASCII-escaped or as raw UTF-8, and
# from pieces: escapes, lone and paired surrogates, brackets and quotes
strings = st.one_of(
    st.text(max_size=8).map(json.dumps),
    st.text(max_size=8).map(lambda s: json.dumps(s, ensure_ascii=False)),
    st.lists(st.sampled_from([
        "a", "é", "[", "]", "{", "}", "1" * 19, r"\"", "\\\\", r"\/", r"\n",
        r"\u0000", r"\ud800", r"\udfff", r"\ud83d\ude00",
        r"\udc00\ud800", r"\u00e9"]), max_size=6).map(
            lambda parts: '"' + "".join(parts) + '"'))
separators = st.sampled_from([",", ", ", ",\n", ",\r\n", " ,\t"])


def containers(children):
    items = st.lists(st.tuples(separators, children), max_size=4)
    members = st.lists(st.tuples(separators, strings, children), max_size=4)
    return (items.map(lambda xs: "[" + "".join(
                s + v for s, v in xs)[1:] + "]")
            | members.map(lambda xs: "{" + "".join(
                s + k + ":" + v for s, k, v in xs)[1:] + "}"))


values = st.recursive(
    st.one_of(st.floats().map(json.dumps), integers, decimals, specials,
              strings), containers, max_leaves=12)


def nested(value, depth, kind):
    if kind == "array":
        return "[" * depth + value + "]" * depth
    return '{"a":' * depth + value + "}" * depth


documents = st.builds(
    nested, values,
    st.one_of(st.just(0), st.integers(0, 80), st.integers(900, 1100),
              st.integers(1100, 3000)),
    st.sampled_from(["array", "object"]))


@settings(max_examples=600, deadline=None)
@given(text=documents, bom=st.booleans(), cut=st.none() | st.integers(0),
       tail=st.sampled_from(["", " ", "\n", "x", "]", ",1", "\x00"]))
def test_decode_reads_what_json_reads(text, bom, cut, tail):
    """On nested documents of floats, integers of 1-25 digits, 2**63 and
    2**64, NaN, infinities, 1e400, -0.0, the smallest subnormal, strings
    with escapes and lone surrogates, an optional byte-order mark, nesting
    to 3,000 deep, cut short or with trailing text, the decode gives what
    json gives: the same value, or the same exception and message."""
    data = (codecs.BOM_UTF8 if bom else b"") + text.encode(
        "utf-8", "surrogatepass") + tail.encode()
    if cut is not None:
        data = data[:cut % (len(data) + 1)]
    assert_reads_as_json_does(data)


INVALID_UTF8 = b"\xff"


@pytest.mark.parametrize("data", [
    b"", b" ", b"{", b'{"a": }', b"[1, 2,]", b"[01]", b"[.5]", b"tru",
    b'{"a": 1} {"b": 2}', b"[1] x", b'"\x01"', b"[1]\x00",
    b'{\r\n"a": 1,\r\n"b": ]\r\n}', b'{\r"a": 1,\r"b": ]\r}',
    codecs.BOM_UTF8, codecs.BOM_UTF8[:2], codecs.BOM_UTF8 * 2 + b"[1]",
    b'["\xc3', b'"\xed\xa0\x80"', codecs.BOM_UTF16_LE + "[1]".encode(
        "utf-16-le"),
    b'{"a": "' + INVALID_UTF8 + b'"}',
    b'{"a": "' + b"x" * 10_000 + INVALID_UTF8 + b'"}',
    codecs.BOM_UTF8 + b'{"a": "' + INVALID_UTF8 + b'"}',
    codecs.BOM_UTF8 + b'{"a": "' + b"x" * 10_000 + INVALID_UTF8 + b'"}',
    b"[" * 200_000, b'{"a":' * 100_000 + b"1" + b"}" * 100_000,
    b'["' + b"]" * 2000 + b'", ' + b"[" * 1000 + b"]" * 1001,
    b'["\\"", ' + b"[" * 1000 + b"]" * 1001,
    b"[" + b"1" * 5000 + b"]",
], ids=["empty", "blank", "open-brace", "missing-value", "trailing-comma",
        "leading-zero", "bare-fraction", "bad-literal", "two-documents",
        "trailing-text", "control-character", "trailing-nul", "crlf-error",
        "cr-error", "bom-only", "partial-bom", "two-boms", "cut-multibyte",
        "encoded-surrogate", "utf-16", "invalid-utf8",
        "invalid-utf8-past-8kb", "bom-invalid-utf8",
        "bom-invalid-utf8-past-8kb", "deep-unclosed", "deep-objects",
        "deep-after-brackets-in-a-string", "deep-after-an-escaped-quote",
        "long-integer"])
def test_decode_refuses_what_json_refuses(tmp_path, data):
    """Malformed text, trailing data, invalid UTF-8 (with and without a
    byte-order mark, also past the first 8 KB), files nested past json's
    reach and an integer too long to convert: the exception and message a
    text-mode read of the file gives, line and column counted on the text
    with its newlines translated."""
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    with open(path, encoding="utf-8-sig") as f:
        reference = outcome(json.load, f)
    assert reference[0] == "error"
    assert outcome(_decode, data) == reference


@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["plain", "bom"])
def test_instance_files_are_decoded_without_json(tmp_path, monkeypatch, bom):
    """A saved instance and plan, with or without a byte-order mark, never
    reach json's decoder, and load as they do through it."""
    instance = generate_grid_instance(20, 20, 4, seed=3,
                                      balance_profile="clustered")
    path, plan_path = tmp_path / "inst.json", tmp_path / "plan.json"
    save_instance(instance, path)
    save_plan(Plan(np.zeros(instance.node_count, dtype=np.int64),
                   instance.centers), plan_path)
    for p in (path, plan_path):
        p.write_bytes(bom + p.read_bytes())
    reference = [text_mode_load(p.read_bytes()) for p in (path, plan_path)]

    def refuse(*args, **kwargs):
        raise AssertionError("json decoded a file that orjson reads")
    monkeypatch.setattr(json, "load", refuse)
    monkeypatch.setattr(json, "loads", refuse)
    for p, want in zip((path, plan_path), reference):
        assert same_value(_decode(p.read_bytes()), want)
    loaded = load_instance(path, "ES")
    assert loaded.graph.edges.tobytes() == instance.graph.edges.tobytes()


@pytest.fixture(scope="module")
def grid3_doc(tmp_path_factory):
    """The 3x3 reference instance's file, as a document to edit."""
    path = tmp_path_factory.mktemp("data") / "grid3.json"
    save_instance(generate_grid_instance(3, 3, 2, seed=1, centers=(0, 8)),
                  path)
    return json.loads(path.read_text())


# each integer beyond 64 bits that a file may give, and the message that
# names it: the integer as written, never a float near it
HUGE_INTEGERS = {
    "unit-id": (lambda doc: doc["units"][2].update(id=2 ** 64),
                "id of unit entry 2 is 18446744073709551616, not a finite "
                "whole number"),
    "es-population": (
        lambda doc: doc["units"][3]["population"].update(ES=-10 ** 19),
        "ES population of unit 3 is -10000000000000000000, not a finite "
        "whole number"),
    "adjacency-entry": (
        lambda doc: doc["adjacency"].__setitem__(0, [0, 10 ** 20]),
        "adjacency entry 1 is 100000000000000000000, not a finite whole "
        "number"),
}
HUGE_ASSIGNMENT = ("plan assignment of node 1 is 1180591620717411303424, not "
                   "a finite whole number")


def huge_plan(path):
    path.write_text(json.dumps({"assignment": [0, 2 ** 70, 0, 0, 0, 1, 1, 1,
                                               1], "centers": [0, 8]}))
    return path


@pytest.mark.parametrize("fault", list(HUGE_INTEGERS))
def test_load_instance_names_an_integer_beyond_64_bits(tmp_path, grid3_doc,
                                                       capsys, fault):
    edit, message = HUGE_INTEGERS[fault]
    doc = json.loads(json.dumps(grid3_doc))
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceError) as info:
        load_instance(path, "ES")
    assert str(info.value) == message
    assert main(["solve", "--instance", str(path), "--trials", "1",
                 "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"instance error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_load_plan_names_an_integer_beyond_64_bits(tmp_path, grid3_doc,
                                                   capsys):
    instance_path = tmp_path / "grid3.json"
    instance_path.write_text(json.dumps(grid3_doc))
    plan_path = huge_plan(tmp_path / "plan.json")
    with pytest.raises(InstanceError) as info:
        load_plan(plan_path, load_instance(instance_path, "ES"))
    assert str(info.value) == HUGE_ASSIGNMENT
    assert main(["solve", "--instance", str(instance_path), "--warm-start",
                 str(plan_path), "--trials", "1", "--out",
                 str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"instance error: {HUGE_ASSIGNMENT}\n"
    assert not (tmp_path / "o").exists()
