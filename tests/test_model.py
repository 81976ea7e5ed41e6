"""JSONL ingestion, record validation, and round-trip serialization."""

import io
import json
import re
from collections import OrderedDict, defaultdict
from enum import Enum
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becal import model
from becal.errors import DataError
from becal.model import (_TEXT_CHUNK, ClaimRecord, Dataset, MetaColumn, PredictionRecord,
                         TextColumn, _Columns, _parse_line, _plain, dump_jsonl, load_jsonl,
                         read_jsonl, validate)
from becal.simulate import (AgentSpec, IdentityReport, UniformDifficulty, generate,
                            generate_ensemble)

from conftest import assert_same_columns, make_dataset


def read_lines(*lines):
    return read_jsonl(list(lines), source="test.jsonl")


class TestReadJsonl:
    def test_basic_record(self):
        ds = read_lines('{"id":"q1","valid":true,"confidence":0.9}')
        rec = ds.records[0]
        assert rec.id == "q1"
        assert rec.valid is True
        assert rec.confidence == 0.9

    def test_confidence_out_of_range_names_line(self):
        with pytest.raises(DataError, match="confidence out of range at line 2"):
            read_lines('{"id":"q1","valid":true,"confidence":0.9}',
                       '{"id":"q2","valid":false,"confidence":1.7}')

    def test_duplicate_id_named(self):
        lines = ['{"id":"a","valid":true}',
                 '{"id":"b","valid":true}',
                 '{"id":"a","valid":false}']
        with pytest.raises(DataError, match="'a'"):
            read_lines(*lines)

    def test_missing_id(self):
        with pytest.raises(DataError, match="id"):
            read_lines('{"valid":true}')

    def test_missing_valid(self):
        with pytest.raises(DataError, match="valid"):
            read_lines('{"id":"q1"}')

    def test_malformed_json_names_line(self):
        with pytest.raises(DataError, match="line 2"):
            read_lines('{"id":"q1","valid":true}', '{not json')

    def test_valid_must_be_boolean(self):
        with pytest.raises(DataError, match="valid"):
            read_lines('{"id":"q1","valid":1}')

    def test_blank_lines_skipped(self):
        ds = read_lines('{"id":"a","valid":true}', '', '  ',
                        '{"id":"b","valid":false}')
        assert len(ds) == 2

    def test_no_record_dropped(self):
        lines = [json.dumps({"id": f"q{i}", "valid": i % 2 == 0})
                 for i in range(25)]
        assert len(read_lines(*lines)) == 25

    def test_unknown_fields_routed_to_meta(self):
        ds = read_lines('{"id":"q1","valid":true,"model":"m-7b","step":3}')
        meta = ds.records[0].meta
        assert meta["model"] == "m-7b"
        assert meta["step"] == "3"  # non-strings stored as compact JSON

    def test_row_meta_keys_come_sorted(self):
        ds = read_lines('{"id":"q1","valid":true,"meta":{"b":"1","c":"2"},"a":"3"}')
        assert list(ds.meta[0]) == ["b", "c", "a"]  # the column keeps the read order
        assert list(ds.records[0].meta) == ["a", "b", "c"]  # rows take the dump order

    def test_meta_collision_rejected(self):
        line = '{"id":"q1","valid":true,"meta":{"model":"a"},"model":"b"}'
        with pytest.raises(DataError, match="model"):
            read_lines(line)

    def test_claims_parsed(self):
        line = ('{"id":"q1","valid":true,"claims":['
                '{"text":"s1","confidence":0.9,"valid":true},'
                '{"text":"s2","confidence":0.7}]}')
        claims = read_lines(line).records[0].claims
        assert [c.confidence for c in claims] == [0.9, 0.7]
        assert claims[0].valid is True and claims[1].valid is None

    def test_claim_confidence_range_checked(self):
        line = '{"id":"q1","valid":true,"claims":[{"text":"s","confidence":-0.1}]}'
        with pytest.raises(DataError, match="line 1"):
            read_lines(line)

    @pytest.mark.parametrize("escape", ["\\ud800", "\\uDC00", "\\uDbFf", "\\udfff", "\\ud83d"])
    def test_lone_surrogate_escapes_rejected(self, escape):
        with pytest.raises(DataError, match="^test.jsonl: string holds a lone surrogate "
                                            "escape at line 2$"):
            read_lines('{"id":"a","valid":true}', '{"id":"b%s","valid":true}' % escape)

    @pytest.mark.parametrize("rest", ["", ',"x":"\\u00e9"'], ids=["plain", "escaped"])
    def test_lone_surrogates_in_str_lines_rejected(self, rest):
        """A str line may hold a lone surrogate itself, as a surrogate escape
        from decoding bytes that are not UTF-8: the chunk path and the
        line-by-line one reject it."""
        with pytest.raises(DataError, match="^test.jsonl: string holds a lone surrogate "
                                            "escape at line 2$"):
            read_lines('{"id":"a","valid":true}', '{"id":"b\udcff","valid":true%s}' % rest)

    @pytest.mark.parametrize("rest", [
        ',"meta":{"k":"v\\udfff"}', ',"x":{"k":["\\uDC00"]}',
        ',"claims":[{"text":"t\\ud800","confidence":0.5}]',
        ',"claims":[{"text":"t","confidence":0.5,"rationale":"\\udc00"}]',
        ',"answer":"\\uDBFF"', ',"meta":{"k\\ud83d":"v"}', ',"x\\ude00":"v"',
        ',"x":"v\\ud800"',
    ], ids=["meta-value", "folded-nested-value", "claim-text", "claim-rationale", "answer",
            "meta-key", "folded-key", "folded-value"])
    def test_lone_surrogate_escapes_rejected_in_any_string(self, rest):
        """Every string the columns keep is checked, and so is a folded
        field's other value, kept as ASCII JSON, which would hide a lone
        surrogate."""
        for kind in (str, lambda line: line.encode()):
            with pytest.raises(DataError, match="^test.jsonl: string holds a lone surrogate "
                                                "escape at line 2$"):
                read_lines('{"id":"a","valid":true}', kind('{"id":"b","valid":true%s}' % rest))

    def test_surrogate_pairs_read_with_no_encoding(self, monkeypatch):
        """A chunk whose escapes are all surrogate pairs is checked by the one
        join of the strings the columns keep: no decoded object is encoded."""
        encoded = []
        monkeypatch.setattr(model, "_ENCODE", lambda obj: encoded.append(obj) or "")
        lines = [json.dumps({"id": f"q{i}\U0001f600", "valid": True, "answer": "\U0001f600",
                             "claims": [{"text": "\U0001f600 s", "confidence": 0.5,
                                         "rationale": "\u2019\U0001f600"}],
                             "meta": {"\U0001f600": "\U0001f600"}, "x\U0001f600": "\U0001f600"})
                 for i in range(50)]
        for kind in (str, str.encode):
            ds = read_jsonl([kind(line) for line in lines])
            assert ds.claim_text[49] == "\U0001f600 s"
            assert ds.meta[0]["x\U0001f600"] == "\U0001f600"
        assert encoded == []

    def test_byte_order_mark_is_malformed(self):
        for line in ('\ufeff{"id":"b","valid":true}', b'\xef\xbb\xbf{"id":"b","valid":true}'):
            with pytest.raises(DataError, match=r"^test.jsonl: malformed JSON: Unexpected UTF-8 "
                                                r"BOM \(decode using utf-8-sig\) at line 2$"):
                read_lines('{"id":"a","valid":true}', line)

    def test_surrogate_pair_escapes_accepted(self):
        ds = read_lines('{"id":"\\ud83d\\ude00","valid":true,"x":"\\u00e9\\\\ud800"}')
        assert ds.ids[0] == "\U0001f600" and ds.meta[0] == {"x": "é\\ud800"}

    def test_unknown_claim_field_rejected(self):
        line = '{"id":"q1","valid":true,"claims":[{"text":"s","confidence":0.5,"x":1}]}'
        with pytest.raises(DataError):
            read_lines(line)


def assert_line_worded_alike(row_error, obj):
    """obj read as the one JSONL line of test.jsonl fails with the message of
    row_error, a pytest.raises result, naming line 1."""
    with pytest.raises(DataError) as line_error:
        read_lines(json.dumps(obj))
    assert str(line_error.value) == f"test.jsonl: {row_error.value} at line 1"


class TestRecordFields:
    """A record built in code is checked like one read from JSONL, and
    worded alike."""

    @pytest.mark.parametrize("fields,message", [
        ({"valid": "no", "confidence": 0.5}, "valid must be boolean"),
        ({"valid": 1}, "valid must be boolean"),
        ({"valid": None}, "missing required field valid"),
        ({"valid": True, "confidence": "0.5"}, "confidence must be numeric"),
        ({"valid": True, "confidence": True}, "confidence must be numeric"),
        ({"valid": True, "group": 1}, "group must be a string"),
        ({"valid": True, "answer": 7}, "answer must be a string"),
    ])
    def test_wrong_types_rejected(self, fields, message):
        with pytest.raises(DataError, match=message) as error:
            PredictionRecord(id="a", **fields)
        assert_line_worded_alike(error, {"id": "a", **fields})

    @pytest.mark.parametrize("fields,message", [
        ({"text": 1, "confidence": 0.5, "valid": "no"}, "claim text missing or not a string"),
        ({"text": "s", "confidence": 0.5, "valid": "no"}, "claim valid must be boolean"),
        ({"text": "s", "confidence": "0.5"}, "claim confidence must be numeric"),
        ({"text": "s", "confidence": 0.5, "rationale": 3}, "claim rationale must be a string"),
        ({"text": "s", "confidence": 1.5}, "claim confidence out of range"),
    ])
    def test_wrong_claim_types_rejected(self, fields, message):
        with pytest.raises(DataError, match=message) as error:
            ClaimRecord(**fields)
        assert_line_worded_alike(error, {"id": "a", "valid": True, "claims": [fields]})

    @pytest.mark.parametrize("fields,message", [
        ({"meta": {"k": 1}}, "meta values must be strings"),
        ({"meta": {1: "v"}}, "meta keys must be strings"),
        ({"meta": ["k"]}, "meta must be an object"),
        ({"claims": ["x"]}, "claims must be ClaimRecord objects"),
    ])
    def test_wrong_meta_and_claims_rejected(self, fields, message):
        with pytest.raises(DataError, match=message) as error:
            PredictionRecord(id="a", valid=True, **fields)
        # JSON has no integer key, and a line's claims are objects, not rows
        if message.startswith(("meta values", "meta must")):
            assert_line_worded_alike(error, {"id": "a", "valid": True, **fields})

    @pytest.mark.parametrize("name,build", [
        ("id", lambda t: PredictionRecord(id=t, valid=True)),
        ("group", lambda t: PredictionRecord(id="a", valid=True, group=t)),
        ("answer", lambda t: PredictionRecord(id="a", valid=True, answer=t)),
        ("claim text", lambda t: ClaimRecord(text=t, confidence=0.5)),
        ("claim rationale", lambda t: ClaimRecord(text="s", confidence=0.5, rationale=t)),
        ("meta", lambda t: PredictionRecord(id="a", valid=True, meta={t: "v"})),
        ("meta", lambda t: PredictionRecord(id="a", valid=True, meta={"k": t})),
    ], ids=["id", "group", "answer", "claim-text", "claim-rationale", "meta-key",
            "meta-value"])
    def test_lone_surrogate_rejected(self, name, build):
        """JSONL ingest rejects a lone surrogate, so a row does too: no
        UTF-8 output could hold it."""
        for text in ("\u00e9", "\u65e5\u672c", "a\U0001f600"):
            build(text)
        with pytest.raises(DataError, match=f"^{name} holds a lone surrogate$"):
            build("b\ud800")

    def test_numpy_scalars_accepted(self):
        rec = PredictionRecord(id="a", valid=np.True_, confidence=np.float32(0.5))
        assert rec.valid is True and rec.confidence == 0.5
        assert type(rec.confidence) is float
        assert PredictionRecord(id="b", valid=np.False_).valid is False
        assert ClaimRecord(text="s", confidence=0.5, valid=np.False_).valid is False

    def test_negative_zero_stored_as_zero(self):
        ds = read_lines('{"id":"a","valid":true,"confidence":-0.0,'
                        '"claims":[{"text":"s","confidence":-0.0}]}')
        assert str(ds.confidence[0]) == str(ds.claim_confidence[0]) == "0.0"

    def test_jsonl_messages_name_the_line(self):
        with pytest.raises(DataError, match="group must be a string at line 2"):
            read_lines('{"id":"a","valid":true}', '{"id":"b","valid":true,"group":3}')


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        recs = (
            PredictionRecord(id="a", valid=True, confidence=0.25,
                             group="g1", answer="42",
                             claims=(ClaimRecord(text="t", confidence=0.5,
                                                 valid=False, rationale="why"),),
                             meta={"k": "v"}),
            PredictionRecord(id="b", valid=False),
        )
        ds = Dataset(records=recs)
        buf = io.StringIO()
        dump_jsonl(ds, buf)
        again = read_jsonl(buf.getvalue().splitlines())
        assert again.records == ds.records

    def test_load_jsonl_missing_file(self):
        with pytest.raises(DataError, match="cannot read"):
            load_jsonl("/no/such/file.jsonl")

    def test_load_jsonl_path(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id":"q1","valid":true,"confidence":0.5}\n')
        ds = load_jsonl(str(path))
        assert len(ds) == 1 and ds.label == str(path)

    def test_dump_key_order_stable(self):
        rec = PredictionRecord(id="a", valid=True, confidence=0.5,
                               meta={"z": "1", "a": "2"})
        buf = io.StringIO()
        dump_jsonl(Dataset(records=(rec,)), buf)
        obj = json.loads(buf.getvalue())
        assert list(obj) == ["id", "valid", "confidence", "meta"]
        assert list(obj["meta"]) == ["a", "z"]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8)
CONFIDENCES = st.one_of(st.floats(), st.integers(-2, 2),
                        st.integers(min_value=10 ** 300), JSON_VALUES)
CLAIM_OBJECTS = st.fixed_dictionaries(
    {"text": JSON_VALUES, "confidence": CONFIDENCES},
    optional={"valid": JSON_VALUES, "rationale": JSON_VALUES, "x": JSON_VALUES})
RECORD_OBJECTS = st.fixed_dictionaries(
    {"id": st.text(max_size=3) | JSON_VALUES, "valid": st.booleans() | JSON_VALUES},
    optional={"confidence": CONFIDENCES, "group": JSON_VALUES,
              "answer": JSON_VALUES, "claims": st.lists(CLAIM_OBJECTS, max_size=3),
              "meta": st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=2),
              "model": JSON_VALUES})
LINES = st.one_of(
    st.binary(max_size=40),
    RECORD_OBJECTS.map(lambda obj: json.dumps(obj).encode("utf-8")),
    RECORD_OBJECTS.map(lambda obj: json.dumps(obj).encode("utf-8")[:-1]),
    JSON_VALUES.map(lambda obj: json.dumps(obj).encode("utf-8")))


@settings(max_examples=120, deadline=None)
@given(st.lists(LINES, max_size=4))
def test_read_jsonl_raises_only_data_error(lines):
    try:
        read_jsonl(lines, source="fuzz.jsonl")
    except DataError as exc:
        assert str(exc).startswith("fuzz.jsonl: ") and " at line " in str(exc)


def unique_keys(pairs):
    keys = [key for key, _ in pairs]
    for key in keys:
        if keys.count(key) > 1:
            raise DataError(f"duplicate key {key!r}")
    return dict(pairs)


def is_number(value):
    return type(value) in (int, float)  # JSON true and false are no numbers


def reference_record(line, ids):
    """One JSONL line checked by the per-field rules, as (id, valid,
    confidence, group, answer, claims, meta), or None for a blank line."""
    try:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        text = line.strip(" \t\n\r")
        if not text.strip():
            return None
        obj = json.loads(text, object_pairs_hook=unique_keys)
        json.dumps(obj, ensure_ascii=False).encode("utf-8")  # no lone surrogate
    except UnicodeEncodeError:
        raise DataError("string holds a lone surrogate escape") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"invalid UTF-8 at byte {exc.start}") from None
    except (ValueError, RecursionError) as exc:
        raise DataError(f"malformed JSON: {getattr(exc, 'msg', exc)}") from None
    if not isinstance(obj, dict):
        raise DataError("expected a JSON object")
    claims = []
    if obj.get("claims") is not None:
        if not isinstance(obj["claims"], list):
            raise DataError("claims must be an array")
        for claim in obj["claims"]:
            if not isinstance(claim, dict):
                raise DataError("claim must be an object")
            for key in claim:
                if key not in ("text", "confidence", "valid", "rationale"):
                    raise DataError(f"unknown claim field {key!r}")
            text, confidence = claim.get("text"), claim.get("confidence")
            valid, rationale = claim.get("valid"), claim.get("rationale")
            if not isinstance(text, str):
                raise DataError("claim text missing or not a string")
            if not is_number(confidence):
                raise DataError("claim confidence must be numeric")
            if valid is not None and not isinstance(valid, bool):
                raise DataError("claim valid must be boolean")
            if rationale is not None and not isinstance(rationale, str):
                raise DataError("claim rationale must be a string")
            if not 0 <= confidence <= 1:
                raise DataError("claim confidence out of range")
            claims.append((text, float(confidence) + 0.0, valid, rationale))
    meta = {} if obj.get("meta") is None else obj["meta"]
    if not isinstance(meta, dict):
        raise DataError("meta must be an object")
    for key, value in meta.items():
        if not isinstance(value, str):
            raise DataError(f"meta values must be strings (key {key!r})")
    meta = dict(meta)
    for key, value in obj.items():
        if key not in ("id", "valid", "confidence", "group", "answer", "claims", "meta"):
            if key in meta:
                raise DataError(f"field {key!r} collides with a meta key")
            meta[key] = value if isinstance(value, str) else json.dumps(
                value, sort_keys=True, separators=(",", ":"))
    rid, valid, confidence = obj.get("id"), obj.get("valid"), obj.get("confidence")
    if valid is None:
        raise DataError("missing required field valid")
    if not isinstance(valid, bool):
        raise DataError("valid must be boolean")
    for name in ("group", "answer"):
        if obj.get(name) is not None and not isinstance(obj[name], str):
            raise DataError(f"{name} must be a string")
    if not isinstance(rid, str) or not rid:
        raise DataError("record id must be a non-empty string")
    if confidence is not None:
        if not is_number(confidence):
            raise DataError("confidence must be numeric")
        if not 0 <= confidence <= 1:
            raise DataError(f"record {rid!r}: confidence out of range")
        confidence = float(confidence) + 0.0
    if rid in ids:
        raise DataError(f"duplicate id {rid!r}")
    ids.add(rid)
    return rid, valid, confidence, obj.get("group"), obj.get("answer"), claims, meta


def read_line_by_line(lines, source="diff.jsonl"):
    """The reference for read_jsonl, sharing no code with it: each line is
    decoded by json.loads with a duplicate-key hook and checked field by
    field, and the records' fields, gathered in plain lists, become the
    expected columns."""
    records, ids = [], set()
    for lineno, line in enumerate(lines, start=1):
        try:
            record = reference_record(line, ids)
        except DataError as exc:
            raise DataError(f"{source}: {exc} at line {lineno}") from None
        if record is not None:
            records.append(record)
    rids, valid, confidence, group, answer, claims, meta = list(zip(*records)) or [()] * 7
    flat = [claim for record_claims in claims for claim in record_claims]
    text, claim_confidence, label, rationale = list(zip(*flat)) or [()] * 4

    def codes(names):
        table = {}
        return (np.array([-1 if name is None else table.setdefault(name, len(table))
                          for name in names], dtype=np.int64), list(table))

    (group, group_names), (answer, answer_names) = codes(group), codes(answer)
    return {"ids": list(rids), "valid": np.array(valid, dtype=bool),
            "confidence": np.array([np.nan if c is None else c for c in confidence]),
            "group": group, "group_names": group_names,
            "answer": answer, "answer_names": answer_names,
            "claim_offsets": np.cumsum([0, *map(len, claims)], dtype=np.int64),
            "claim_confidence": np.array(claim_confidence, dtype=np.float64),
            "claim_label": np.array([-1 if v is None else v for v in label], dtype=np.int8),
            "claim_text": list(text), "claim_rationale": list(rationale), "meta": list(meta)}


def outcome(read, lines):
    """Every column of what read gives, arrays as dtype and bytes, the others
    as lists (meta as each record's list of pairs, so its order counts), or
    the text of its DataError."""
    try:
        columns = read(lines)
    except DataError as exc:
        return str(exc)
    if isinstance(columns, Dataset):
        columns = columns.columns()
    return {name: (column.dtype, column.tobytes()) if isinstance(column, np.ndarray)
            else [list(meta.items()) for meta in column] if name == "meta"
            else list(column)
            for name, column in columns.items()}


def rarely(usual, odd, one_in=30):
    """usual, but odd about once in one_in draws."""
    return st.integers(1, one_in).flatmap(lambda k: odd if k == 1 else usual)


class Pairs(tuple):
    """A JSON object written from its (key, value) pairs, so a key can repeat."""


def render(value, escape):
    """JSON text of value. Where escape is "u" or "U", strings are ASCII, ":"
    is escaped too, and the hex digits of every escape are lowercase or
    uppercase."""
    if isinstance(value, Pairs):
        return "{" + ",".join(f"{render(k, escape)}:{render(v, escape)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ",".join(render(v, escape) for v in value) + "]"
    if isinstance(value, str):
        if not escape:
            return json.dumps(value, ensure_ascii=False)
        text = json.dumps(value).replace(":", "\\u003a")
        return re.sub(r"\\u[0-9a-f]{4}", lambda m: "\\u" + m[0][2:].upper(),
                      text) if escape == "U" else text
    return json.dumps(value)  # nan and inf as NaN and Infinity


# strings with ":" in them, as itself and as an escaped backslash before
# u003a, characters outside the BMP, whose escapes are surrogate pairs, and
# rarely a lone surrogate
COLON_TEXT = rarely(
    st.lists(st.sampled_from(["a", "b", ":", "\u00e9", '"', " ", "\\", "\\u003a",
                              "\U0001f600"]), max_size=4).map("".join),
    st.sampled_from(["\ud800", "a:\udfff", "\ude00\ud83d"]), 60)
ODD_VALUES = st.one_of(st.none(), st.integers(-1, 2), st.just(7 * 10 ** 399), st.text(max_size=2),
                       st.sampled_from([float("nan"), float("inf"), -0.0, True, [], {}, "\ud800"]))


UNIT_OR_ODD = rarely(st.floats(0.0, 1.0) | st.sampled_from([-0.0, 1.0]), ODD_VALUES)
# what an unknown top-level field may hold: objects with ":" in their keys and
# strings, whose few possible keys often repeat
NESTED = st.recursive(
    COLON_TEXT | ODD_VALUES,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(st.tuples(st.sampled_from(["k", "k:", ":", ""]) | COLON_TEXT, inner),
               max_size=3).map(Pairs),
    max_leaves=6)


@st.composite
def objects(draw, fields):
    """Pairs of each (key, strategy, optional) field, rarely with an unknown
    field or a key repeated."""
    pairs = [(key, draw(values)) for key, values, optional in fields
             if not optional or draw(st.booleans())]
    if draw(rarely(st.just(False), st.just(True))):
        pairs.append((draw(st.sampled_from(["x", "model", "a:b"])), draw(ODD_VALUES)))
    if pairs and draw(rarely(st.just(False), st.just(True))):
        key, _ = draw(st.sampled_from(pairs))
        pairs.insert(draw(st.integers(0, len(pairs))), (key, draw(COLON_TEXT | ODD_VALUES)))
    return Pairs(pairs)


CLAIM = objects([("text", rarely(COLON_TEXT, ODD_VALUES), False),
                 ("confidence", UNIT_OR_ODD, False),
                 ("valid", rarely(st.booleans() | st.none(), ODD_VALUES), True),
                 ("rationale", rarely(COLON_TEXT, ODD_VALUES), True)])
META = st.lists(st.tuples(COLON_TEXT, rarely(COLON_TEXT, ODD_VALUES)), max_size=3).map(Pairs)


@st.composite
def jsonl_lines(draw):
    """JSONL lines for the chunk path: colons inside every kind of string,
    and rarely anything the path must leave to the line-by-line one."""
    lines = []
    for i in range(draw(st.integers(0, 8))):
        rid = draw(rarely(st.sampled_from([f"r{i}:", f"r{i}", f"r:{i}\u00e9"]),
                          st.just("r0") | COLON_TEXT | ODD_VALUES))
        record = draw(objects([
            ("id", st.just(rid), False), ("valid", rarely(st.booleans(), ODD_VALUES), False),
            ("confidence", UNIT_OR_ODD | st.none(), True),
            ("group", rarely(COLON_TEXT, ODD_VALUES), True),
            ("answer", rarely(COLON_TEXT | st.none(), ODD_VALUES), True),
            ("claims", rarely(st.lists(CLAIM, max_size=3) | st.none(), ODD_VALUES), True),
            ("meta", rarely(META | st.none(), ODD_VALUES), True)]))
        if draw(rarely(st.just(False), st.just(True), 4)):  # fields folded into meta
            record = Pairs([*record, *draw(st.lists(st.tuples(
                st.sampled_from(["model", "x:y"]) | COLON_TEXT, NESTED), min_size=1, max_size=2))])
        text = render(record, escape=draw(st.sampled_from(["", "", "u", "U"])))
        text = draw(rarely(st.just(""), st.sampled_from(["\n", " ", "\r\n"]), 10)) + text
        text += draw(st.sampled_from(["", "\n", "\n", "\r\n", " \n"]))
        if draw(rarely(st.just(False), st.just(True), 10)):
            lines.append(draw(st.sampled_from(["", "\n", " \r\n", "\u3000\n"])))
        lines.append(text if draw(st.booleans())
                     else text.encode("utf-8", "surrogatepass"))
    return lines


@settings(max_examples=300, deadline=None)
@given(jsonl_lines(), st.sampled_from([4, 120, 600]))
def test_chunks_read_like_single_lines(lines, budget):
    """With chunks of a few bytes, of about one line and of a few lines,
    read_jsonl gives the columns, or the error text, of reading one line at
    a time."""
    with mock.patch.object(model, "_INGEST_CHUNK", budget):
        assert outcome(lambda ls: read_jsonl(ls, "diff.jsonl"), lines) == outcome(
            read_line_by_line, lines)


def test_the_reference_reads_what_it_should():
    """read_line_by_line itself, on lines whose columns are written out."""
    lines = ['{"id":"a","valid":true,"confidence":1,"x":{"b:":[1,"c:d"]},"meta":{"m":"n"}}',
             " \n", b'{"id":"b","valid":false,"group":"g","claims":[{"text":"t",'
             b'"confidence":-0.0,"valid":false,"rationale":"r"},{"text":"u","confidence":0.5}]}']
    expected = {"ids": ["a", "b"], "valid": np.array([True, False]),
                "confidence": np.array([1.0, np.nan]), "group": np.array([-1, 0]),
                "group_names": ["g"], "answer": np.array([-1, -1]), "answer_names": [],
                "claim_offsets": np.array([0, 0, 2]), "claim_confidence": np.array([0.0, 0.5]),
                "claim_label": np.array([0, -1], dtype=np.int8), "claim_text": ["t", "u"],
                "claim_rationale": ["r", None], "meta": [{"m": "n", "x": '{"b:":[1,"c:d"]}'}, {}]}
    assert outcome(read_line_by_line, lines) == outcome(lambda _: expected, lines)
    assert outcome(read_jsonl, lines) == outcome(read_line_by_line, lines)
    assert outcome(read_line_by_line, ['{"id":"a","valid":true,"x":{"k":1,"k":2}}']) == (
        "diff.jsonl: duplicate key 'k' at line 1")


CHAIN_LINE = ('{"id":"r%d","valid":true,"confidence":0.25,"claims":[{"text":"a:b",'
              '"confidence":0.5,"valid":false,"rationale":"c:d"}],"meta":{"k:1":"v:2"}}')


def add_plain(lines):
    """Columns with lines added as the chunk path adds them, and whether it did."""
    cols, decoded = _Columns(), _plain(lines)
    return cols, decoded is not None and cols.add(*decoded)


@pytest.mark.parametrize("line", [
    CHAIN_LINE % 0,
    CHAIN_LINE.replace("0.25", "1").replace("0.5", "0") % 0,  # integer confidences
    '{"id":"a","valid":false,"group":"g","answer":null,"claims":null,"meta":null}',
    '{"id":"a","valid":true}\r\n',
    '{"id":"a","valid":true,"model":"m"}',  # an unknown field,
    '{"id":"a","valid":true,"x:":{"k:1":["v:2",{"k":null}],"k":{}},"meta":{"m":"n"}}',
    ' {"id":"a","valid":true}',  # a leading space
    '{"id":"a\\\\u003a","valid":true}',  # an escaped backslash before u003a
])
def test_chunk_path_reads_plain_lines(line):
    other = line.replace('"id":"a', '"id":"b').replace("r0", "r1")
    cols, added = add_plain([line, "\n", other.encode()])
    assert added and len(cols.valid) == 2


@pytest.mark.parametrize("line", [
    '{"id":"a","valid":true,"valid":false}',  # a key repeated in the record,
    '{"id":"a","valid":true,"claims":[{"text":"s","confidence":0.5,"text":"t"}]}',
    '{"id":"a","valid":true,"meta":{"k":"v","k":"w"}}',  # in meta,
    '{"id":"a","valid":true,"meta":{"k":"v:w","k":"v"}}',  # with a colon dropped
    '{"id":"a\\u003a","valid":true,"valid":false}',  # with an escaped colon,
    '{"id":"a","valid":true,"meta":{"k":"v\\u003aw","k":"v"}}',  # one dropped with its key,
    '{"id":"a\\ud800","valid":true}',  # a lone surrogate
    '{"id":"","valid":true}',
    '{"id":"a","valid":true,"confidence":NaN}',
    '{"id":"a","valid":true,"confidence":1%s}' % ("0" * 400),  # an int past float range
    '{"id":"a","valid":true,"x":{"k":"v:w","k":"v"}}',  # a key repeated in a folded field,
    '{"id":"a","valid":true,"meta":{"x":"v"},"x":"w"}',  # a field colliding with meta
    '{"id":"a","valid":true} x',
])
def test_chunk_path_leaves_unusual_lines_to_the_line_reader(line):
    cols, added = add_plain(['{"id":"z","valid":true}', line])
    assert not added
    assert not cols.valid and not cols.seen  # nothing appended


# \u escapes in lowercase and uppercase hex, as json.dumps writes every
# non-ASCII character by default: in each kind of string, an emoji as a
# surrogate pair, and an escaped ":" in an id, a meta key, a folded field's
# name and a folded nested value
ESCAPED_LINES = [
    '{"id":"\\u00e9","valid":true}',
    '{"id":"e2","valid":true,"claims":[{"text":"it\\u2019s","confidence":0.5,'
    '"rationale":"\\u2019"}],"group":"g\\u00E9"}',
    '{"id":"\\ud83d\\ude00","valid":true,"answer":"\\uD83D\\uDE00"}',
    '{"id":"e4\\u003a","valid":true}',
    '{"id":"e5","valid":true,"meta":{"k\\u003Ab":"v:"}}',
    '{"id":"e6","valid":true,"x\\u003ay":"v"}',
    '{"id":"e7","valid":true,"z":{"k\\u003a":["v\\u003A",{"k":"\\u003a"}]}}',
]


def test_escaped_lines_are_read_on_their_own():
    """Lines with \\u escapes need no reader of their own: a chunk of them is
    added by one add, with no _parse_line call, and gives the columns of
    reading it line by line."""
    lines = [CHAIN_LINE % 0, *ESCAPED_LINES, CHAIN_LINE % 1]
    for kind in (str, lambda line: line.encode()):
        with (mock.patch.object(model, "_parse_line", wraps=_parse_line) as by_line,
              mock.patch.object(_Columns, "add", autospec=True, side_effect=_Columns.add) as add):
            got = outcome(read_jsonl, list(map(kind, lines)))
        assert not by_line.called and add.call_count == 1
        assert got == outcome(lambda ls: read_line_by_line(ls, "<stream>"), lines)
        assert got["ids"][1:4] == ["\u00e9", "e2", "\U0001f600"]
        assert got["meta"][5:8] == [[("k:b", "v:")], [("x:y", "v")],
                                    [("z", '{"k:":["v:",{"k":":"}]}')]]


def test_escaped_backslash_before_u003a_is_read_by_columns():
    """Text \\u003a is an escaped backslash before u003a, no ":": a chunk
    holding it in an id and a meta value is added by one add, with no
    _parse_line call, and a key repeated beside it is still found."""
    lines = [CHAIN_LINE % 0, '{"id":"a\\\\u003a","valid":true,"meta":{"k":"\\\\u003A"}}',
             '{"id":"b\\\\\\u003a","valid":true}']
    with (mock.patch.object(model, "_parse_line", wraps=_parse_line) as by_line,
          mock.patch.object(_Columns, "add", autospec=True, side_effect=_Columns.add) as add):
        got = outcome(read_jsonl, lines)
    assert not by_line.called and add.call_count == 1
    assert got == outcome(lambda ls: read_line_by_line(ls, "<stream>"), lines)
    assert got["ids"][1:] == ["a\\u003a", "b\\:"]
    assert got["meta"][1] == [("k", "\\u003A")]
    with pytest.raises(DataError, match="^<stream>: duplicate key 'k' at line 1$"):
        read_jsonl(['{"id":"a","valid":true,"meta":{"k":"\\\\u003a","k":"v"}}'])


class TestChunkBoundaries:
    """The first bad line in file order is reported, wherever chunks split."""

    def test_type_error_before_decode_error_in_one_chunk(self):
        with pytest.raises(DataError, match="^test.jsonl: valid must be boolean at line 2$"):
            read_lines(CHAIN_LINE % 0, '{"id":"b","valid":1}', "{not json")

    @pytest.mark.parametrize("budget", [1, len(CHAIN_LINE) + 1, 2 * len(CHAIN_LINE) + 2])
    def test_error_on_the_first_line_of_a_chunk(self, budget):
        lines = [CHAIN_LINE % i for i in range(6)]
        lines[3] = lines[3].replace("0.25", "1.25")
        with mock.patch.object(model, "_INGEST_CHUNK", budget):
            with pytest.raises(DataError, match="^test.jsonl: record 'r3': confidence out "
                                                "of range at line 4$"):
                read_lines(*lines)

    def test_duplicate_id_across_chunks_names_the_later_line(self):
        lines = [CHAIN_LINE % i for i in range(5)] + [CHAIN_LINE % 1]
        with mock.patch.object(model, "_INGEST_CHUNK", 2 * len(CHAIN_LINE)):
            with pytest.raises(DataError, match="^test.jsonl: duplicate id 'r1' at line 6$"):
                read_lines(*lines)

    @pytest.mark.parametrize("lines, name", [
        ([0, 1, 0, "bad"], "duplicate id 'r0' at line 3"),
        ([0, "bad", 0], "valid must be boolean at line 2")])
    def test_escaped_run_names_its_first_bad_line(self, lines, name):
        """A chunk read line by line names a repeated id or a bad field,
        whichever line comes first."""
        escaped = CHAIN_LINE.replace("a:b", "\\u00e9")
        lines = [escaped.replace("true", "1", 1) % 9 if i == "bad" else escaped % i
                 for i in lines]
        with pytest.raises(DataError, match=f"^test.jsonl: {name}$"):
            read_lines(*lines)

    def test_an_unreadable_line_comes_after_the_lines_before_it(self):
        def lines():
            yield CHAIN_LINE % 0
            yield '{"id":"b","valid":1}'
            raise OSError("gone")
        with pytest.raises(DataError, match="valid must be boolean at line 2"):
            read_jsonl(lines(), source="test.jsonl")


TEXT = st.text(max_size=6)
UNIT = st.floats(min_value=0.0, max_value=1.0)
CLAIMS = st.builds(ClaimRecord, text=TEXT, confidence=UNIT,
                   valid=st.none() | st.booleans(), rationale=st.none() | TEXT)


@st.composite
def datasets(draw):
    ids = draw(st.lists(st.text(min_size=1, max_size=6), unique=True, max_size=5))
    return Dataset(records=tuple(
        PredictionRecord(id=rid, valid=draw(st.booleans()),
                         confidence=draw(st.none() | UNIT),
                         group=draw(st.none() | TEXT), answer=draw(st.none() | TEXT),
                         claims=draw(st.lists(CLAIMS, max_size=3)),
                         meta=draw(st.dictionaries(TEXT, TEXT, max_size=3)))
        for rid in ids))


@settings(max_examples=100, deadline=None)
@given(datasets())
def test_dump_read_round_trip(ds):
    buf = io.StringIO()
    dump_jsonl(ds, buf)
    again = read_jsonl(io.BytesIO(buf.getvalue().encode("utf-8")))
    assert_same_columns(again, ds)
    assert again.records == ds.records
    assert Dataset._from_columns(ds.columns(), "").records == ds.records


def record_objects(ds):
    """Each record's JSON object, built as a dict field by field: the oracle
    for the lines dump_jsonl renders from the columns. A field the record
    lacks is left out; meta keys are sorted."""
    offsets, labels = ds.claim_offsets.tolist(), ds.claim_label.tolist()
    texts, reasons = list(ds.claim_text), list(ds.claim_rationale)
    claim_conf = ds.claim_confidence.tolist()
    out = []
    for i, (rid, valid, conf, group, answer, meta) in enumerate(zip(
            ds.ids, ds.valid.tolist(), ds.confidence.tolist(), ds.group.tolist(),
            ds.answer.tolist(), ds.meta)):
        obj = {"id": rid}
        if group >= 0:
            obj["group"] = ds.group_names[group]
        obj["valid"] = valid
        if not np.isnan(conf):
            obj["confidence"] = conf
        if answer >= 0:
            obj["answer"] = ds.answer_names[answer]
        if offsets[i] < offsets[i + 1]:
            obj["claims"] = claims = []
            for j in range(offsets[i], offsets[i + 1]):
                claim = {"text": texts[j], "confidence": claim_conf[j]}
                if labels[j] >= 0:
                    claim["valid"] = labels[j] == 1
                if reasons[j] is not None:
                    claim["rationale"] = reasons[j]
                claims.append(claim)
        if meta:
            obj["meta"] = dict(sorted(meta.items()))
        out.append(obj)
    return out


def oracle_lines(ds):
    return [json.dumps(obj, separators=(",", ":"), ensure_ascii=False)
            for obj in record_objects(ds)]


# strings that need escapes (quotes, backslashes, control characters) or none
# (U+2028, non-ASCII, DEL), and numbers that repeat, with both zeros and the
# smallest subnormal
ODD_TEXT = st.text(st.sampled_from('a"\\\x00\x1f\n\t\x7f/\u2028\u00e9\u65e5\U0001f600 '),
                   max_size=4) | st.text(max_size=4)
NUMBER = st.sampled_from([0.0, -0.0, 5e-324, 1.0, 0.05, 0.5, 1 / 3]) | st.floats(0.0, 1.0)


def draws(draw, strategy, n):
    return draw(st.lists(strategy, min_size=n, max_size=n))


@st.composite
def column_datasets(draw):
    """A dataset built from columns as a library caller may: every optional
    field given or not, NaN confidences, labels -1, 0 and 1, -0.0, and meta
    as string pairs with several keys or as generate's float column."""
    n = draw(st.integers(1, 8))
    names, answers = (draw(st.lists(ODD_TEXT, max_size=3, unique=True)) for _ in range(2))
    counts = draws(draw, st.integers(0, 3), n)
    m = sum(counts)
    reasons = draws(draw, st.none() | ODD_TEXT, m)
    given = [j for j, why in enumerate(reasons) if why is not None]
    if draw(st.booleans()):
        meta = MetaColumn(np.arange(n + 1), ("q",) * n, np.array(draws(draw, NUMBER, n)))
    else:
        pairs = draws(draw, st.dictionaries(ODD_TEXT, ODD_TEXT, max_size=3), n)
        meta = MetaColumn(np.cumsum([0, *map(len, pairs)]),
                          tuple(key for p in pairs for key in p),
                          TextColumn.of(value for p in pairs for value in p.values()))
    return Dataset._from_columns({
        "ids": TextColumn.of(draw(st.lists(ODD_TEXT.filter(bool), min_size=n, max_size=n,
                                           unique=True))),
        "valid": np.array(draws(draw, st.booleans(), n)),
        "confidence": np.array(draws(draw, NUMBER | st.just(np.nan), n)),
        "group": np.array(draws(draw, st.integers(-1, len(names) - 1), n)),
        "group_names": tuple(names),
        "answer": np.array(draws(draw, st.integers(-1, len(answers) - 1), n)),
        "answer_names": tuple(answers),
        "claim_offsets": np.cumsum([0, *counts]),
        "claim_confidence": np.array(draws(draw, NUMBER, m), dtype=np.float64),
        "claim_label": np.array(draws(draw, st.sampled_from([-1, 0, 1]), m), dtype=np.int8),
        "claim_text": TextColumn.of(draws(draw, ODD_TEXT, m)),
        "claim_rationale": TextColumn.of(reasons[j] for j in given).spread(
            np.array(given, dtype=np.int64), m),
        "meta": meta}, "")


@settings(max_examples=300, deadline=None)
@given(column_datasets(), st.data())
def test_lines_are_each_objects_json(ds, data):
    """Every line, from a chunk starting anywhere, is json.dumps of the
    record's object, and the rows are what the objects give."""
    expected = oracle_lines(ds)
    buf = io.StringIO()
    dump_jsonl(ds, buf)
    assert buf.getvalue() == "".join(line + "\n" for line in expected)
    cut = data.draw(st.integers(0, len(ds)))
    assert model._lines(ds, 0, cut) + model._lines(ds, cut, len(ds)) == expected
    assert ds.records == tuple(PredictionRecord(**{
        **obj, "claims": tuple(ClaimRecord(**claim) for claim in obj.get("claims", ()))})
        for obj in record_objects(ds))


def test_zeros_keep_their_signs_in_one_chunk():
    ds = Dataset._from_columns({
        "ids": TextColumn.of(["a", "b", "c"]), "valid": np.array([True, False, True]),
        "confidence": np.array([-0.0, 0.0, -0.0]), "claim_offsets": np.array([0, 2, 2, 3]),
        "claim_confidence": np.array([0.0, -0.0, 5e-324]),
        "claim_label": np.array([-1, 0, 1], dtype=np.int8),
        "claim_text": TextColumn.of(["", "t", "u"]),
        "claim_rationale": TextColumn.nones(3)}, "")
    assert oracle_lines(ds) == [
        '{"id":"a","valid":true,"confidence":-0.0,"claims":[{"text":"","confidence":0.0},'
        '{"text":"t","confidence":-0.0,"valid":false}]}',
        '{"id":"b","valid":false,"confidence":0.0}',
        '{"id":"c","valid":true,"confidence":-0.0,"claims":[{"text":"u","confidence":5e-324,'
        '"valid":true}]}']
    assert model._lines(ds, 0, 3) == oracle_lines(ds)


@pytest.mark.parametrize("make", [
    lambda: generate(AgentSpec(UniformDifficulty(), IdentityReport(), n_questions=600, seed=3)),
    lambda: generate(AgentSpec(UniformDifficulty(), IdentityReport(), n_questions=600,
                               n_claims=8, seed=3)),
    lambda: generate_ensemble(40, 16, seed=3),
], ids=["flat", "chains", "ensemble"])
def test_generated_lines_across_chunks(make):
    """The simulators' datasets, over more than two chunks of records."""
    ds = make()
    buf = io.StringIO()
    dump_jsonl(ds, buf)
    assert buf.getvalue() == "".join(line + "\n" for line in oracle_lines(ds))


class TestTextColumn:
    TEXTS = ["", "a", "h\u00e9llo", "\u65e5\u672c", "\ud800", "x" * 10]

    def test_strings_round_trip_through_one_buffer(self):
        column = TextColumn.of(self.TEXTS)
        assert list(column) == self.TEXTS and len(column) == len(self.TEXTS)
        assert column.data == "".join(self.TEXTS).encode("utf-8", "surrogatepass")
        assert column.offsets.tolist() == [0, 0, 1, 7, 13, 16, 26]
        assert column.missing is None and not column.offsets.flags.writeable

    def test_missing_strings_read_as_none(self):
        rationales = [None, "a", "", None, "\u00e9"]
        ds = read_lines(*(json.dumps({"id": f"r{i}", "valid": True, "claims": [
            {"text": "t", "confidence": 0.5, **({} if why is None else {"rationale": why})}]})
            for i, why in enumerate(rationales)))
        assert list(ds.claim_rationale) == rationales
        assert ds.claim_rationale.missing.tolist() == [True, False, False, True, False]
        none = read_lines('{"id":"a","valid":true,"claims":[{"text":"t","confidence":0.5}]}')
        for column in (none.claim_rationale, TextColumn.nones(3)):
            assert set(column) == {None} and column.data == b""
            assert column.offsets.strides == (0,)  # no memory per string

    def test_chunks_meet_at_every_flush(self):
        texts = [f"t{i}\u00e9" if i % 7 == 0 else f"t{i}" for i in range(2 * _TEXT_CHUNK + 5)]
        column = TextColumn.of(texts)
        assert list(column) == texts
        assert column[_TEXT_CHUNK - 1:_TEXT_CHUNK + 1] == texts[_TEXT_CHUNK - 1:_TEXT_CHUNK + 1]

    @pytest.mark.parametrize("name", ["ids", "claim_text", "claim_rationale", "meta"])
    def test_slices_give_lists_and_negative_indices_count_back(self, name):
        ds = read_lines(*(json.dumps({
            "id": f"r{i}\u00e9" * i, "valid": True, "meta": {"k": str(i)} if i % 2 else {},
            "claims": [{"text": f"c{i}", "confidence": 0.5,
                        **({"rationale": f"why {i}"} if i % 3 else {})}]})
            for i in range(1, 6)))
        column = getattr(ds, name)
        items = list(column)
        assert len(items) == 5
        for part in (slice(0, 1), slice(None), slice(1, 3), slice(-2, None), slice(3, 1),
                     slice(None, None, -1), slice(0, 10, 2), slice(-10, 2)):
            assert column[part] == items[part], part
            assert type(column[part]) is list
        assert column[-1] == items[4] and column[-5] == items[0]
        for i in (5, -6):
            with pytest.raises(IndexError):
                column[i]


class TestDataset:
    def test_duplicate_ids_rejected_at_construction(self):
        recs = (PredictionRecord(id="a", valid=True),
                PredictionRecord(id="a", valid=False))
        with pytest.raises(DataError, match="'a'"):
            Dataset(records=recs)

    def test_duplicate_id_named_across_row_chunks(self):
        recs = [PredictionRecord(id=f"r{i}", valid=True) for i in range(_TEXT_CHUNK + 2)]
        with pytest.raises(DataError, match="^duplicate id 'r7'$"):
            Dataset(recs + [PredictionRecord(id="r7", valid=False)])
        with pytest.raises(DataError, match="^duplicate id 'r0'$"):
            Dataset([recs[0], recs[0]])

    @pytest.mark.parametrize("s", [np.str_, Enum("Names", {x: x for x in "agxtrkv"}, type=str)],
                             ids=["numpy", "enum"])
    def test_numpy_strings_are_stored_as_str(self, s):
        """Ingest takes str exactly, so a row keeps a str subclass as the str
        of its characters: not str(value), which gives "Names.a" for an enum."""
        rec = PredictionRecord(id=s("a"), valid=True, group=s("g"), answer=s("x"),
                               claims=(ClaimRecord(text=s("t"), confidence=0.5,
                                                   rationale=s("r")),),
                               meta={s("k"): s("v")})
        ds = Dataset([rec])
        assert list(ds.ids) == ["a"] and ds.group_names == ("g",) and ds.answer_names == ("x",)
        assert list(ds.claim_text) == ["t"] and list(ds.claim_rationale) == ["r"]
        assert list(ds.meta) == [{"k": "v"}]
        claim = rec.claims[0]
        strings = [rec.id, rec.group, rec.answer, claim.text, claim.rationale, *rec.meta,
                   *rec.meta.values()]
        assert {type(x) for x in strings} == {str}

    @pytest.mark.parametrize("meta", [OrderedDict(k="v"), defaultdict(str, k="v")],
                             ids=["ordered", "default"])
    def test_dict_subclass_meta_is_stored(self, meta):
        recs = [PredictionRecord(id=f"r{i}", valid=True, meta=meta) for i in range(3)]
        assert type(recs[0].meta) is dict
        ds = Dataset(recs)
        assert len(ds) == 3 and list(ds.meta) == [{"k": "v"}] * 3

    def test_confidences_vector(self):
        ds = make_dataset([(0.2, True), (0.8, False)])
        np.testing.assert_array_equal(ds.confidences(), [0.2, 0.8])

    def test_confidences_missing_names_record(self):
        ds = Dataset(records=(PredictionRecord(id="noconf", valid=True),))
        with pytest.raises(DataError, match="noconf"):
            ds.confidences()

    def test_record_confidence_validated(self):
        with pytest.raises(DataError):
            PredictionRecord(id="a", valid=True, confidence=1.5)

    def test_empty_id_rejected(self):
        with pytest.raises(DataError):
            PredictionRecord(id="", valid=True)

    def test_columns_left_out_are_empty(self):
        ds = Dataset._from_columns({"ids": TextColumn.of(["a", "b"]),
                                    "valid": np.array([True, False]),
                                    "confidence": np.array([0.5, np.nan])}, "x")
        rows = Dataset([PredictionRecord(id="a", valid=True, confidence=0.5),
                        PredictionRecord(id="b", valid=False)])
        assert_same_columns(ds, rows)
        assert ds.records == rows.records
        assert validate(ds) == validate(rows)
        out, expected = io.StringIO(), io.StringIO()
        dump_jsonl(ds, out)
        dump_jsonl(rows, expected)
        assert out.getvalue() == expected.getvalue()


class TestValidate:
    def test_missing_confidence_warnings(self):
        recs = tuple(PredictionRecord(id=f"q{i}", valid=True,
                                      confidence=None if i < 2 else 0.5)
                     for i in range(10))
        summary = validate(Dataset(records=recs))
        warnings = [m for lvl, m in summary.warnings if "confidence" in m]
        assert len(warnings) == 2
        assert summary.n_records == 10

    def test_empty_dataset_fatal(self):
        summary = validate(Dataset(records=()))
        assert summary.n_records == 0
        assert any(lvl == "fatal" for lvl, _ in summary.warnings)

    def test_fully_labeled_claims_no_warnings(self):
        claims = (ClaimRecord(text="s", confidence=0.5, valid=True),)
        recs = (PredictionRecord(id="a", valid=True, confidence=0.5,
                                 claims=claims),)
        summary = validate(Dataset(records=recs))
        assert summary.n_claims == 1
        assert summary.n_labeled_claims == 1
        assert not any("unlabeled" in m for _, m in summary.warnings)

    def test_unlabeled_claims_counted(self):
        claims = (ClaimRecord(text="s", confidence=0.5),
                  ClaimRecord(text="t", confidence=0.6, valid=False))
        recs = (PredictionRecord(id="a", valid=True, confidence=0.5,
                                 claims=claims),)
        summary = validate(Dataset(records=recs))
        assert any("1 of 2" in m for _, m in summary.warnings)

    def test_singleton_group_warning(self):
        recs = (PredictionRecord(id="a", valid=True, group="g1", confidence=0.5),
                PredictionRecord(id="b", valid=True, group="g2", confidence=0.5),
                PredictionRecord(id="c", valid=True, group="g2", confidence=0.5))
        summary = validate(Dataset(records=recs))
        assert summary.n_groups == 2
        assert any("g1" in m for _, m in summary.warnings)
