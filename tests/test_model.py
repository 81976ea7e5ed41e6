"""JSONL ingestion, record validation, and round-trip serialization."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becal.errors import DataError
from becal.model import (_TEXT_CHUNK, ClaimRecord, Dataset, PredictionRecord, TextColumn,
                         dump_jsonl, load_jsonl, read_jsonl, validate)

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

    def test_unknown_claim_field_rejected(self):
        line = '{"id":"q1","valid":true,"claims":[{"text":"s","confidence":0.5,"x":1}]}'
        with pytest.raises(DataError):
            read_lines(line)


class TestRecordFields:
    """A record built in code is checked like one read from JSONL."""

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
        with pytest.raises(DataError, match=message):
            PredictionRecord(id="a", **fields)

    @pytest.mark.parametrize("fields,message", [
        ({"text": 1, "confidence": 0.5, "valid": "no"}, "claim text missing or not a string"),
        ({"text": "s", "confidence": 0.5, "valid": "no"}, "claim valid must be boolean"),
        ({"text": "s", "confidence": "0.5"}, "claim confidence must be numeric"),
        ({"text": "s", "confidence": 0.5, "rationale": 3}, "claim rationale must be a string"),
        ({"text": "s", "confidence": 1.5}, "claim confidence out of range"),
    ])
    def test_wrong_claim_types_rejected(self, fields, message):
        with pytest.raises(DataError, match=message):
            ClaimRecord(**fields)

    @pytest.mark.parametrize("fields,message", [
        ({"meta": {"k": 1}}, "meta values must be strings"),
        ({"meta": {1: "v"}}, "meta keys must be strings"),
        ({"meta": ["k"]}, "meta must be an object"),
        ({"claims": ["x"]}, "claims must be ClaimRecord objects"),
    ])
    def test_wrong_meta_and_claims_rejected(self, fields, message):
        with pytest.raises(DataError, match=message):
            PredictionRecord(id="a", valid=True, **fields)

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
