"""JSONL ingestion, record validation, and round-trip serialization."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becal.errors import DataError
from becal.model import (ClaimRecord, Dataset, PredictionRecord, dump_jsonl,
                         load_jsonl, read_jsonl, record_to_obj, validate)

from conftest import make_dataset


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

    def test_record_to_obj_key_order_stable(self):
        rec = PredictionRecord(id="a", valid=True, confidence=0.5,
                               meta={"z": "1", "a": "2"})
        assert list(record_to_obj(rec)) == ["id", "valid", "confidence", "meta"]
        assert list(record_to_obj(rec)["meta"]) == ["a", "z"]


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
    assert again.records == ds.records


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
