"""Claim markup parsing and confidence aggregation."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becal.claims import (aggregate_min, aggregate_product, apply_aggregation,
                          parse_claims)
from becal.errors import DataError
from becal.model import ClaimRecord, Dataset, PredictionRecord, dump_jsonl, read_jsonl

from conftest import assert_same_columns, make_claims


# markup fragments mixed with any code point, lone surrogates included
MARKUP = st.lists(st.sampled_from(
    ["<claim", "</claim>", ">", " ", "/", '"', "'", "=", "confidence", "rationale",
     "0.5", "1e9", "nan", "-0", "_"])
    | st.text(st.characters(exclude_categories=()) | st.characters(categories=["Cs"]),
              max_size=4),
    max_size=12).map("".join)


@settings(max_examples=300, deadline=None)
@given(MARKUP)
def test_parse_claims_raises_only_data_error(text):
    try:
        parse_claims(text)
    except DataError:
        pass


# well-formed elements mixed with text and stray markup
ELEMENT = st.builds(
    lambda conf, quote, body: f"<claim confidence={quote}{conf}{quote}>{body}</claim>",
    st.sampled_from(["0", "0.5", "1", "0.25"]), st.sampled_from(['"', "'"]),
    st.text(max_size=6))
DOCUMENT = st.lists(ELEMENT | st.text(max_size=4)
                    | st.sampled_from(["<claims>", "<claim", "</claim>", ">", "\n"]),
                    max_size=8).map("".join)


@settings(max_examples=300, deadline=None)
@given(DOCUMENT)
def test_spans_are_ordered_disjoint_elements(text):
    try:
        doc = parse_claims(text)
    except DataError:
        return
    data = text.encode("utf-8")
    end = 0
    for start, stop, claim in doc.spans:
        assert end <= start < stop
        element = data[start:stop]
        assert element.startswith(b"<claim") and element.endswith(b"</claim>")
        assert element[element.index(b">") + 1:-len(b"</claim>")] == \
            claim.text.encode("utf-8")
        end = stop


class TestParseClaims:
    def test_single_tag(self):
        doc = parse_claims('Step 1. <claim confidence="0.85">x = 3</claim>')
        assert len(doc.claims) == 1
        claim = doc.claims[0]
        assert claim.text == "x = 3"
        assert claim.confidence == 0.85

    def test_raw_preserved(self):
        text = 'before <claim confidence="0.5">a</claim> after'
        assert parse_claims(text).raw == text

    def test_nested_rejected_with_offset(self):
        text = '<claim confidence="0.9"><claim confidence="0.8">a</claim></claim>'
        with pytest.raises(DataError, match="nested claim at offset 24"):
            parse_claims(text)

    def test_document_order(self):
        text = ('<claim confidence="0.9">a</claim> mid '
                '<claim confidence="0.7">b</claim>'
                '<claim confidence="0.95">c</claim>')
        doc = parse_claims(text)
        assert doc.confidences() == [0.9, 0.7, 0.95]
        starts = [s for s, _, _ in doc.spans]
        assert starts == sorted(starts)

    def test_spans_are_byte_offsets(self):
        # two-byte UTF-8 character before the tag shifts byte offsets by 1
        text = 'é<claim confidence="0.5">a</claim>'
        doc = parse_claims(text)
        start, end, _ = doc.spans[0]
        raw = text.encode("utf-8")
        assert raw[start:end].decode("utf-8") == '<claim confidence="0.5">a</claim>'
        assert start == 2

    def test_unclosed_tag(self):
        with pytest.raises(DataError, match="offset 8"):
            parse_claims('padding <claim confidence="0.5">never closed')

    def test_self_closing_tag(self):
        with pytest.raises(DataError, match="offset 2 .self-closing not allowed"):
            parse_claims('a <claim confidence="0.5"/> b')

    def test_claim_inside_an_attribute_value_is_text(self):
        doc = parse_claims('<claim confidence="0.5" rationale="see <claim x">a</claim>')
        assert [(c.text, c.rationale) for c in doc.claims] == [("a", "see <claim x")]

    def test_unmatched_close(self):
        with pytest.raises(DataError, match="offset"):
            parse_claims("no open</claim>")

    def test_confidence_attribute_required(self):
        with pytest.raises(DataError, match="confidence"):
            parse_claims('<claim rationale="r">a</claim>')

    def test_confidence_not_numeric(self):
        with pytest.raises(DataError, match="confidence"):
            parse_claims('<claim confidence="high">a</claim>')

    def test_confidence_out_of_range(self):
        with pytest.raises(DataError, match="out of range"):
            parse_claims('<claim confidence="1.2">a</claim>')

    def test_rationale_captured_other_attrs_ignored(self):
        doc = parse_claims(
            '<claim confidence="0.6" rationale="unsure" id="c1">a</claim>')
        claim = doc.claims[0]
        assert claim.rationale == "unsure"
        assert claim.confidence == 0.6

    def test_single_quoted_attributes(self):
        doc = parse_claims("<claim confidence='0.4'>a</claim>")
        assert doc.claims[0].confidence == 0.4

    def test_no_claims(self):
        doc = parse_claims("plain text with no markup")
        assert doc.claims == ()


class TestAggregators:
    def test_product_of_ten_point_eights(self):
        value = aggregate_product([0.8] * 10)
        np.testing.assert_allclose(value, 0.8 ** 10, rtol=0, atol=0)
        assert abs(value - 0.107) < 5e-4

    def test_product_identity(self):
        assert aggregate_product([1.0, 1.0, 1.0]) == 1.0

    def test_product_annihilator(self):
        assert aggregate_product([0.5, 0.0, 0.9]) == 0.0

    def test_min_examples(self):
        assert aggregate_min([0.9, 0.11, 0.8]) == 0.11
        assert aggregate_min([0.7]) == 0.7
        assert aggregate_min([1.0, 1.0]) == 1.0

    def test_empty_list_rejected(self):
        with pytest.raises(DataError):
            aggregate_product([])
        with pytest.raises(DataError):
            aggregate_min([])

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            aggregate_product([0.5, 1.2])

    @pytest.mark.parametrize("bad", [True, "0.5", None, [0.5]], ids=repr)
    def test_non_numeric_rejected(self, bad):
        """A claim confidence is checked as ClaimRecord checks one: a bool is
        no number, and a string or None is a DataError, not a TypeError."""
        for aggregate in (aggregate_product, aggregate_min):
            with pytest.raises(DataError, match="^claim confidence must be numeric$"):
                aggregate([bad, 0.5])

    def test_product_at_most_min(self):
        """Equality holds exactly when at most one element is below 1."""
        rng = np.random.default_rng(7)
        for _ in range(200):
            vals = rng.random(rng.integers(1, 8)).tolist()
            if rng.random() < 0.3:
                vals = [1.0] * len(vals)
                if vals and rng.random() < 0.5:
                    vals[0] = rng.random()
            prod, low = aggregate_product(vals), aggregate_min(vals)
            assert prod <= low + 1e-15
            if sum(1 for v in vals if v < 1.0) <= 1:
                assert prod == low

    def test_permutation_invariant_and_monotone(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            vals = rng.random(5).tolist()
            shuffled = list(vals)
            rng.shuffle(shuffled)
            assert aggregate_product(vals) == pytest.approx(
                aggregate_product(shuffled), abs=1e-15)
            assert aggregate_min(vals) == aggregate_min(shuffled)
            bumped = list(vals)
            i = int(rng.integers(5))
            bumped[i] = min(1.0, bumped[i] + 0.1)
            assert aggregate_product(bumped) >= aggregate_product(vals) - 1e-15
            assert aggregate_min(bumped) >= aggregate_min(vals)


class TestApplyAggregation:
    def _dataset(self):
        claims = (ClaimRecord(text="a", confidence=0.8),
                  ClaimRecord(text="b", confidence=0.5))
        return Dataset(records=(
            PredictionRecord(id="q1", valid=True, confidence=0.9, claims=claims),
        ))

    def test_product_replaces_confidence(self):
        out = apply_aggregation(self._dataset(), "product")
        assert out.records[0].confidence == pytest.approx(0.4)

    def test_min_replaces_confidence(self):
        out = apply_aggregation(self._dataset(), "min")
        assert out.records[0].confidence == 0.5

    def test_claimless_record_rejected(self):
        ds = Dataset(records=(PredictionRecord(id="bare", valid=True,
                                               confidence=0.9),))
        with pytest.raises(DataError, match="bare"):
            apply_aggregation(ds, "product")

    def test_unknown_kind(self):
        with pytest.raises(Exception, match="product|min|unknown"):
            apply_aggregation(self._dataset(), "mean")

    def test_markup_matches_jsonl_claims(self):
        """Aggregating parsed markup equals aggregating the listed claims."""
        text = ('<claim confidence="0.9">a</claim>'
                '<claim confidence="0.7">b</claim>'
                '<claim confidence="0.95">c</claim>')
        doc = parse_claims(text)
        listed = [0.9, 0.7, 0.95]
        assert aggregate_product(doc.confidences()) == aggregate_product(listed)
        assert aggregate_min(doc.confidences()) == aggregate_min(listed)


# ragged claim lists whose confidences hit 0.0, -0.0 and 1.0 often
RAGGED = st.lists(st.lists(st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0),
                           min_size=1, max_size=12), min_size=1, max_size=20)


@settings(max_examples=150, deadline=None)
@given(RAGGED)
def test_aggregation_folds_each_record(chains):
    """reduceat over the claim columns is bit-identical to math.prod and min
    per record, on rows built in code and on their JSONL round trip."""
    rows = tuple(PredictionRecord(id=f"r{i}", valid=True, claims=make_claims(chain))
                 for i, chain in enumerate(chains))
    buf = io.StringIO()
    dump_jsonl(Dataset(records=rows), buf)
    again = read_jsonl(buf.getvalue().splitlines())
    assert_same_columns(again, Dataset(records=rows))
    assert again.records == rows
    for kind, fold in (("product", math.prod), ("min", min)):
        want = [float(fold(c.confidence for c in rec.claims)).hex() for rec in rows]
        for ds in (Dataset(records=rows), again):
            got = apply_aggregation(ds, kind).confidence.tolist()
            assert [p.hex() for p in got] == want, kind
