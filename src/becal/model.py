"""Core data model: a dataset held as numpy columns, JSONL ingestion and validation.

The JSONL schema is one JSON object per line with fields

    id          non-empty string, unique within a dataset
    valid       boolean, ground-truth correctness of the final answer
    confidence  optional number in [0, 1], response-level stated confidence
    group       optional string, question key grouping samples of one prompt
    answer      optional string, canonical answer (needed for majority voting)
    claims      optional array of {text, confidence, valid?, rationale?}
    meta        optional object with string values

Unknown top-level fields are routed into meta (non-strings JSON-encoded);
confidences are validated strictly to [0, 1] with no clamping at ingest, and a
zero is stored as +0.0. A key repeated within any object and a string holding
a lone surrogate are rejected.

A Dataset of n records with m claims in all is a set of columns, each field
checked once when its column is filled:

    ids                 a TextColumn of n id strings
    valid               bool[n]
    confidence          float64[n], NaN where the record has none
    group, answer       int64[n] codes into group_names / answer_names, in
                        order of first appearance; -1 where the record has none
    claim_offsets       int64[n + 1]; record i owns claims
                        claim_offsets[i]:claim_offsets[i + 1]
    claim_confidence    float64[m]
    claim_label         int8[m]: 1 valid, 0 invalid, -1 unlabeled
    claim_text          a TextColumn of m strings
    claim_rationale     a TextColumn of m strings or None
    meta                a MetaColumn: every record's meta pairs, held like the
                        claims as offsets into flat key and value sequences
                        (one key object per distinct key, the values a
                        TextColumn); meta[i] is record i's pairs as a dict

Each optional field has one missing marker (NaN, -1 or None). A column that
a producer leaves out is filled in empty by Dataset._from_columns, in
zero-stride arrays where it has n or n + 1 entries.

A TextColumn is one UTF-8 buffer plus int64 offsets, and a missing mask
where None is allowed, so there is no str object per string; an index gives
a str, a slice a list. The arrays are read-only and the other sequences are
tuples. Ingest appends each checked number, flag and code to a typed buffer
that becomes its column without a copy, and each string to a TextColumn's
buffer a chunk at a time, so it keeps no Python object per record. Ingest,
aggregation, simulation, scoring and output all work on the columns. One
decoder turns them into each record's JSON object, decoding the strings of
one chunk of records at a time: dump_jsonl encodes those objects, and
`Dataset.records` builds PredictionRecord rows, with ClaimRecord claims and
meta keys in sorted order, from them only when it is asked for, and keeps
them.
"""

from __future__ import annotations

import json
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import DataError

_KNOWN_FIELDS = frozenset(("id", "group", "valid", "confidence", "answer", "claims", "meta"))
_CLAIM_FIELDS = frozenset(("text", "confidence", "valid", "rationale"))
_NUMBERS = (int, float, np.integer, np.floating)  # np.float32 is no float subclass
_COLUMNS = ("ids", "valid", "confidence", "group", "group_names", "answer",
            "answer_names", "claim_offsets", "claim_confidence", "claim_label",
            "claim_text", "claim_rationale", "meta")


# ---------------------------------------------------------------------------
# field checks, shared by the row classes and the column ingest

def _check_number(name: str, value: object) -> None:
    # JSON true/false would pass as the integers 1 and 0. A plain float, by far
    # the most common value, passes one type test before the slower isinstance
    # checks run
    if type(value) is not float and (isinstance(value, bool)
                                     or not isinstance(value, _NUMBERS)):
        raise DataError(f"{name} must be numeric")


def _check_unit(name: str, value: float) -> float:
    """value as a float, or DataError unless 0 <= value <= 1.

    The comparison runs before any conversion, so it alone rejects NaN,
    infinities and integers too large for a float. Adding 0.0 turns -0.0
    into 0.0, so the sign of a zero never depends on which of two equal
    claims an aggregate picks.
    """
    if not 0.0 <= value <= 1.0:
        raise DataError(f"{name} out of range")
    return float(value) + 0.0


def _check_flag(name: str, value: object) -> bool:
    """value as a bool; a numpy bool is accepted too."""
    if isinstance(value, bool):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    raise DataError(f"{name} must be boolean")


def _check_text(name: str, value: object) -> None:
    """An optional string field: None or a str."""
    if value is not None and not isinstance(value, str):
        raise DataError(f"{name} must be a string")


def _check_utf8(name: str, *texts: str | None) -> None:
    """DataError if a text holds a lone surrogate, which no UTF-8 output can
    hold. The row classes check each string; JSONL ingest checks each line
    once instead."""
    for text in texts:
        if text is not None and not text.isascii():
            try:
                text.encode("utf-8")
            except UnicodeEncodeError:
                raise DataError(f"{name} holds a lone surrogate") from None


def _check_record(rid: object, valid: object, confidence: object, group: object,
                  answer: object) -> tuple[bool, float | None]:
    """The checked valid flag and confidence of one record."""
    if valid is None:
        raise DataError("missing required field valid")
    valid = _check_flag("valid", valid)
    _check_text("group", group)
    _check_text("answer", answer)
    if not isinstance(rid, str) or not rid:
        raise DataError("record id must be a non-empty string")
    if confidence is not None:
        _check_number("confidence", confidence)
        try:
            confidence = _check_unit("confidence", confidence)
        except DataError:  # the record's name is built only for a bad value
            raise DataError(f"record {rid!r}: confidence out of range") from None
    return valid, confidence


def _check_claim(text: object, confidence: object, valid: object,
                 rationale: object) -> tuple[float, bool | None]:
    """The checked confidence and label of one claim."""
    if not isinstance(text, str):
        raise DataError("claim text missing or not a string")
    _check_number("claim confidence", confidence)
    if valid is not None:
        valid = _check_flag("claim valid", valid)
    _check_text("claim rationale", rationale)
    return _check_unit("claim confidence", confidence), valid


def _check_meta(meta: object) -> None:
    if not isinstance(meta, dict):
        raise DataError("meta must be an object")
    for key, value in meta.items():
        if not isinstance(key, str):
            raise DataError(f"meta keys must be strings (key {key!r})")
        if not isinstance(value, str):
            raise DataError(f"meta values must be strings (key {key!r})")


# ---------------------------------------------------------------------------
# rows

@dataclass(frozen=True)
class ClaimRecord:
    """One claim inside a response: a text span with its stated confidence.

    valid is the judge-assigned correctness label, None when unlabeled.
    """

    text: str
    confidence: float
    valid: bool | None = None
    rationale: str | None = None

    def __post_init__(self) -> None:
        confidence, valid = _check_claim(self.text, self.confidence, self.valid,
                                         self.rationale)
        _check_utf8("claim text", self.text)
        _check_utf8("claim rationale", self.rationale)
        object.__setattr__(self, "confidence", confidence)
        object.__setattr__(self, "valid", valid)


@dataclass(frozen=True)
class PredictionRecord:
    """One model response with its correctness label and stated confidence.

    Every field is checked as it would be in JSONL; a numpy bool is stored as
    bool, a numpy number as float.
    """

    id: str
    valid: bool
    confidence: float | None = None
    group: str | None = None
    answer: str | None = None
    claims: tuple[ClaimRecord, ...] = ()
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        valid, confidence = _check_record(self.id, self.valid, self.confidence,
                                          self.group, self.answer)
        object.__setattr__(self, "valid", valid)
        object.__setattr__(self, "confidence", confidence)
        claims = tuple(self.claims)
        if not all(isinstance(c, ClaimRecord) for c in claims):
            raise DataError("claims must be ClaimRecord objects")
        object.__setattr__(self, "claims", claims)
        _check_meta(self.meta)
        _check_utf8("id", self.id)
        _check_utf8("group", self.group)
        _check_utf8("answer", self.answer)
        _check_utf8("meta", *self.meta, *self.meta.values())


# ---------------------------------------------------------------------------
# columns

def _names(codes: np.ndarray, table: tuple[str, ...]) -> list[str | None]:
    """The name of each code, None for -1."""
    table = table + (None,)  # code -1 indexes this last entry
    return [table[c] for c in codes.tolist()]


# strings encoded or decoded, and column items built, per step: no str or
# dict outlives its chunk
_TEXT_CHUNK = 4096


class _ChunkedColumn(Sequence):
    """A column whose items exist as Python objects only while they are read:
    chunk(start, stop) builds items start to stop - 1 as a new list, an index
    one item, a slice a list, and iteration one chunk at a time."""

    def chunk(self, start: int, stop: int) -> list:
        raise NotImplementedError

    def __getitem__(self, i):
        if isinstance(i, slice):
            start, stop, step = i.indices(len(self))
            if step == 1:
                return self.chunk(start, max(start, stop))
            return [self[j] for j in range(start, stop, step)]
        i = range(len(self))[i]  # negative indices count from the end
        return self.chunk(i, i + 1)[0]

    def __iter__(self) -> Iterator:
        n = len(self)
        for start in range(0, n, _TEXT_CHUNK):
            yield from self.chunk(start, min(start + _TEXT_CHUNK, n))


class TextColumn(_ChunkedColumn):
    """n strings held as one UTF-8 buffer, with no str object per string.

    String i is data[offsets[i]:offsets[i + 1]] decoded. Where missing is
    given, a True entry reads as None (and owns no bytes). Lone surrogates
    round-trip, as they would in a str.
    """

    def __init__(self, data: bytes, offsets: np.ndarray,
                 missing: np.ndarray | None = None) -> None:
        for column in (offsets, missing):
            if column is not None:
                column.flags.writeable = False
        self.data, self.offsets, self.missing = data, offsets, missing

    @classmethod
    def of(cls, texts: Iterable[str]) -> TextColumn:
        """A column of the given strings."""
        builder = _TextBuilder()
        texts = iter(texts)
        while chunk := list(islice(texts, _TEXT_CHUNK)):
            builder.pending = chunk
            builder.flush()
        return builder.column()

    @classmethod
    def nones(cls, n: int) -> TextColumn:
        """n missing strings, in arrays that take no memory per string."""
        return cls(b"", np.broadcast_to(np.int64(0), n + 1), np.broadcast_to(True, n))

    def spread(self, at: np.ndarray, n: int) -> TextColumn:
        """An n-string column with this column's strings at the increasing
        indices `at`, and None everywhere else."""
        if not len(at):
            return TextColumn.nones(n)
        lengths = np.zeros(n + 1, dtype=np.int64)
        lengths[at + 1] = np.diff(self.offsets)
        missing = np.ones(n, dtype=bool)
        missing[at] = False
        return TextColumn(self.data, np.cumsum(lengths), missing)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def chunk(self, start: int, stop: int) -> list[str | None]:
        missing = None if self.missing is None else self.missing[start:stop]
        if missing is not None and missing.all():
            return [None] * (stop - start)
        lo = int(self.offsets[start])
        bounds = (self.offsets[start:stop + 1] - lo).tolist()
        ends = islice(bounds, 1, None)
        data = self.data[lo:lo + bounds[-1]]
        if data.isascii():  # then byte offsets are character offsets
            text = data.decode("ascii")
            out = [text[a:b] for a, b in zip(bounds, ends)]
        else:
            out = [data[a:b].decode("utf-8", "surrogatepass") for a, b in zip(bounds, ends)]
        if missing is not None and missing.any():
            out = [None if gone else text for text, gone in zip(out, missing.tolist())]
        return out


class _TextBuilder:
    """Strings appended to `pending`, moved into one UTF-8 buffer by flush().

    A caller that flushes every _TEXT_CHUNK strings keeps no str beyond that.
    """

    def __init__(self) -> None:
        self.pending: list[str] = []
        self.data = bytearray()
        self.offsets = array("q", [0])

    def flush(self) -> None:
        texts = self.pending
        joined = "".join(texts)
        if joined.isascii():  # then a string's UTF-8 length is its length
            self.data += joined.encode("ascii")
        else:
            texts = [text.encode("utf-8", "surrogatepass") for text in texts]
            self.data += b"".join(texts)
        ends = np.cumsum(np.fromiter(map(len, texts), np.int64, len(texts)))
        ends += self.offsets[-1]
        self.offsets.frombytes(ends.tobytes())
        self.pending.clear()

    def column(self) -> TextColumn:
        self.flush()
        return TextColumn(bytes(self.data), np.frombuffer(self.offsets, dtype=np.int64))


class MetaColumn(_ChunkedColumn):
    """The meta column: every record's key/value string pairs, with no object
    per record. An item is one record's pairs as a new dict, empty when it has
    none.

    Record i owns pairs offsets[i]:offsets[i + 1] of keys and values, in the
    order they were read. keys holds one object per distinct key. values is a
    TextColumn, or a float64 array whose numbers are rendered with repr:
    simulated data keeps its difficulty q as a number column and turns it
    into strings only on output.
    """

    def __init__(self, offsets: np.ndarray, keys: tuple[str, ...], values) -> None:
        for column in (offsets, values):
            if isinstance(column, np.ndarray):
                column.flags.writeable = False
        self.offsets, self.keys, self.values = offsets, keys, values

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def chunk(self, start: int, stop: int) -> list[dict[str, str]]:
        bounds = self.offsets[start:stop + 1].tolist()
        lo, hi = bounds[0], bounds[-1]
        keys, values = self.keys[lo:hi], self.values[lo:hi]
        if isinstance(values, np.ndarray):
            values = [repr(x) for x in values.tolist()]
        return [dict(zip(keys[a - lo:b - lo], values[a - lo:b - lo]))
                for a, b in zip(bounds, bounds[1:])]


class _Columns:
    """Checked fields appended one record at a time.

    Numbers, flags and codes go straight into typed buffers (array.array and
    bytearray) that columns() wraps without a copy, so no Python float, bool
    or None per field is kept. Strings go into _TextBuilders, flushed every
    _TEXT_CHUNK strings. Only the set of ids seen, which finds a duplicate,
    holds a str per record; columns() frees it.
    """

    def __init__(self) -> None:
        self.seen: set[str] = set()
        self.valid = bytearray()
        self.confidence = array("d")  # NaN for no confidence
        self.group = array("q")  # codes in order of first appearance, -1 for none
        self.answer = array("q")
        self.group_codes: dict[str, int] = {}
        self.answer_codes: dict[str, int] = {}
        self.claim_offsets = array("q", [0])
        self.claim_confidence = array("d")
        self.claim_label = array("b")  # 1 valid, 0 invalid, -1 unlabeled
        self.rationale_at = array("q")  # the index of each claim with a rationale
        self.meta_offsets = array("q", [0])
        self.meta_keys: list[str] = []
        self.key_names: dict[str, str] = {}  # one object per distinct meta key
        # claim_rationale holds only the rationales given, in claim order
        self.texts = (self.ids, self.claim_text, self.claim_rationale, self.meta_values) = (
            _TextBuilder(), _TextBuilder(), _TextBuilder(), _TextBuilder())

    def _claim(self, confidence: float, valid: bool | None, text: str,
               rationale: str | None) -> None:
        if rationale is not None:
            self.rationale_at.append(len(self.claim_confidence))
            self.claim_rationale.pending.append(rationale)
        self.claim_confidence.append(confidence)
        self.claim_label.append(-1 if valid is None else valid)
        self.claim_text.pending.append(text)

    def _record(self, rid: str, valid: bool, confidence: float | None, group: str | None,
                answer: str | None, meta: dict[str, str]) -> None:
        if rid in self.seen:
            raise DataError(f"duplicate id {rid!r}")
        self.seen.add(rid)
        self.ids.pending.append(rid)
        self.valid.append(valid)
        self.confidence.append(math.nan if confidence is None else confidence)
        codes = self.group_codes
        self.group.append(-1 if group is None else codes.setdefault(group, len(codes)))
        codes = self.answer_codes
        self.answer.append(-1 if answer is None else codes.setdefault(answer, len(codes)))
        self.claim_offsets.append(len(self.claim_confidence))
        for key in meta:
            self.meta_keys.append(self.key_names.setdefault(key, key))
        self.meta_values.pending.extend(meta.values())
        self.meta_offsets.append(len(self.meta_keys))
        # rationales never outnumber claim texts
        if (len(self.ids.pending) + len(self.claim_text.pending)
                + len(self.meta_values.pending) >= _TEXT_CHUNK):
            for texts in self.texts:
                texts.flush()

    def add_object(self, obj: object) -> None:
        """Check one decoded JSONL object field by field and append it."""
        if not isinstance(obj, dict):
            raise DataError("expected a JSON object")
        claims = obj.get("claims")
        if claims is not None:
            if not isinstance(claims, list):
                raise DataError("claims must be an array")
            for claim in claims:
                if not isinstance(claim, dict):
                    raise DataError("claim must be an object")
                if not claim.keys() <= _CLAIM_FIELDS:
                    key = next(k for k in claim if k not in _CLAIM_FIELDS)
                    raise DataError(f"unknown claim field {key!r}")
                text = claim.get("text")
                rationale = claim.get("rationale")
                confidence, valid = _check_claim(text, claim.get("confidence"),
                                                 claim.get("valid"), rationale)
                self._claim(confidence, valid, text, rationale)
        meta = obj.get("meta")
        if meta is None:
            meta = {}
        else:
            _check_meta(meta)
        if not obj.keys() <= _KNOWN_FIELDS:
            # unknown top-level fields are preserved, not dropped
            for key, value in obj.items():
                if key in _KNOWN_FIELDS:
                    continue
                if key in meta:
                    raise DataError(f"field {key!r} collides with a meta key")
                meta[key] = value if isinstance(value, str) else json.dumps(
                    value, sort_keys=True, separators=(",", ":"))
        rid, group, answer = obj.get("id"), obj.get("group"), obj.get("answer")
        valid, confidence = _check_record(rid, obj.get("valid"), obj.get("confidence"),
                                          group, answer)
        self._record(rid, valid, confidence, group, answer, meta)

    def add_record(self, rec: PredictionRecord) -> None:
        """Append a row whose fields its constructor has checked."""
        for c in rec.claims:
            self._claim(c.confidence, c.valid, c.text, c.rationale)
        self._record(rec.id, rec.valid, rec.confidence, rec.group, rec.answer, rec.meta)

    def columns(self) -> dict:
        self.seen.clear()  # ingest is over: free the id set before the copies below
        claim_label = np.frombuffer(self.claim_label, dtype=np.int8)
        return {
            "ids": self.ids.column(), "valid": np.frombuffer(self.valid, dtype=bool),
            "confidence": np.frombuffer(self.confidence),
            "group": np.frombuffer(self.group, dtype=np.int64),
            "group_names": tuple(self.group_codes),
            "answer": np.frombuffer(self.answer, dtype=np.int64),
            "answer_names": tuple(self.answer_codes),
            "claim_offsets": np.frombuffer(self.claim_offsets, dtype=np.int64),
            "claim_confidence": np.frombuffer(self.claim_confidence),
            "claim_label": claim_label, "claim_text": self.claim_text.column(),
            "claim_rationale": self.claim_rationale.column().spread(
                np.frombuffer(self.rationale_at, dtype=np.int64), len(claim_label)),
            "meta": MetaColumn(np.frombuffer(self.meta_offsets, dtype=np.int64),
                               tuple(self.meta_keys), self.meta_values.column()),
        }


class Dataset:
    """Immutable collection of prediction records, stored as columns.

    Dataset(records) takes PredictionRecord rows; the column layout is in the
    module docstring. Safe to share across workers.
    """

    def __init__(self, records: Iterable[PredictionRecord] = (), label: str = "") -> None:
        rows = tuple(records)
        cols = _Columns()
        for rec in rows:
            cols.add_record(rec)
        self._set(cols.columns(), label)
        self._rows = rows

    @classmethod
    def _from_columns(cls, columns: dict, label: str) -> Dataset:
        """A dataset over checked columns: ids, valid, confidence and any
        others the caller has. Each one left out is empty."""
        n, m = len(columns["ids"]), len(columns.get("claim_confidence", ()))
        none, zeros = np.broadcast_to(np.int64(-1), n), np.broadcast_to(np.int64(0), n + 1)
        empty = {"group": none, "group_names": (), "answer": none, "answer_names": (),
                 "claim_offsets": zeros, "claim_confidence": np.empty(0),
                 "claim_label": np.empty(0, dtype=np.int8), "claim_text": TextColumn.of(()),
                 "claim_rationale": TextColumn.nones(m),
                 "meta": MetaColumn(zeros, (), TextColumn.of(()))}
        ds = cls.__new__(cls)
        ds._set({**empty, **columns}, label)
        return ds

    def _set(self, columns: dict, label: str) -> None:
        for name in _COLUMNS:
            value = columns[name]
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            setattr(self, name, value)
        self.label = label
        self._rows = None

    def columns(self) -> dict:
        """Every column by name (see the module docstring)."""
        return {name: getattr(self, name) for name in _COLUMNS}

    @property
    def records(self) -> tuple[PredictionRecord, ...]:
        """The rows as PredictionRecord objects, built on first access."""
        if self._rows is None:
            self._rows = tuple(
                PredictionRecord(**{**obj, "claims": tuple(
                    ClaimRecord(**claim) for claim in obj.get("claims", ()))})
                for start in range(0, len(self), _DUMP_CHUNK)
                for obj in _objects(self, start, min(start + _DUMP_CHUNK, len(self))))
        return self._rows

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[PredictionRecord]:
        return iter(self.records)

    def require_nonempty(self) -> None:
        if not self.ids:
            raise DataError("dataset is empty, nothing to compute")

    def confidences(self) -> np.ndarray:
        """The response-level confidence column.

        Rejects the dataset if any record lacks a confidence; claim-only
        records must go through aggregation first.
        """
        self.require_nonempty()
        missing = np.isnan(self.confidence)
        if missing.any():
            rid = self.ids[int(np.argmax(missing))]
            raise DataError(f"record {rid!r} has no response-level confidence")
        return self.confidence

    def valids(self) -> np.ndarray:
        self.require_nonempty()
        return self.valid


@dataclass(frozen=True)
class ValidationSummary:
    """Counts plus a list of (level, message) warnings; levels are warning/fatal."""

    n_records: int
    n_claims: int
    n_labeled_claims: int
    n_groups: int
    warnings: tuple[tuple[str, str], ...]

    def to_dict(self) -> dict:
        return {
            "n_records": self.n_records,
            "n_claims": self.n_claims,
            "n_labeled_claims": self.n_labeled_claims,
            "n_groups": self.n_groups,
            "warnings": [{"level": lv, "message": msg} for lv, msg in self.warnings],
        }


# ---------------------------------------------------------------------------
# JSONL

def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise DataError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


# built once: a decoder per line would add about a tenth to the decode time.
# _parse_line calls its scanner directly, skipping the JSON whitespace itself,
# which takes another eighth off the time per line
_SCAN = json.JSONDecoder(object_pairs_hook=_unique_keys).scan_once
_JSON_SPACE = " \t\n\r"


def _parse_line(line: str | bytes, cols: _Columns) -> None:
    """Append one JSONL line's record to cols, nothing for a blank line.

    Every failure is a DataError.
    """
    try:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        text = line.strip(_JSON_SPACE)
        if not text.strip():
            return
        try:
            obj, end = _SCAN(text, 0)
        except StopIteration:
            raise json.JSONDecodeError("Expecting value", text, 0) from None
        if end < len(text):
            raise json.JSONDecodeError("Extra data", text, end)
        if "\\u" in text:
            # a \uD800-style escape decodes to a lone surrogate, which no
            # UTF-8 output can hold; only escaped lines can carry one
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        raise DataError("string holds a lone surrogate escape") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"invalid UTF-8 at byte {exc.start}") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, integer literals past the digit limit, deep nesting
        raise DataError(f"malformed JSON: {getattr(exc, 'msg', exc)}") from None
    cols.add_object(obj)


def read_jsonl(lines: Iterable[str | bytes], source: str = "<stream>",
               label: str | None = None) -> Dataset:
    """Parse an iterable of JSONL lines into a Dataset.

    Blank lines are skipped; every non-blank line must parse to a record or a
    DataError naming the source and the line is raised. Never silently drops
    a record.
    """
    cols = _Columns()
    for lineno, line in enumerate(lines, start=1):
        try:
            _parse_line(line, cols)
        except DataError as exc:
            raise DataError(f"{source}: {exc} at line {lineno}") from None
    return Dataset._from_columns(cols.columns(), source if label is None else label)


def load_jsonl(path: str, label: str | None = None) -> Dataset:
    try:
        with open(path, "rb") as fh:
            return read_jsonl(fh, source=path, label=label)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


# records rendered per .tolist() and write, so output memory does not grow with n
_DUMP_CHUNK = 256
_ENCODE = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode


def dump_jsonl(dataset: Dataset, fh: IO[str]) -> None:
    """Write one compact JSON object per record, keys in a fixed order.

    Round-trips through read_jsonl. Records are rendered and written a chunk
    at a time.
    """
    for start in range(0, len(dataset), _DUMP_CHUNK):
        objects = _objects(dataset, start, min(start + _DUMP_CHUNK, len(dataset)))
        fh.write("\n".join(map(_ENCODE, objects)) + "\n")


def _objects(ds: Dataset, start: int, stop: int) -> Iterator[dict]:
    """The JSON object of each of records start to stop - 1, keys in the
    dump order and meta keys sorted, built one at a time from the chunk's
    decoded strings. Callers go a chunk of _DUMP_CHUNK records at a time."""
    offsets = ds.claim_offsets[start:stop + 1].tolist()
    lo, hi = offsets[0], offsets[-1]
    text, rationale = ds.claim_text[lo:hi], ds.claim_rationale[lo:hi]
    claim_conf = ds.claim_confidence[lo:hi].tolist()
    claim_label = ds.claim_label[lo:hi].tolist()
    group = _names(ds.group[start:stop], ds.group_names)
    answer = _names(ds.answer[start:stop], ds.answer_names)
    conf = ds.confidence[start:stop].tolist()
    for i, (rid, valid, meta) in enumerate(zip(ds.ids[start:stop], ds.valid[start:stop].tolist(),
                                               ds.meta.chunk(start, stop))):
        obj: dict = {"id": rid}
        if group[i] is not None:
            obj["group"] = group[i]
        obj["valid"] = valid
        if not math.isnan(conf[i]):
            obj["confidence"] = conf[i]
        if answer[i] is not None:
            obj["answer"] = answer[i]
        if offsets[i] < offsets[i + 1]:
            obj["claims"] = claims = []
            for j in range(offsets[i] - lo, offsets[i + 1] - lo):
                claim: dict = {"text": text[j], "confidence": claim_conf[j]}
                if claim_label[j] >= 0:
                    claim["valid"] = claim_label[j] == 1
                if rationale[j] is not None:
                    claim["rationale"] = rationale[j]
                claims.append(claim)
        if meta:
            obj["meta"] = dict(sorted(meta.items()))
        yield obj


def validate(dataset: Dataset) -> ValidationSummary:
    """Pure inspection: counts plus warnings, never raises on content.

    Warnings cover records without response-level confidence, groups of size
    one, and records with unlabeled claims; an empty dataset is fatal-level.
    """
    ds = dataset
    warnings: list[tuple[str, str]] = []
    if not ds.ids:
        warnings.append(("fatal", "dataset is empty: no metrics can be computed"))
    labeled_before = np.concatenate(([0], np.cumsum(ds.claim_label >= 0, dtype=np.int64)))
    claims = np.diff(ds.claim_offsets)
    labeled = np.diff(labeled_before[ds.claim_offsets])
    for i in np.flatnonzero(np.isnan(ds.confidence) | (labeled < claims)).tolist():
        rid, n_claims, n_labeled = ds.ids[i], int(claims[i]), int(labeled[i])
        if math.isnan(ds.confidence[i]):
            warnings.append(("warning", f"record {rid!r}: no response-level confidence"))
        if n_labeled < n_claims:
            warnings.append((
                "warning",
                f"record {rid!r}: {n_claims - n_labeled} of {n_claims} claims unlabeled"))
    sizes = np.bincount(ds.group[ds.group >= 0], minlength=len(ds.group_names))
    for name in sorted(g for g, size in zip(ds.group_names, sizes.tolist()) if size == 1):
        warnings.append(("warning", f"group {name!r}: only one sample"))
    return ValidationSummary(
        n_records=len(ds),
        n_claims=len(ds.claim_confidence),
        n_labeled_claims=int(labeled_before[-1]),
        n_groups=int(np.count_nonzero(sizes)),
        warnings=tuple(warnings),
    )
