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

Every record, read from JSONL or given as a Dataset row, goes into the
columns through one appender, _Columns.add, which checks a list of decoded
objects field by field as columns (the keys, the types of each field's
values, the confidences against [0, 1] and the ids against those seen),
after folding unknown fields into meta. read_jsonl takes lines in chunks of
about 64 KiB (_INGEST_CHUNK). Each chunk is decoded with no per-object hook,
and may repeat a key only when its text holds more ":" and \\u003a escapes
(escape pairs read left to right) than it has decoded keys plus ":" in
decoded strings; a chunk holding a \\uD800-style escape is checked for a
lone surrogate over its decoded objects. Only a chunk that holds an error
fails a check. It is read line by line by _parse_lines, which builds each
line into the row classes, the one validator that words an error, and names
the first bad line.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from types import NoneType
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import DataError

_RECORD_KEYS = ("id", "valid", "confidence", "group", "answer", "claims", "meta")
_CLAIM_KEYS = ("text", "confidence", "valid", "rationale")
_KNOWN_FIELDS, _CLAIM_FIELDS = frozenset(_RECORD_KEYS), frozenset(_CLAIM_KEYS)
_NUMBERS = (int, float, np.integer, np.floating)  # np.float32 is no float subclass
_COLUMNS = ("ids", "valid", "confidence", "group", "group_names", "answer",
            "answer_names", "claim_offsets", "claim_confidence", "claim_label",
            "claim_text", "claim_rationale", "meta")


# ---------------------------------------------------------------------------
# field checks, for the row classes and both JSONL paths

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


def _row_text(name: str, text: str | None) -> str | None:
    """A row's optional string as the plain str the columns take: a str
    subclass as the str of its characters (str() gives "C.A" for a str enum
    member). A DataError if it holds a lone surrogate, which no UTF-8 output
    can hold; JSONL ingest checks each line once instead."""
    if text is None or type(text) is str and text.isascii():
        return text
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise DataError(f"{name} holds a lone surrogate") from None
    return str.__str__(text)


def _check_meta(meta: object) -> None:
    if not isinstance(meta, dict):
        raise DataError("meta must be an object")
    for key, value in meta.items():
        if not isinstance(key, str):
            raise DataError(f"meta keys must be strings (key {key!r})")
        if not isinstance(value, str):
            raise DataError(f"meta values must be strings (key {key!r})")


def _folded_meta(obj: dict) -> dict | None:
    """A JSONL object's meta with its unknown top-level fields added, so they
    are kept, not dropped; a non-string value as compact JSON. A DataError if
    one is also a meta key."""
    if obj.keys() <= _KNOWN_FIELDS:
        return obj.get("meta")
    meta = dict(obj.get("meta") or ())
    for key, value in obj.items():
        if key not in _KNOWN_FIELDS:
            if key in meta:
                raise DataError(f"field {key!r} collides with a meta key")
            meta[key] = value if isinstance(value, str) else json.dumps(
                value, sort_keys=True, separators=(",", ":"))
    return meta


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
        if not isinstance(self.text, str):
            raise DataError("claim text missing or not a string")
        _check_number("claim confidence", self.confidence)
        if self.valid is not None:
            object.__setattr__(self, "valid", _check_flag("claim valid", self.valid))
        _check_text("claim rationale", self.rationale)
        object.__setattr__(self, "confidence", _check_unit("claim confidence", self.confidence))
        object.__setattr__(self, "text", _row_text("claim text", self.text))
        object.__setattr__(self, "rationale", _row_text("claim rationale", self.rationale))


@dataclass(frozen=True)
class PredictionRecord:
    """One model response with its correctness label and stated confidence.

    Every field is checked as it would be in JSONL; a numpy bool is stored as
    bool, a numpy number as float and a numpy string as str.
    """

    id: str
    valid: bool
    confidence: float | None = None
    group: str | None = None
    answer: str | None = None
    claims: tuple[ClaimRecord, ...] = ()
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.valid is None:
            raise DataError("missing required field valid")
        object.__setattr__(self, "valid", _check_flag("valid", self.valid))
        _check_text("group", self.group)
        _check_text("answer", self.answer)
        if not isinstance(self.id, str) or not self.id:
            raise DataError("record id must be a non-empty string")
        if self.confidence is not None:
            _check_number("confidence", self.confidence)
            try:
                object.__setattr__(self, "confidence", _check_unit("confidence", self.confidence))
            except DataError:  # the record's name is built only for a bad value
                raise DataError(f"record {self.id!r}: confidence out of range") from None
        claims = tuple(self.claims)
        if not all(isinstance(c, ClaimRecord) for c in claims):
            raise DataError("claims must be ClaimRecord objects")
        object.__setattr__(self, "claims", claims)
        _check_meta(self.meta)
        for name in ("id", "group", "answer"):
            object.__setattr__(self, name, _row_text(name, getattr(self, name)))
        # a copy: a plain dict, as the columns take, of the caller's dict or subclass
        object.__setattr__(self, "meta", {_row_text("meta", k): _row_text("meta", v)
                                          for k, v in self.meta.items()})


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

    def __init__(self, data: bytes | bytearray, offsets: np.ndarray,
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


def _extend_offsets(offsets: array, counts: Iterable[int]) -> None:
    """Append to offsets the running ends of items counts long."""
    ends = np.cumsum(np.fromiter(counts, np.int64)) + offsets[-1]
    offsets.frombytes(ends.tobytes())


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
        _extend_offsets(self.offsets, map(len, texts))
        self.pending.clear()

    def column(self) -> TextColumn:
        self.flush()
        # the buffer itself, not a copy: ingest would end holding each text twice
        return TextColumn(self.data, np.frombuffer(self.offsets, dtype=np.int64))


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


def _only(values: list, *types: type) -> bool:
    """Whether the type of every value is one of types, exactly."""
    return set(map(type, values)).issubset(types)


def _fields(objs: list[dict], names: set[str], fields: Iterable[str]) -> Iterator[list]:
    """Each field's value in every object, None where it is absent."""
    for name in fields:
        yield list(map(dict.get, objs, repeat(name))) if name in names else [None] * len(objs)


def _units(values: list[float | int | None]) -> np.ndarray | None:
    """values as float64 with None as NaN and -0.0 as 0.0, or None unless
    every other value lies in [0, 1] (so a NaN read from JSON fails)."""
    try:
        column = np.array(values, dtype=np.float64)
    except OverflowError:  # an integer too large for a float
        return None
    inside = np.count_nonzero((column >= 0.0) & (column <= 1.0))
    if inside < len(values) and inside + values.count(None) < len(values):
        return None
    return column + 0.0


def _first_repeat(ids: list[str], seen: set[str]) -> int | None:
    """The index of the first id in seen or earlier in ids, None if none is."""
    first: dict[str, int] = {}  # each id's first index
    return next((i for i, rid in enumerate(ids)
                 if rid in seen or first.setdefault(rid, i) != i), None)


def _add_rows(cols: _Columns, rows: Sequence[PredictionRecord],
              word: Callable[[str, int], str]) -> None:
    """Append rows, checked by their classes, as the JSON objects they stand
    for. A repeated id is a DataError worded by word(message, index of the row)."""
    at = _first_repeat([row.id for row in rows], cols.seen)
    if at is not None:
        raise DataError(word(f"duplicate id {rows[at].id!r}", at))
    if not cols.add([{**vars(row), "claims": list(map(vars, row.claims))} for row in rows]):
        raise AssertionError("checked rows refused")  # add takes every row its class checks


def _codes(names: list[str | None], codes: dict[str, int]) -> Iterable[int]:
    """The code of each name, numbered in order of first appearance, -1 for None."""
    if names.count(None) == len(names):
        return repeat(-1, len(names))
    return [-1 if name is None else codes.setdefault(name, len(codes)) for name in names]


class _Columns:
    """Checked fields appended by add, the one way into the columns.

    Numbers, flags and codes go straight into typed buffers (array.array and
    bytearray) that columns() wraps without a copy, so no Python float, bool
    or None per field is kept. Strings go into _TextBuilders, flushed after
    each add. Only the set of ids seen, which finds a duplicate, holds a str
    per record; columns() frees it.
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

    def add(self, objs: list, raw: str | None = None) -> bool:
        """Check decoded JSONL objects field by field as columns and append
        them, or return False and append nothing: for a bad field, a repeated
        id, an integer too large for a float or, where raw (the text objs were
        decoded from with no duplicate-key hook) is given, a repeated key. So
        only objects holding an error are refused; the caller reads their
        lines with _parse_lines, which words it and names the first bad line."""
        if not _only(objs, dict):
            return False
        names = set().union(*objs)
        ids, valid, confidence, group, answer, claims, meta = _fields(objs, names, _RECORD_KEYS)
        if not (_only(ids, str) and all(ids) and _only(valid, bool)
                and _only(confidence, float, int, NoneType) and _only(group, str, NoneType)
                and _only(answer, str, NoneType) and _only(claims, list, NoneType)
                and _only(meta, dict, NoneType)):
            return False
        new_ids = set(ids)
        confidence = _units(confidence)
        if (confidence is None or len(new_ids) < len(ids)
                or not self.seen.isdisjoint(new_ids)):
            return False
        # the keys decoded before folding, each after one ":" in raw
        separators = sum(map(len, objs)) + sum(map(len, filter(None, meta)))
        if not _KNOWN_FIELDS.issuperset(names):
            try:
                meta = list(map(_folded_meta, objs))
            except DataError:
                return False

        claims = [() if c is None else c for c in claims] if None in claims else claims
        flat = list(chain.from_iterable(claims))
        if not _only(flat, dict):
            return False
        names = set().union(*flat)
        if not _CLAIM_FIELDS.issuperset(names):
            return False
        text, claim_confidence, label, rationale = _fields(flat, names, _CLAIM_KEYS)
        if not (_only(text, str) and _only(claim_confidence, float, int)
                and _only(label, bool, NoneType) and _only(rationale, str, NoneType)):
            return False
        claim_confidence = _units(claim_confidence)
        if claim_confidence is None:
            return False

        meta = [() if m is None else m for m in meta] if None in meta else meta
        keys = list(chain.from_iterable(meta))
        values = list(chain.from_iterable(map(dict.values, filter(None, meta))))
        if not (_only(keys, str) and _only(values, str)):
            return False
        if raw is not None:
            # A ":" in raw separates a key from its value or sits in a string,
            # where it decodes to itself, as a \u003a or \u003A escape does.
            # Every string the checks let through is below (a folded field is a
            # meta key and its value, compact JSON with as many ":" as its text
            # unless it repeats a key). Escapes pair up left to right, so an
            # escaped backslash before u003a is no colon. A key dict() dropped
            # takes its ":" from the right side only, so the counts agree only
            # if none was dropped.
            separators += sum(map(len, flat))
            strings = chain(ids, text, filter(None, rationale), filter(None, group),
                            filter(None, answer), keys, values)
            escapes = _COLON_ESCAPE.findall(raw) if "\\" in raw else []
            colons = raw.count(":") + len(escapes) - escapes.count("")
            if colons != separators + "".join(strings).count(":"):
                return False

        first_claim = len(self.claim_confidence)
        self.seen |= new_ids
        self.ids.pending += ids
        self.valid += bytes(valid)
        self.confidence.frombytes(confidence.tobytes())
        self.group.extend(_codes(group, self.group_codes))
        self.answer.extend(_codes(answer, self.answer_codes))
        _extend_offsets(self.claim_offsets, map(len, claims))
        self.claim_confidence.frombytes(claim_confidence.tobytes())
        self.claim_label.frombytes(bytes(label) if None not in label else
                                   array("b", [-1 if v is None else v for v in label]))
        if rationale.count(None) < len(rationale):
            given = [j for j, why in enumerate(rationale) if why is not None]
            self.rationale_at.extend(first_claim + j for j in given)
            self.claim_rationale.pending += [rationale[j] for j in given]
        self.claim_text.pending += text
        self.meta_keys += map(self.key_names.setdefault, keys, keys)
        self.meta_values.pending += values
        _extend_offsets(self.meta_offsets, map(len, meta))
        for builder in self.texts:
            builder.flush()
        return True

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

    Dataset(records) takes PredictionRecord rows, appended as the JSON
    objects they stand for; the column layout is in the module docstring.
    Safe to share across workers.
    """

    def __init__(self, records: Iterable[PredictionRecord] = (), label: str = "") -> None:
        rows = tuple(records)
        cols = _Columns()
        for start in range(0, len(rows), _TEXT_CHUNK):
            _add_rows(cols, rows[start:start + _TEXT_CHUNK], lambda message, at: message)
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


_JSON_SPACE = " \t\n\r"
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
# JSON escape pairs, left to right: an escaped backslash, "" in findall, or
# an escaped ":", "u003a" or "u003A"
_COLON_ESCAPE = re.compile(r"\\(?:\\|(u003[aA]))")
# built once: _plain decodes with no hook, a Python call per object fewer, and
# _Columns.add finds a repeated key by counting colons instead. _ENCODE writes
# dump_jsonl's lines and finds lone surrogates for _check_surrogates
_SCAN_PLAIN = json.JSONDecoder().scan_once
_ENCODE = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode
# bytes of JSONL (characters, for str lines) read per chunk. Only one chunk's
# decoded objects are alive at a time: about 0.6 MB for 64 KiB of chain lines.
# Twice that raised the peak RSS of commands reading 8,000 eight-claim chains
# by about 0.7 MB, past that of simulating them, with no measurable gain in speed
_INGEST_CHUNK = 1 << 16


def _check_surrogates(objs: list, text: str) -> None:
    """A UnicodeEncodeError if an object of objs, decoded from the JSON text,
    holds a lone surrogate, which no UTF-8 output can hold: a \\uD800-style
    escape decodes to one, and a str line can hold one itself."""
    if _SURROGATE_ESCAPE.search(text):
        # 16 objects per call: about the time per object of one call for a
        # whole chunk, at a quarter of its memory
        for start in range(0, len(objs), 16):
            _ENCODE(objs[start:start + 16]).encode("utf-8")
    elif not text.isascii():
        text.encode("utf-8")


def _parse_line(line: str | bytes) -> PredictionRecord | None:
    """One JSONL line as a PredictionRecord, None for a blank line; every
    failure is a DataError, worded by the row classes for a field.
    _parse_lines checks the ids."""
    try:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        if not line.strip():
            return None
        obj = json.loads(line, object_pairs_hook=_unique_keys)
        _check_surrogates([obj], line)
    except UnicodeEncodeError:
        raise DataError("string holds a lone surrogate escape") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"invalid UTF-8 at byte {exc.start}") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, integer literals past the digit limit, deep nesting
        raise DataError(f"malformed JSON: {getattr(exc, 'msg', exc)}") from None
    if not isinstance(obj, dict):
        raise DataError("expected a JSON object")
    claims = obj.get("claims")
    if claims is not None and not isinstance(claims, list):
        raise DataError("claims must be an array")
    claim_rows = []
    for claim in claims or ():
        if not isinstance(claim, dict):
            raise DataError("claim must be an object")
        if not claim.keys() <= _CLAIM_FIELDS:
            key = next(k for k in claim if k not in _CLAIM_FIELDS)
            raise DataError(f"unknown claim field {key!r}")
        claim_rows.append(ClaimRecord(**{key: claim.get(key) for key in _CLAIM_KEYS}))
    if obj.get("meta") is not None:
        _check_meta(obj["meta"])
    meta = _folded_meta(obj)  # a field colliding with a meta key fails here
    return PredictionRecord(**{**{key: obj.get(key) for key in _RECORD_KEYS},
                               "claims": claim_rows, "meta": meta or {}})


def read_jsonl(lines: Iterable[str | bytes], source: str = "<stream>",
               label: str | None = None) -> Dataset:
    """Parse an iterable of JSONL lines into a Dataset.

    Blank lines are skipped; every non-blank line must parse to a record or a
    DataError naming the source and the line is raised. Never silently drops
    a record. Lines are read in chunks of about _INGEST_CHUNK bytes.
    """
    cols = _Columns()
    chunk, size, first = [], 0, 1
    try:
        for line in lines:
            chunk.append(line)
            size += len(line)
            if size >= _INGEST_CHUNK:
                full, chunk, size = chunk, [], 0
                first = _add_lines(cols, full, first, source)
    except Exception:
        # a failure to read a line comes after every line read before it
        _add_lines(cols, chunk, first, source)
        raise
    _add_lines(cols, chunk, first, source)
    return Dataset._from_columns(cols.columns(), source if label is None else label)


def _add_lines(cols: _Columns, lines: list[str | bytes], first: int, source: str) -> int:
    """Append the records of lines, numbered from first; the number of the
    line after them. The lines are decoded by _plain and added by columns or,
    where either refuses them, read one line at a time."""
    decoded = _plain(lines)
    if decoded is None or not cols.add(*decoded):
        _parse_lines(cols, lines, first, source)
    return first + len(lines)


def _plain(lines: list[str | bytes]) -> tuple[list, str] | None:
    """The object of each non-blank line, decoded on its own with no hook, and
    the text they were decoded from; None if a line is not one JSON value in
    UTF-8 or a string holds a lone surrogate, which _parse_line reports."""
    objs, texts = [], []
    try:
        for line in lines:
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            try:
                obj, end = _SCAN_PLAIN(line, 0)
            except StopIteration:  # a leading space, or a blank line
                line = line.lstrip(_JSON_SPACE)
                if not line.strip():
                    continue
                obj, end = _SCAN_PLAIN(line, 0)
            if line[end:].strip(_JSON_SPACE):
                return None
            objs.append(obj)
            texts.append(line)
        text = "".join(texts)
        _check_surrogates(objs, text)
    except (StopIteration, ValueError, RecursionError):  # a UnicodeError is a ValueError
        return None
    return objs, text


def _parse_lines(cols: _Columns, lines: list[str | bytes], first: int, source: str) -> None:
    """Append the records of lines, numbered from first, each line checked on
    its own by _parse_line; a DataError names the first bad line."""
    rows, linenos, error = [], [], None
    for lineno, line in enumerate(lines, start=first):
        try:
            row = _parse_line(line)
        except DataError as exc:
            error = DataError(f"{source}: {exc} at line {lineno}")
            break
        if row is not None:
            rows.append(row)
            linenos.append(lineno)
    # a repeated id comes before the bad line, if any
    _add_rows(cols, rows, lambda message, at: f"{source}: {message} at line {linenos[at]}")
    if error is not None:
        raise error


def load_jsonl(path: str, label: str | None = None) -> Dataset:
    try:
        with open(path, "rb") as fh:
            return read_jsonl(fh, source=path, label=label)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


# records rendered per .tolist() and write, so output memory does not grow with n
_DUMP_CHUNK = 256


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
