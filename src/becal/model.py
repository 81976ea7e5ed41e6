"""Core data model: prediction records, datasets, JSONL ingestion and validation.

The JSONL schema is one JSON object per line with fields

    id          non-empty string, unique within a dataset
    valid       boolean, ground-truth correctness of the final answer
    confidence  optional number in [0, 1], response-level stated confidence
    group       optional string, question key grouping samples of one prompt
    answer      optional string, canonical answer (needed for majority voting)
    claims      optional array of {text, confidence, valid?, rationale?}
    meta        optional object with string values

Unknown top-level fields are routed into meta (non-strings JSON-encoded);
confidences are validated strictly to [0, 1] with no clamping at ingest. A key
repeated within any object and a string holding a lone surrogate are rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import DataError

_KNOWN_FIELDS = ("id", "group", "valid", "confidence", "answer", "claims", "meta")
_CLAIM_FIELDS = ("text", "confidence", "valid", "rationale")
_NUMBERS = (int, float, np.integer, np.floating)  # np.float32 is no float subclass


def _check_number(name: str, value: object) -> None:
    # JSON true/false would pass as the integers 1 and 0
    if isinstance(value, bool) or not isinstance(value, _NUMBERS):
        raise DataError(f"{name} must be numeric")


def _check_unit(name: str, value: float) -> float:
    """value as a float, or DataError unless 0 <= value <= 1.

    The comparison runs before any conversion, so it alone rejects NaN,
    infinities and integers too large for a float.
    """
    if not 0.0 <= value <= 1.0:
        raise DataError(f"{name} out of range")
    return float(value)


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
        object.__setattr__(self, "confidence",
                           _check_unit("claim confidence", self.confidence))


@dataclass(frozen=True)
class PredictionRecord:
    """One model response with its correctness label and stated confidence.

    Checks the types of id, valid, confidence, group and answer; stores a numpy bool as bool.
    """

    id: str
    valid: bool
    confidence: float | None = None
    group: str | None = None
    answer: str | None = None
    claims: tuple[ClaimRecord, ...] = ()
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.valid, bool):
            if not isinstance(self.valid, np.bool_):
                raise DataError("missing required field valid" if self.valid is None
                                else "valid must be boolean")
            object.__setattr__(self, "valid", bool(self.valid))
        if self.group is not None and not isinstance(self.group, str):
            raise DataError("group must be a string")
        if self.answer is not None and not isinstance(self.answer, str):
            raise DataError("answer must be a string")
        if not isinstance(self.id, str) or not self.id:
            raise DataError("record id must be a non-empty string")
        if self.confidence is not None:
            _check_number("confidence", self.confidence)
            object.__setattr__(self, "confidence", _check_unit(
                f"record {self.id!r}: confidence", self.confidence))
        object.__setattr__(self, "claims", tuple(self.claims))


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of prediction records; safe to share across workers."""

    records: tuple[PredictionRecord, ...]
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        seen: set[str] = set()
        for rec in self.records:
            if rec.id in seen:
                raise DataError(f"duplicate id {rec.id!r}")
            seen.add(rec.id)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[PredictionRecord]:
        return iter(self.records)

    def require_nonempty(self) -> None:
        if not self.records:
            raise DataError("dataset is empty, nothing to compute")

    def confidences(self) -> np.ndarray:
        """Response-level confidences as a float array.

        Rejects the dataset if any record lacks a confidence; claim-only
        records must go through aggregation first.
        """
        self.require_nonempty()
        for rec in self.records:
            if rec.confidence is None:
                raise DataError(
                    f"record {rec.id!r} has no response-level confidence")
        return np.array([rec.confidence for rec in self.records], dtype=float)

    def valids(self) -> np.ndarray:
        self.require_nonempty()
        return np.array([rec.valid for rec in self.records], dtype=bool)


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


def _parse_claim(obj: object) -> ClaimRecord:
    if not isinstance(obj, dict):
        raise DataError("claim must be an object")
    for key in obj:
        if key not in _CLAIM_FIELDS:
            raise DataError(f"unknown claim field {key!r}")
    text = obj.get("text")
    if not isinstance(text, str):
        raise DataError("claim text missing or not a string")
    conf = obj.get("confidence")
    _check_number("claim confidence", conf)
    valid = obj.get("valid")
    if valid is not None and not isinstance(valid, bool):
        raise DataError("claim valid must be boolean")
    rationale = obj.get("rationale")
    if rationale is not None and not isinstance(rationale, str):
        raise DataError("claim rationale must be a string")
    return ClaimRecord(text=text, confidence=conf, valid=valid, rationale=rationale)


def _parse_record(obj: object) -> PredictionRecord:
    """JSON-shape checks of claims and meta; PredictionRecord checks its own fields."""
    if not isinstance(obj, dict):
        raise DataError("expected a JSON object")
    raw_claims = obj.get("claims", [])
    if raw_claims is None:
        raw_claims = []
    if not isinstance(raw_claims, list):
        raise DataError("claims must be an array")
    claims = tuple(_parse_claim(c) for c in raw_claims)

    meta_obj = obj.get("meta", {})
    if meta_obj is None:
        meta_obj = {}
    if not isinstance(meta_obj, dict):
        raise DataError("meta must be an object")
    meta: dict[str, str] = {}
    for key, value in meta_obj.items():
        if not isinstance(value, str):
            raise DataError(f"meta values must be strings (key {key!r})")
        meta[str(key)] = value
    # unknown top-level fields are preserved, not dropped
    for key, value in obj.items():
        if key in _KNOWN_FIELDS:
            continue
        if key in meta:
            raise DataError(f"field {key!r} collides with a meta key")
        meta[key] = value if isinstance(value, str) else json.dumps(
            value, sort_keys=True, separators=(",", ":"))

    return PredictionRecord(id=obj.get("id"), valid=obj.get("valid"),
                            confidence=obj.get("confidence"), group=obj.get("group"),
                            answer=obj.get("answer"), claims=claims, meta=meta)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise DataError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


# built once: a decoder per line would add about a tenth to the decode time
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _parse_line(line: str | bytes) -> PredictionRecord | None:
    """One JSONL line as a record, None when blank; every failure is a DataError."""
    try:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        if not line.strip():
            return None
        obj = _DECODER.decode(line)
        if "\\u" in line:
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
    return _parse_record(obj)


def read_jsonl(lines: Iterable[str | bytes], source: str = "<stream>",
               label: str | None = None) -> Dataset:
    """Parse an iterable of JSONL lines into a Dataset.

    Blank lines are skipped; every non-blank line must parse to a record or a
    DataError naming the source and the line is raised. Never silently drops
    a record.
    """
    records: list[PredictionRecord] = []
    ids: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        try:
            rec = _parse_line(line)
            if rec is None:
                continue
            if rec.id in ids:
                raise DataError(f"duplicate id {rec.id!r}")
        except DataError as exc:
            raise DataError(f"{source}: {exc} at line {lineno}") from None
        ids.add(rec.id)
        records.append(rec)
    return Dataset(records=tuple(records), label=source if label is None else label)


def load_jsonl(path: str, label: str | None = None) -> Dataset:
    try:
        with open(path, "rb") as fh:
            return read_jsonl(fh, source=path, label=label)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def record_to_obj(rec: PredictionRecord) -> dict:
    """Serialize one record to a plain dict with a fixed key order."""
    obj: dict = {"id": rec.id}
    if rec.group is not None:
        obj["group"] = rec.group
    obj["valid"] = rec.valid
    if rec.confidence is not None:
        obj["confidence"] = rec.confidence
    if rec.answer is not None:
        obj["answer"] = rec.answer
    if rec.claims:
        obj["claims"] = []
        for c in rec.claims:
            cobj: dict = {"text": c.text, "confidence": c.confidence}
            if c.valid is not None:
                cobj["valid"] = c.valid
            if c.rationale is not None:
                cobj["rationale"] = c.rationale
            obj["claims"].append(cobj)
    if rec.meta:
        obj["meta"] = dict(sorted(rec.meta.items()))
    return obj


def dump_jsonl(dataset: Dataset, fh: IO[str]) -> None:
    """Write one compact JSON object per record. Round-trips through read_jsonl."""
    for rec in dataset.records:
        fh.write(json.dumps(record_to_obj(rec), separators=(",", ":"), ensure_ascii=False))
        fh.write("\n")


def validate(dataset: Dataset) -> ValidationSummary:
    """Pure inspection: counts plus warnings, never raises on content.

    Warnings cover records without response-level confidence, groups of size
    one, and records with unlabeled claims; an empty dataset is fatal-level.
    """
    warnings: list[tuple[str, str]] = []
    if not dataset.records:
        warnings.append(("fatal", "dataset is empty: no metrics can be computed"))
    n_claims = 0
    n_labeled = 0
    group_sizes: dict[str, int] = {}
    for rec in dataset.records:
        if rec.confidence is None:
            warnings.append(("warning", f"record {rec.id!r}: no response-level confidence"))
        labeled = sum(1 for c in rec.claims if c.valid is not None)
        n_claims += len(rec.claims)
        n_labeled += labeled
        if rec.claims and labeled < len(rec.claims):
            warnings.append((
                "warning",
                f"record {rec.id!r}: {len(rec.claims) - labeled} of {len(rec.claims)} "
                f"claims unlabeled"))
        if rec.group is not None:
            group_sizes[rec.group] = group_sizes.get(rec.group, 0) + 1
    for name in sorted(g for g, size in group_sizes.items() if size == 1):
        warnings.append(("warning", f"group {name!r}: only one sample"))
    return ValidationSummary(
        n_records=len(dataset.records),
        n_claims=n_claims,
        n_labeled_claims=n_labeled,
        n_groups=len(group_sizes),
        warnings=tuple(warnings),
    )
