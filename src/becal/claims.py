"""Claim markup parsing and claim-confidence aggregation.

Claims are encapsulated inline as

    <claim confidence="0.85" rationale="...">claim text</claim>

Tags must not nest. Offsets reported in errors and stored in spans are 0-based
byte offsets into the UTF-8 encoding of the text. Attributes other than
confidence and rationale are ignored; entities are not decoded.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .errors import DataError
from .model import ClaimRecord, Dataset

_ATTR_RE = re.compile(rb'([A-Za-z_][A-Za-z0-9_-]*)\s*=\s*(?:"([^"]*)"|\'([^\']*)\')')
_OPEN = b"<claim"
# an open tag needs a boundary after its name, so "<claims>" is plain text
_TAG_RE = re.compile(rb"<claim(?=[\s>]|\Z)|</claim>")


@dataclass(frozen=True)
class ClaimMarkupDoc:
    """Parsed claim-annotated text: the raw string plus ordered claim spans.

    Each span is (start, end) in bytes covering the whole element, open tag
    through closing tag.
    """

    raw: str
    spans: tuple[tuple[int, int, ClaimRecord], ...]

    @property
    def claims(self) -> tuple[ClaimRecord, ...]:
        return tuple(rec for _, _, rec in self.spans)

    def confidences(self) -> list[float]:
        return [rec.confidence for rec in self.claims]


def _parse_open_tag(data: bytes, start: int) -> tuple[ClaimRecord, int]:
    """Parse one open tag at byte offset start; returns (stub record, content start)."""
    gt = data.find(b">", start)
    if gt < 0:
        raise DataError(f"unclosed claim tag at offset {start}")
    head = data[start + len(_OPEN):gt]
    if head.endswith(b"/"):
        raise DataError(f"malformed claim tag at offset {start} (self-closing not allowed)")
    attrs: dict[bytes, bytes] = {}
    for m in _ATTR_RE.finditer(head):
        value = m.group(2) if m.group(2) is not None else m.group(3)
        attrs[m.group(1)] = value
    if b"confidence" not in attrs:
        raise DataError(f"claim confidence missing at offset {start}")
    raw_conf = attrs[b"confidence"].decode("utf-8", errors="replace")
    try:
        conf = float(raw_conf)
    except ValueError:
        raise DataError(f"claim confidence not numeric at offset {start}: {raw_conf!r}") from None
    rationale = None
    if b"rationale" in attrs:
        rationale = attrs[b"rationale"].decode("utf-8", errors="replace")
    try:
        stub = ClaimRecord(text="", confidence=conf, rationale=rationale)
    except DataError as exc:
        raise DataError(f"{exc} at offset {start}: {raw_conf}") from None
    return stub, gt + 1


def parse_claims(text: str) -> ClaimMarkupDoc:
    """Extract every claim element from text, preserving document order.

    Raises DataError on nested tags, unclosed tags, stray closing tags, and
    malformed or out-of-range confidence attributes; every message names the
    byte offset of the offending tag. Text holding a lone surrogate has no
    UTF-8 form and is a DataError too.
    """
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DataError(f"lone surrogate at character {exc.start}") from None
    spans: list[tuple[int, int, ClaimRecord]] = []
    open_at = -1  # byte offset of the currently open tag, -1 when outside
    content_start = 0
    for tag in _TAG_RE.finditer(data):
        at = tag.start()
        if at < content_start:  # inside the open tag parsed last
            continue
        if tag.group() == _OPEN:
            if open_at >= 0:
                raise DataError(f"nested claim at offset {at}")
            open_at = at
            stub, content_start = _parse_open_tag(data, at)
        elif open_at < 0:
            raise DataError(f"unmatched closing claim tag at offset {at}")
        else:
            content = data[content_start:at].decode("utf-8")
            spans.append((open_at, tag.end(), replace(stub, text=content)))
            open_at = -1
    if open_at >= 0:
        raise DataError(f"unclosed claim tag at offset {open_at}")
    return ClaimMarkupDoc(raw=text, spans=tuple(spans))


def _checked(confidences: Iterable[float]) -> list[float]:
    values = [ClaimRecord("", c).confidence for c in confidences]  # a claim's checks
    if not values:
        raise DataError("cannot aggregate an empty claim list")
    return values


def aggregate_product(claim_confidences: Iterable[float]) -> float:
    """Product of claim confidences: response confidence under independence."""
    return float(math.prod(_checked(claim_confidences)))


def aggregate_min(claim_confidences: Iterable[float]) -> float:
    """Minimum claim confidence: the weakest step bounds the response."""
    return float(min(_checked(claim_confidences)))


# reduceat folds each record's claims left to right, as math.prod and min do,
# and gives the same bits (tests/test_claims.py); claim confidences were
# range-checked, and -0.0 made 0.0, at ingest
_AGGREGATORS = {"product": np.multiply, "min": np.minimum}


def apply_aggregation(dataset: Dataset, kind: str) -> Dataset:
    """Replace each record's response confidence with an aggregate of its claims.

    kind is "product" or "min". Records without claims are an error: a record
    with no claims has no defined aggregate confidence.
    """
    if kind not in _AGGREGATORS:
        raise DataError(f"unknown aggregation {kind!r}, expected one of {sorted(_AGGREGATORS)}")
    starts = dataset.claim_offsets[:-1]
    empty = dataset.claim_offsets[1:] == starts
    if empty.any():
        raise DataError(f"record {dataset.ids[int(np.argmax(empty))]!r}: "
                        f"cannot aggregate an empty claim list")
    confidence = _AGGREGATORS[kind].reduceat(dataset.claim_confidence, starts)
    return Dataset._from_columns({**dataset.columns(), "confidence": confidence},
                                 dataset.label)
