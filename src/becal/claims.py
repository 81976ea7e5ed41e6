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

from .errors import DataError
from .model import ClaimRecord, Dataset, _check_unit

_ATTR_RE = re.compile(rb'([A-Za-z_][A-Za-z0-9_-]*)\s*=\s*(?:"([^"]*)"|\'([^\']*)\')')
_OPEN = b"<claim"
_CLOSE = b"</claim>"


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
    byte offset of the offending tag.
    """
    data = text.encode("utf-8")
    spans: list[tuple[int, int, ClaimRecord]] = []
    pos = 0
    open_at = -1  # byte offset of the currently open tag, -1 when outside
    stub: ClaimRecord | None = None
    content_start = 0
    while True:
        nxt_open = data.find(_OPEN, pos)
        # require a tag boundary so e.g. "<claims>" is plain text
        while nxt_open >= 0:
            after = data[nxt_open + len(_OPEN):nxt_open + len(_OPEN) + 1]
            if after == b"" or after in (b">",) or after.isspace():
                break
            nxt_open = data.find(_OPEN, nxt_open + 1)
        nxt_close = data.find(_CLOSE, pos)
        if nxt_open < 0 and nxt_close < 0:
            break
        if nxt_open >= 0 and (nxt_close < 0 or nxt_open < nxt_close):
            if open_at >= 0:
                raise DataError(f"nested claim at offset {nxt_open}")
            open_at = nxt_open
            stub, content_start = _parse_open_tag(data, nxt_open)
            pos = content_start
        else:
            if open_at < 0:
                raise DataError(f"unmatched closing claim tag at offset {nxt_close}")
            content = data[content_start:nxt_close].decode("utf-8")
            assert stub is not None
            spans.append((open_at, nxt_close + len(_CLOSE), replace(stub, text=content)))
            open_at = -1
            stub = None
            pos = nxt_close + len(_CLOSE)
    if open_at >= 0:
        raise DataError(f"unclosed claim tag at offset {open_at}")
    return ClaimMarkupDoc(raw=text, spans=tuple(spans))


def _checked(confidences: Iterable[float]) -> list[float]:
    values = [_check_unit("claim confidence", c) for c in confidences]
    if not values:
        raise DataError("cannot aggregate an empty claim list")
    return values


def aggregate_product(claim_confidences: Iterable[float]) -> float:
    """Product of claim confidences: response confidence under independence."""
    return float(math.prod(_checked(claim_confidences)))


def aggregate_min(claim_confidences: Iterable[float]) -> float:
    """Minimum claim confidence: the weakest step bounds the response."""
    return float(min(_checked(claim_confidences)))


# claim confidences inside records were range-checked by ClaimRecord
_AGGREGATORS = {"product": math.prod, "min": min}


def apply_aggregation(dataset: Dataset, kind: str) -> Dataset:
    """Replace each record's response confidence with an aggregate of its claims.

    kind is "product" or "min". Records without claims are an error: a record
    with no claims has no defined aggregate confidence.
    """
    if kind not in _AGGREGATORS:
        raise DataError(f"unknown aggregation {kind!r}, expected one of {sorted(_AGGREGATORS)}")
    agg = _AGGREGATORS[kind]
    out = []
    for rec in dataset.records:
        if not rec.claims:
            raise DataError(f"record {rec.id!r}: cannot aggregate an empty claim list")
        out.append(replace(rec, confidence=float(agg([c.confidence for c in rec.claims]))))
    return Dataset(records=tuple(out), label=dataset.label)
