"""Memory bounds, measured in process with tracemalloc so they repeat exactly.

tracemalloc counts every Python and numpy allocation, not the interpreter's
own footprint, so each bound is about what becal itself holds.
"""

import gc
import io
import json
import random
import tracemalloc

import pytest

from becal.cli import main
from becal.model import dump_jsonl, read_jsonl
from becal.simulate import (AgentSpec, IdentityReport, UniformDifficulty, generate,
                            generate_ensemble)
from becal.tts import STRATEGIES, scaling_curves

from conftest import grid_groups

N = 20_000

# Measured at 94 bytes per record (flat simulated records, 95 bytes per JSONL
# line): about 24 bytes of id and difficulty text in two buffers, an 8-byte
# offset into each, an 8-byte meta key reference and 42 bytes of number, flag,
# code and offset columns. A Python str, float, bool or dict per record would
# add at least 24 bytes each, which the 20 % margin does not absorb.
HELD_BYTES_PER_RECORD = 112


def _traced(fn):
    """fn()'s result, the bytes it still holds when it returns, and its peak."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def test_ingest_holds_no_object_per_field():
    buf = io.StringIO()
    dump_jsonl(generate(AgentSpec(UniformDifficulty(), IdentityReport(),
                                  n_questions=N, seed=1)), buf)
    lines = buf.getvalue().encode("utf-8").splitlines(keepends=True)
    del buf
    ds, held, _ = _traced(lambda: read_jsonl(lines))
    assert len(ds) == N
    assert held / N <= HELD_BYTES_PER_RECORD


# What ingest holds only while it runs (tracemalloc peak - held), measured on
# eight-claim chains: 0.60 MB at 2,000 records, most of it one 64 KiB chunk's
# decoded objects, and then 136 bytes more per record for the set of ids seen,
# which finds a duplicate (a str per id and its share of the set's table).
# With every claim text starting with a \u2019 and an emoji's surrogate-pair
# escape, as json.dumps writes them: 0.63 MB and 119 bytes. A chunk twice as
# large (1.22 MB), or the lone-surrogate check encoding a chunk's objects at
# once (1.12 MB), would break the first bound.
CHUNK_TRANSIENT_BYTES = 800_000
SEEN_ID_BYTES_PER_RECORD = 160


def test_ingest_transient_is_one_chunk_and_the_id_set():
    def transient(n: int, escape: bytes) -> int:
        buf = io.StringIO()
        dump_jsonl(generate(AgentSpec(UniformDifficulty(), IdentityReport(), n_questions=n,
                                      n_claims=8, seed=1)), buf)
        lines = buf.getvalue().encode("utf-8").replace(b'"text":"', b'"text":"' + escape)
        del buf
        lines = lines.splitlines(keepends=True)
        _, held, peak = _traced(lambda: read_jsonl(lines))
        return peak - held

    for escape in (b"", b"\\u2019\\ud83d\\ude00"):
        small, large = transient(2_000, escape), transient(20_000, escape)
        assert small <= CHUNK_TRANSIENT_BYTES, escape
        assert large - small <= 18_000 * SEEN_ID_BYTES_PER_RECORD, escape


def test_claim_text_is_held_as_its_bytes():
    """Claims with distinct texts, so interning cannot help: each holds its
    UTF-8 bytes, an offset, a confidence and a label, and no str object
    (which alone is 49 bytes or more)."""
    n, k = 2_000, 8

    def lines(claims: bool) -> list[bytes]:
        return [json.dumps({"id": f"r{i}", "valid": True, "confidence": 0.5, **({"claims": [
            {"text": f"record {i} \u00e9tape {j}", "confidence": 0.5, "valid": j > 0}
            for j in range(k)]} if claims else {})}).encode("utf-8") for i in range(n)]

    chains, flat = lines(True), lines(False)
    text_bytes = sum(len(f"record {i} \u00e9tape {j}".encode("utf-8"))
                     for i in range(n) for j in range(k))
    ds, held, _ = _traced(lambda: read_jsonl(chains))
    base, held_flat, _ = _traced(lambda: read_jsonl(flat))
    assert len(ds.claim_text) == n * k and len(base) == n
    assert (held - held_flat) / (n * k) <= text_bytes / (n * k) + 24


def test_simulate_streams_its_output(tmp_path):
    """simulate holds the dataset's columns but never the text it writes:
    its peak stays below the size of the file (measured at 0.65 of it; a
    whole-file buffer makes it several times the file)."""
    out = tmp_path / "chain.jsonl"
    argv = ["simulate", "--n", str(N), "--n-claims", "4", "--seed", "1", "--out", str(out)]
    assert main(argv) == 0  # warm: first-call caches are not the command's
    rc, _, peak = _traced(lambda: main(argv))
    assert rc == 0
    assert peak < out.stat().st_size


@pytest.mark.parametrize("lines", [
    ['{"id":"a","valid":true,"meta":{"z":"1","a":"2"},"step":3}',
     '{"id":"b","valid":false}',
     '{"id":"c","valid":true,"model":"m"}'],
    [],
])
def test_meta_column_gives_a_dict_per_record(lines):
    ds = read_jsonl(lines)
    assert list(ds.meta) == [r.meta for r in ds.records]
    assert len(ds.meta) == len(ds)
    if lines:
        assert ds.meta[0] == {"z": "1", "a": "2", "step": "3"}
        assert ds.meta[1] == {} and ds.meta[-1] == {"model": "m"}
    with pytest.raises(IndexError):
        ds.meta[len(ds)]


def test_generated_meta_renders_the_difficulty_column():
    spec = AgentSpec(UniformDifficulty(), IdentityReport(), n_questions=5, seed=4)
    ds = generate(spec)
    assert [m["q"] for m in ds.meta] == [repr(x) for x in ds.confidence.tolist()]


def test_generators_hold_nothing_for_fields_they_lack():
    """A flat record has no group, answer or claims and an ensemble sample no
    claims or meta: those columns are zero-stride, whatever n is."""
    flat = generate(AgentSpec(UniformDifficulty(), IdentityReport(), n_questions=N, seed=1))
    ensemble = generate_ensemble(20, 8, seed=1)
    for column in (flat.group, flat.answer, flat.claim_offsets, flat.claim_rationale.missing,
                   ensemble.claim_offsets, ensemble.meta.offsets):
        assert column.strides == (0,)
    assert (flat.group == -1).all() and not ensemble.claim_offsets.any()
    assert not flat.claim_offsets.any() and len(flat.claim_confidence) == 0


# scaling_curves builds the vote tables of one batch of groups (_BATCH_STATES
# states), scores them for every vote rule and drops them before it builds the
# next batch, so what it holds while it runs is one batch's arrays, which peak
# near 1.6 MB at max k = 16, however many groups there are. Measured on
# bench-like groups (16 samples on the 0.05 grid, about 170 states each):
# 2.02 MB at 200 groups, 2.18 MB at 800. Keeping every table for the second
# rule would hold 48 bytes per state, about 4.9 MB more at 800 groups.
BATCH_BYTES = 1_600_000


def test_tts_transient_is_one_batch():
    def transient(n_groups: int) -> int:
        groups = grid_groups(random.Random(1), n_groups, 16)
        _, held, peak = _traced(lambda: scaling_curves(groups, STRATEGIES, [1, 2, 4, 8, 16],
                                                       6, seed=1))
        return peak - held

    small, large = transient(200), transient(800)
    assert large - small < BATCH_BYTES
