import numpy as np

from becal.model import ClaimRecord, Dataset, PredictionRecord
from becal.tts import group_records


def make_dataset(pairs, label="test") -> Dataset:
    """Dataset from (confidence, valid) pairs; ids r0, r1, ..."""
    records = tuple(
        PredictionRecord(id=f"r{i}", valid=bool(v), confidence=float(p))
        for i, (p, v) in enumerate(pairs)
    )
    return Dataset(records=records, label=label)


def make_grouped(rows, label="test") -> Dataset:
    """Dataset from (group, answer, confidence, valid) rows."""
    records = tuple(
        PredictionRecord(id=f"r{i}", group=g, answer=a,
                         confidence=None if c is None else float(c),
                         valid=bool(v))
        for i, (g, a, c, v) in enumerate(rows)
    )
    return Dataset(records=records, label=label)


def grid_groups(rng, n_groups, size):
    """Random groups with confidences on a 0.05 grid, as verbalized ones are."""
    return group_records(make_grouped(
        (f"g{g}", answer, rng.randint(1, 19) / 20, answer == "A")
        for g in range(n_groups)
        for answer in (rng.choice("AABCD") for _ in range(size))))


def make_claims(confidences) -> tuple[ClaimRecord, ...]:
    return tuple(ClaimRecord(text=f"c{i}", confidence=float(p))
                 for i, p in enumerate(confidences))


def random_dataset(rng: np.random.Generator, n: int, quantize: int | None = None,
                   calibrated: bool = False) -> Dataset:
    """Random dataset with both classes present; quantize forces ties."""
    while True:
        p = rng.random(n)
        if quantize:
            p = np.round(p * quantize) / quantize
        v = rng.random(n) < (p if calibrated else 0.5)
        if v.any() and not v.all():
            return make_dataset(zip(p, v))


def assert_same_columns(a: Dataset, b: Dataset) -> None:
    """Every column of a equals b's: arrays by dtype and value, the rest by ==."""
    for name, column in a.columns().items():
        other = b.columns()[name]
        if isinstance(column, np.ndarray):
            assert column.dtype == other.dtype, name
            assert np.array_equal(column, other, equal_nan=True), name
        else:
            assert list(column) == list(other), name
