"""KPI profiles: per-(time-of-day slot, TA) mean and standard deviation of
interval request counts, learned from adversary-free traffic.

Profiles are dense (slots x TA bins) tables in memory and sparse non-zero
rows on disk, behind a one-line metadata header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .config import MAX_TABLE_BYTES
from .core import ROWS_PER_WRITE, SECONDS_PER_DAY, Trace, cell_keys, distinct_texts, slots_per_day


def count_per_interval(
    trace: Trace,
    interval_seconds: int,
    max_ta: int,
    days: int,
) -> np.ndarray:
    """Exact histogram of request counts per (day, slot-of-day, TA).

    Returns an array of shape (days, slots_per_day, max_ta + 1) in the
    smallest signed integer dtype that holds its largest count (int8 for up
    to 127 requests a cell), so the difference of two counts never wraps;
    the sum over the whole table equals the trace length.
    """
    cells, counts = np.unique(cell_keys(trace.time_s, trace.ta, interval_seconds, max_ta, days), return_counts=True)
    shape = (days, slots_per_day(interval_seconds), max_ta + 1)
    # the smallest signed dtype that holds -max - 1 also holds max
    table = np.zeros(math.prod(shape), np.min_scalar_type(-int(counts.max(initial=0)) - 1))
    table[cells] = counts
    return table.reshape(shape)


@dataclass
class CountAccumulator:
    """Streaming per-cell moments over day samples (Welford's update).

    After k days the cell mean equals the sample mean and m2 the sum of
    squared deviations, matching a two-pass computation to rounding error.
    """

    shape: tuple[int, ...]
    days_seen: int = 0
    mean: np.ndarray = field(init=False)
    m2: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.mean = np.zeros(self.shape, dtype=float)
        self.m2 = np.zeros(self.shape, dtype=float)

    def add_day(self, day_counts: np.ndarray) -> None:
        day_counts = np.asarray(day_counts, dtype=float)
        if day_counts.shape != self.shape:
            raise ValueError(f"expected day table of shape {self.shape}, got {day_counts.shape}")
        self.days_seen += 1
        delta = day_counts - self.mean
        self.mean += delta / self.days_seen
        self.m2 += delta * (day_counts - self.mean)

    def std(self) -> np.ndarray:
        """Sample standard deviation (denominator n-1); zero below two days."""
        if self.days_seen < 2:
            return np.zeros(self.shape, dtype=float)
        return np.sqrt(self.m2 / (self.days_seen - 1))


def _check_metadata(interval_seconds: int, max_ta: int, training_days: int) -> int:
    """The number of slots per day of a profile with this metadata; ValueError if it is invalid or too large."""
    if max_ta < 0:
        raise ValueError(f"max_ta must be non-negative, got {max_ta!r}")
    if training_days < 1:
        raise ValueError(f"training_days must be at least 1, got {training_days!r}")
    n_slots = slots_per_day(interval_seconds)
    if 8 * n_slots * (max_ta + 1) > MAX_TABLE_BYTES:
        raise ValueError(f"a {n_slots} x {max_ta + 1} float profile table passes the {MAX_TABLE_BYTES / 2**30:g} GiB cap")
    return n_slots


@dataclass(frozen=True, eq=False)
class KpiProfile:
    """Long-term per-(slot-of-day, TA) count statistics from clean traffic.

    Both tables are shaped (slots_per_day, max_ta + 1), fit in
    ``MAX_TABLE_BYTES`` and hold finite, non-negative values; ``max_ta`` is
    at least 0 and ``training_days`` at least 1.
    """

    interval_seconds: int
    max_ta: int
    training_days: int
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        shape = (_check_metadata(self.interval_seconds, self.max_ta, self.training_days), self.max_ta + 1)
        # read-only copies, so the caller's arrays cannot change the checked tables
        for name in ("mean", "std"):
            table = np.array(getattr(self, name))
            table.setflags(write=False)
            object.__setattr__(self, name, table)
        if self.mean.shape != shape or self.std.shape != shape:
            raise ValueError(
                f"profile tables must have shape {shape}, got {self.mean.shape} and {self.std.shape}"
            )
        valid = np.isfinite(self.mean) & np.isfinite(self.std) & (self.mean >= 0) & (self.std >= 0)
        if not valid.all():
            slot, ta = np.argwhere(~valid)[0].tolist()
            raise ValueError(f"profile cell ({slot}, {ta}): mean and std must be finite and non-negative")

    @property
    def n_slots(self) -> int:
        return slots_per_day(self.interval_seconds)


def train(day_counts: np.ndarray) -> KpiProfile:
    """Fold per-day count tables into a profile.

    ``day_counts`` must be shaped (training_days, slots_per_day, max_ta + 1)
    and come from adversary-free traffic. With a single day all standard
    deviations are zero.
    """
    day_counts = np.asarray(day_counts)
    if day_counts.ndim != 3:
        raise ValueError("day_counts must be a (days, slots, ta) array")
    days, n_slots, n_ta = day_counts.shape
    if days < 1:
        raise ValueError("training requires at least one day of counts")
    if n_slots < 1 or SECONDS_PER_DAY % n_slots != 0:
        raise ValueError(f"slot axis of length {n_slots} does not divide the day")
    # Only the cells with a count on some day are folded. The fold keeps any
    # other cell at exactly 0.0, so the zeroed tables below are bit-identical
    # to a fold over every cell. Each day's cells are gathered on their own,
    # which keeps a (days, cells) copy of the count table from ever existing.
    flat = day_counts.reshape(days, -1)
    cells = np.flatnonzero(flat.any(axis=0))
    accumulator = CountAccumulator((cells.size,))
    for d in range(days):
        accumulator.add_day(flat[d, cells])
    mean, std = np.zeros((n_slots, n_ta)), np.zeros((n_slots, n_ta))
    np.put(mean, cells, accumulator.mean)
    np.put(std, cells, accumulator.std())
    return KpiProfile(
        interval_seconds=SECONDS_PER_DAY // n_slots,
        max_ta=n_ta - 1,
        training_days=days,
        mean=mean,
        std=std,
    )


def save_profile(profile: KpiProfile, path) -> None:
    """Write a profile as CSV: metadata comment, header, non-zero cells only.

    Each column's distinct values are formatted once, and the rows are
    joined and written ``ROWS_PER_WRITE`` at a time.
    """
    slots, tas = np.nonzero((profile.mean != 0.0) | (profile.std != 0.0))
    columns = (slots, tas, profile.mean[slots, tas], profile.std[slots, tas])
    fields = [distinct_texts(column, prefix) for column, prefix in zip(columns, ("", ",", ",", ","))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            f"#interval_seconds={profile.interval_seconds},"
            f"max_ta={profile.max_ta},training_days={profile.training_days}\n"
            "slot,ta,mean,std\n"
        )
        for start in range(0, slots.size, ROWS_PER_WRITE):
            block = slice(start, start + ROWS_PER_WRITE)
            texts = (field_texts[index[block]].tolist() for field_texts, index in fields)
            fh.write("".join(chain.from_iterable(zip(*texts, repeat("\n")))))


def load_profile(path) -> KpiProfile:
    """Read a profile CSV back into dense tables; absent cells are zero."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8 ({exc})") from exc
    # read_text turns "\r\n" and "\r" into "\n"; str.splitlines would also break at
    # U+2028, U+0085 and the like and so misnumber every row after one
    lines = text.split("\n")
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path}: missing metadata line")
    meta: dict[str, int] = {}
    keys = ("interval_seconds", "max_ta", "training_days")
    for part in lines[0][1:].split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        if not value:
            raise ValueError(f"{path}: malformed metadata entry {part!r}")
        if key not in keys or key in meta:
            raise ValueError(f"{path}: {'repeated' if key in meta else 'unknown'} metadata key {key!r}")
        try:
            meta[key] = int(value)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed metadata entry {part!r}") from exc
    missing = set(keys) - set(meta)
    if missing:
        raise ValueError(f"{path}: metadata missing {sorted(missing)}")
    if len(lines) < 2 or lines[1] != "slot,ta,mean,std":
        raise ValueError(f"{path}: missing or bad header line")

    interval_seconds, max_ta = meta["interval_seconds"], meta["max_ta"]
    try:
        n_slots = _check_metadata(interval_seconds, max_ta, meta["training_days"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    mean = np.zeros((n_slots, max_ta + 1), dtype=float)
    std = np.zeros((n_slots, max_ta + 1), dtype=float)
    if not _read_columns(lines[2:], mean, std):
        _read_rows(path, lines, mean, std)
    del text, lines  # freed before KpiProfile copies the tables, which lowers the peak
    return KpiProfile(
        interval_seconds=interval_seconds,
        max_ta=max_ta,
        training_days=meta["training_days"],
        mean=mean,
        std=std,
    )


def _read_columns(lines: list[str], mean: np.ndarray, std: np.ndarray) -> bool:
    """Fill ``mean`` and ``std`` from the rows of ``lines`` by column and
    return True; return False, filling nothing, when a row would fail a
    check of :func:`_read_rows` or the rows are not in ascending cell order.

    The non-blank lines are joined and split on commas ``ROWS_PER_WRITE``
    at a time. Each holds exactly three commas, so its fields are the
    substrings ``line.split(",")`` gives, and ``int`` and ``float`` read
    them as the line loop does, each distinct text once. Strictly ascending
    cells rule out duplicates.
    """
    kept = list(filter(str.strip, lines))
    n = len(kept)
    columns = (np.empty(n, np.int64), np.empty(n, np.int64), np.empty(n), np.empty(n))
    for start in range(0, n, ROWS_PER_WRITE):
        block = kept[start : start + ROWS_PER_WRITE]
        if list(map(str.count, block, repeat(","))).count(3) != len(block):
            return False
        fields = ",".join(block).split(",")
        for i, (column, parse) in enumerate(zip(columns, (int, int, float, float))):
            texts = fields[i::4]
            try:
                values = {text: parse(text) for text in set(texts)}
                column[start : start + len(block)] = list(map(values.__getitem__, texts))
            except (ValueError, OverflowError):
                return False
    slots, tas, means, stds = columns
    n_slots, n_ta = mean.shape
    if not (np.all((0 <= slots) & (slots < n_slots)) and np.all((0 <= tas) & (tas < n_ta))):
        return False
    cells = slots * n_ta + tas
    valid = np.isfinite(means) & np.isfinite(stds) & (means >= 0.0) & (stds >= 0.0)
    if not (np.all(np.diff(cells) > 0) and valid.all()):
        return False
    np.put(mean, cells, means)
    np.put(std, cells, stds)
    return True


def _read_rows(path, lines: list[str], mean: np.ndarray, std: np.ndarray) -> None:
    """Fill ``mean`` and ``std`` from the rows of ``lines`` one line at a
    time, raising the first bad row's error with its ``path:line``."""
    n_slots, n_ta = mean.shape
    seen: set[tuple[int, int]] = set()
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
        try:
            slot, ta = int(parts[0]), int(parts[1])
            cell_mean, cell_std = float(parts[2]), float(parts[3])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed row {line!r}") from exc
        if not (0 <= slot < n_slots and 0 <= ta < n_ta):
            raise ValueError(f"{path}:{lineno}: cell ({slot}, {ta}) outside table bounds")
        if (slot, ta) in seen:
            raise ValueError(f"{path}:{lineno}: duplicate cell ({slot}, {ta})")
        # the chained comparisons are False for nan, so this also rejects it
        if not (0.0 <= cell_mean < math.inf and 0.0 <= cell_std < math.inf):
            raise ValueError(
                f"{path}:{lineno}: mean and std must be finite and non-negative, got {line!r}"
            )
        seen.add((slot, ta))
        mean[slot, ta] = cell_mean
        std[slot, ta] = cell_std
