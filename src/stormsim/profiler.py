"""KPI profiles: per-(time-of-day slot, TA) mean and standard deviation of
interval request counts, learned from adversary-free traffic.

Profiles are dense (slots x TA bins) tables in memory and sparse non-zero
rows on disk, behind a one-line metadata header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, repeat
from typing import Iterable

import numpy as np

from .config import MAX_TABLE_BYTES, _check_types
from .core import ROWS_PER_WRITE, SECONDS_PER_DAY, Adoptable, Trace, _columns, cell_keys, distinct_texts
from .core import _check_lines, group_starts, narrowed, slots_per_day

FOLD_CELLS = 2**15  # table cells that train folds at a time
# the keys of a profile file's metadata line, in KpiProfile's field order
METADATA_KEYS = ("interval_seconds", "max_ta", "training_days")


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
    keys = cell_keys(trace.time_s, trace.ta, interval_seconds, max_ta, days)
    keys.sort()  # in place: the keys are this call's own
    starts = np.flatnonzero(group_starts(keys))
    cells = keys[starts]
    del keys  # freed before the counts are built
    counts = narrowed(np.diff(starts, append=len(trace)))
    shape = (days, slots_per_day(interval_seconds), max_ta + 1)
    table = np.zeros(math.prod(shape), counts.dtype)
    table[cells] = counts
    return table.reshape(shape)


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
class KpiProfile(Adoptable):
    """Long-term per-(slot-of-day, TA) count statistics from clean traffic.

    Both tables are float64, shaped (slots_per_day, max_ta + 1), fit in
    ``MAX_TABLE_BYTES`` and hold finite, non-negative values; the metadata
    are integers, ``max_ta`` at least 0 and ``training_days`` at least 1.
    The constructor keeps read-only float64 copies of the tables.
    """

    interval_seconds: int
    max_ta: int
    training_days: int
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self, adopt: bool = False) -> None:
        _check_types(self)
        shape = (_check_metadata(self.interval_seconds, self.max_ta, self.training_days), self.max_ta + 1)
        _columns(self, {"mean": np.float64, "std": np.float64}, adopt, ndim=2)
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
    # Each cell's days are folded by Welford's update: after k days
    # ``block_mean`` is their sample mean and ``m2`` their sum of squared
    # deviations. Only the cells with a count on some day are folded. The
    # fold keeps any other cell at exactly 0.0, so the zeroed tables below
    # are bit-identical to a fold over every cell. The table is folded
    # FOLD_CELLS cells at a time, each cell by itself, so that besides the
    # two tables only one block's gathered counts and moments ever exist.
    flat = day_counts.reshape(days, -1)
    mean, std = np.zeros((n_slots, n_ta)), np.zeros((n_slots, n_ta))
    for start in range(0, flat.shape[1], FOLD_CELLS):
        block = flat[:, start : start + FOLD_CELLS]
        cells = np.flatnonzero(block.any(axis=0))
        block_mean, m2 = np.zeros(cells.size), np.zeros(cells.size)
        for k, day in enumerate(block, start=1):
            counts = day[cells].astype(float)
            delta = counts - block_mean
            block_mean += delta / k
            m2 += delta * (counts - block_mean)
        np.put(mean, start + cells, block_mean)
        if days > 1:  # the sample std (denominator days - 1); zero for one day
            np.put(std, start + cells, np.sqrt(m2 / (days - 1)))
    return KpiProfile._adopt(SECONDS_PER_DAY // n_slots, n_ta - 1, days, mean, std)


def save_profile(profile: KpiProfile, path) -> int:
    """Write a profile as CSV: metadata comment, header, non-zero cells
    only; return the number of cells written.

    Each column's distinct values are formatted once, and the rows are
    joined and written ``ROWS_PER_WRITE`` at a time.
    """
    slots, tas = np.nonzero((profile.mean != 0.0) | (profile.std != 0.0))
    columns = (slots, tas, profile.mean[slots, tas], profile.std[slots, tas])
    fields = [distinct_texts(column, prefix) for column, prefix in zip(columns, ("", ",", ",", ","))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("#" + ",".join(f"{key}={getattr(profile, key)}" for key in METADATA_KEYS) + "\nslot,ta,mean,std\n")
        for start in range(0, slots.size, ROWS_PER_WRITE):
            block = slice(start, start + ROWS_PER_WRITE)
            texts = (field_texts[index[block]].tolist() for field_texts, index in fields)
            fh.write("".join(chain.from_iterable(zip(*texts, repeat("\n")))))
    return slots.size


def load_profile(path) -> KpiProfile:
    """Read a profile CSV back into dense tables; absent cells are zero.

    The file is read as text with universal newlines, so lines end only at
    ``"\\n"``, ``"\\r\\n"`` or ``"\\r"`` (``str.splitlines`` would also break
    at U+2028, U+0085 and the like, and so misnumber every row after one).
    Its lines are read once and in order, so a pipe reads as a file does,
    and its rows may come in any order: :func:`_read_columns` reads them
    ``ROWS_PER_WRITE`` lines at a time, and a block it refuses goes by
    itself to the line loop of ``core._check_lines``, where :func:`_put_row`
    puts each row or raises the first bad row's error. Neither the whole
    text nor a list of its lines is ever held. A byte that is not UTF-8
    raises ``ValueError`` naming the path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            metadata = _read_metadata(path, *(fh.readline().removesuffix("\n") for _ in range(2)))
            mean, std = _read_columns(path, fh, (slots_per_day(metadata[0]), metadata[1] + 1))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8 ({exc})") from exc
    return KpiProfile._adopt(*metadata, mean, std)


def _read_metadata(path, first: str, header: str) -> tuple[int, ...]:
    """The values of ``METADATA_KEYS``, in order, in a profile file's
    metadata line ``first``; ``ValueError`` naming ``path`` unless that
    line, the column ``header`` and the metadata are valid."""
    if not first.startswith("#"):
        raise ValueError(f"{path}: missing metadata line")
    meta: dict[str, int] = {}
    for part in first[1:].split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        if not value:
            raise ValueError(f"{path}: malformed metadata entry {part!r}")
        if key not in METADATA_KEYS or key in meta:
            raise ValueError(f"{path}: {'repeated' if key in meta else 'unknown'} metadata key {key!r}")
        try:
            meta[key] = int(value)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed metadata entry {part!r}") from exc
    missing = set(METADATA_KEYS) - set(meta)
    if missing:
        raise ValueError(f"{path}: metadata missing {sorted(missing)}")
    if header != "slot,ta,mean,std":
        raise ValueError(f"{path}: missing or bad header line")
    metadata = tuple(map(meta.__getitem__, METADATA_KEYS))
    try:
        _check_metadata(*metadata)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return metadata


def _read_columns(path, lines: Iterable[str], shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The mean and std tables of ``shape`` held in ``lines``, the lines of
    the file at ``path`` from its third on, read once and in order,
    ``ROWS_PER_WRITE`` at a time: a block that :func:`_put_block` refuses is
    read by :func:`_put_row` in the line loop of ``core._check_lines``, and
    the next by columns again. A cell's mean is NaN, which no valid row
    holds, until a row puts the cell, so both readers tell a repeated cell
    from the tables; cells no row puts are zero in the tables returned."""
    mean, std = np.full(shape, np.nan), np.zeros(shape)
    lines, lineno = iter(lines), 3
    while block := list(islice(lines, ROWS_PER_WRITE)):
        if not _put_block(block, mean, std):
            _check_lines(path, lineno, block, partial(_put_row, mean, std))
        lineno += len(block)
    np.copyto(mean, 0.0, where=np.isnan(mean))
    return mean, std


def _put_block(block: list[str], mean: np.ndarray, std: np.ndarray) -> bool:
    """Put the rows of ``block`` in the tables and return True if they pass
    every check of the line loop; else return False and leave the tables be.
    The non-blank lines are joined and split on commas. Each holds exactly
    three commas, so its fields are the substrings ``line.split(",")``
    gives, and ``int`` and ``float`` read them as the line loop does, each
    distinct text once; only the last field holds a line's ``"\\n"``, which
    ``float`` ignores."""
    rows = list(filter(str.strip, block))
    if list(map(str.count, rows, repeat(","))).count(3) != len(rows):
        return False
    fields = ",".join(rows).split(",") if rows else []  # "".split(",") is [""]
    columns = []
    for i, (parse, dtype) in enumerate(((int, np.int64), (int, np.int64), (float, float), (float, float))):
        texts = fields[i::4]
        try:
            values = {text: parse(text) for text in set(texts)}
            columns.append(np.array(list(map(values.__getitem__, texts)), dtype))
        except (ValueError, OverflowError):
            return False
    slots, tas, means, stds = columns
    n_slots, n_ta = mean.shape
    cells = slots * n_ta + tas
    valid = (0 <= slots) & (slots < n_slots) & (0 <= tas) & (tas < n_ta)
    valid &= np.isfinite(means) & np.isfinite(stds) & (means >= 0.0) & (stds >= 0.0)
    if not (valid.all() and np.isnan(mean.take(cells)).all() and np.all(np.diff(np.sort(cells)) > 0)):
        return False
    np.put(mean, cells, means)
    np.put(std, cells, stds)
    return True


def _put_row(mean: np.ndarray, std: np.ndarray, line: str) -> None:
    """Put one non-blank row of a profile file, with or without its line
    end, in ``mean`` and ``std``; ``ValueError`` unless it is well-formed,
    in the tables' bounds, finite and non-negative, and of a cell whose mean
    is still NaN, which no row has put."""
    line = line.removesuffix("\n")
    parts = line.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected 4 fields, got {len(parts)}")
    try:
        slot, ta = int(parts[0]), int(parts[1])
        cell_mean, cell_std = float(parts[2]), float(parts[3])
    except ValueError as exc:
        raise ValueError(f"malformed row {line!r}") from exc
    n_slots, n_ta = mean.shape
    if not (0 <= slot < n_slots and 0 <= ta < n_ta):
        raise ValueError(f"cell ({slot}, {ta}) outside table bounds")
    if not math.isnan(mean[slot, ta]):
        raise ValueError(f"duplicate cell ({slot}, {ta})")
    # the chained comparisons are False for nan, so this also rejects it
    if not (0.0 <= cell_mean < math.inf and 0.0 <= cell_std < math.inf):
        raise ValueError(f"mean and std must be finite and non-negative, got {line!r}")
    mean[slot, ta] = cell_mean
    std[slot, ta] = cell_std
