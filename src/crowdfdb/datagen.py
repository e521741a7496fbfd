"""Synthetic worker populations, task pools, and delimited file I/O.

File formats (UTF-8, Unix newlines, comma-delimited, one header row):

  workers: id,cost,a0_00,a0_01,a0_10,a0_11,a1_00,a1_01,a1_10,a1_11
           where a{z}_{y}{yhat} is the matrix entry [y, yhat] for group z;
           floats are written with shortest round-trip precision.  Each
           matrix must be row-stochastic; a worker keeps its diagonal.
           Held as a Population of (n, z, y) correctness and (n,) fees,
           validated once when it is generated or loaded.
  tasks:   id,z,y with z, y in {0, 1}; held as a TaskPool of int8 arrays,
           validated once when the pool is generated or loaded.
  gold tallies: id,att_z0_y0,cor_z0_y0,att_z0_y1,cor_z0_y1,
                att_z1_y0,cor_z1_y0,att_z1_y1,cor_z1_y1
           (attempted/correct per task type, ordered z-major then y).
  raw responses: worker_id,task_id,answer,z,y — one row per collected
           label for a task with known group and truth; load_responses
           aggregates these into per-worker gold tallies, so externally
           collected answer sets can drive estimation directly.
           Both tally sources are held as one GoldTallies of (n, z, y)
           count arrays.

Worker and gold-tally ids must not repeat.  Loaders reject unknown or
missing columns and report the first malformed row in file order by line
number and field, whatever its fault: bytes that are not UTF-8, a row the
csv parser rejects, a wrong field count, a bad value or a repeated id.
Task and response files are read as byte blocks of whole lines, checked and
counted with numpy; a file in any form but LF line endings, unquoted fields
and single-byte 0/1 bits is read again through the csv parser row by row,
which gives the same result or reports the error.  Worker and tally files
are read through the csv parser in blocks of 128 rows, so a loader holds one
block of parsed rows at a time.  A worker block is checked a column at a
time into arrays, and a block that fails is parsed again row by row for that
error; a tally block is checked one row at a time into one int64 array.  A
worker, tally or response file must hold at least one data row.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .estimation import GoldTallies, check_counts
from .model import TOL, Population
from .rng import mix, permutation, random_rows, stream_keys


class FileFormatError(ValueError):
    """A delimited input file does not match its documented schema."""


@dataclass(frozen=True, eq=False)
class TaskPool:
    """Pool tasks in order: their ids, and read-only int8 arrays of each task's
    group z and true label y, checked to be 0 or 1 before they are narrowed."""

    ids: tuple[str, ...]
    z: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        for name in ("z", "y"):
            values = np.asarray(getattr(self, name))
            if values.shape != (len(self.ids),) or not ((values == 0) | (values == 1)).all():
                raise ValueError(f"task pool {name} must hold one 0 or 1 per task id")
            object.__setattr__(self, name, values.astype(np.int8))
            getattr(self, name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class IntervalBiasModel:
    """Each diagonal accuracy entry drawn uniformly from a per-(z, y) range."""

    diag_z0_y0: tuple[float, float]
    diag_z0_y1: tuple[float, float]
    diag_z1_y0: tuple[float, float]
    diag_z1_y1: tuple[float, float]

    def __post_init__(self) -> None:
        for name in ("diag_z0_y0", "diag_z0_y1", "diag_z1_y0", "diag_z1_y1"):
            lo, hi = getattr(self, name)
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValueError(f"{name} range must satisfy 0 <= lo <= hi <= 1, got ({lo}, {hi})")


@dataclass(frozen=True)
class ClusterBiasModel:
    """Biased/unbiased worker mixture.

    Base per-truth-label accuracies are drawn from the cluster's ranges and
    shared between groups; the cluster's fpr/fnr offsets (z=0 minus z=1
    error rate) then split each error rate across the two groups, half up
    and half down, clipped to [0, 1].  An unbiased cluster has zero offsets
    and therefore identical matrices for both groups.
    """

    biased_fraction: float
    biased_diag_y0: tuple[float, float]
    biased_diag_y1: tuple[float, float]
    unbiased_diag_y0: tuple[float, float]
    unbiased_diag_y1: tuple[float, float]
    biased_fpr_offset: float
    biased_fnr_offset: float
    unbiased_fpr_offset: float = 0.0
    unbiased_fnr_offset: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.biased_fraction <= 1.0:
            raise ValueError(f"biased_fraction must lie in [0, 1], got {self.biased_fraction}")
        for name in ("biased_diag_y0", "biased_diag_y1", "unbiased_diag_y0", "unbiased_diag_y1"):
            lo, hi = getattr(self, name)
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValueError(f"{name} range must satisfy 0 <= lo <= hi <= 1, got ({lo}, {hi})")
        for name in ("biased_fpr_offset", "biased_fnr_offset", "unbiased_fpr_offset", "unbiased_fnr_offset"):
            v = getattr(self, name)
            if not -1.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [-1, 1], got {v}")


@dataclass(frozen=True)
class UniformCost:
    fee: float

    def __post_init__(self) -> None:
        if self.fee < 0.0:
            raise ValueError(f"fee must be >= 0, got {self.fee}")


@dataclass(frozen=True)
class AccuracyLinkedCost:
    """Fee is high_fee with probability equal to the worker's average
    diagonal accuracy, low_fee otherwise."""

    low_fee: float
    high_fee: float

    def __post_init__(self) -> None:
        for name in ("low_fee", "high_fee"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class PopulationSpec:
    n_workers: int
    bias_model: IntervalBiasModel | ClusterBiasModel
    cost_model: UniformCost | AccuracyLinkedCost
    seed: int

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")


@dataclass(frozen=True)
class TaskPoolSpec:
    n_z0: int
    n_z1: int
    base_rate_z0: float
    base_rate_z1: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_z0 < 0 or self.n_z1 < 0:
            raise ValueError("task counts must be >= 0")
        for name in ("base_rate_z0", "base_rate_z1"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


def _draw_correctness(model: IntervalBiasModel | ClusterBiasModel, u: np.ndarray) -> np.ndarray:
    """(n, z, y) correctness from each worker's leading draws, row u[i].

    A uniform draw from (lo, hi) is lo + (hi - lo) * u, as Generator.uniform
    computes it.  Intervals read u[:, :4] in (z, y) order; clusters read the
    bias test u[:, 0], then the two base accuracies u[:, 1:3] (y = 0, 1).
    """
    if isinstance(model, IntervalBiasModel):
        lo, hi = np.array([getattr(model, f"diag_z{z}_y{y}") for z in (0, 1) for y in (0, 1)]).T
        return (lo + (hi - lo) * u[:, :4]).reshape(-1, 2, 2)
    biased = (u[:, 0] < model.biased_fraction)[:, None]  # broadcast over the truth label y
    ranges = np.where(biased[..., None], [model.biased_diag_y0, model.biased_diag_y1],
                      [model.unbiased_diag_y0, model.unbiased_diag_y1])  # [i, y, (lo, hi)]
    lo, hi = ranges[..., 0], ranges[..., 1]
    # the FPR and FNR shared by both groups, split by the offsets: z=0 up, z=1 down
    errors = 1.0 - (lo + (hi - lo) * u[:, 1:3])
    halves = np.where(biased, [model.biased_fpr_offset, model.biased_fnr_offset],
                      [model.unbiased_fpr_offset, model.unbiased_fnr_offset]) / 2.0
    signs = np.array([1.0, -1.0])[:, None]
    return 1.0 - np.minimum(np.maximum(errors[:, None, :] + signs * halves[:, None, :], 0.0), 1.0)


def generate_population(spec: PopulationSpec) -> Population:
    """Draw n_workers workers; deterministic given the spec (incl. seed).

    Worker i reads the leading draws of the stream (seed, "population", i):
    its correctness (4 draws for intervals, 3 for clusters), then one fee
    draw for accuracy-linked fees, high with probability equal to its mean
    correctness.  random_rows computes every worker's draws in one pass.
    """
    n_correct = 4 if isinstance(spec.bias_model, IntervalBiasModel) else 3
    linked = isinstance(spec.cost_model, AccuracyLinkedCost)
    u = random_rows(stream_keys(spec.seed, "population", np.arange(spec.n_workers)), n_correct + linked)
    correct = _draw_correctness(spec.bias_model, u)
    if linked:
        c = correct.reshape(-1, 4)
        # summed left to right, as the per-worker reference in tests/oracles.py sums it
        mean = (((c[:, 0] + c[:, 1]) + c[:, 2]) + c[:, 3]) / 4.0
        cost = np.where(u[:, n_correct] < mean, spec.cost_model.high_fee, spec.cost_model.low_fee)
    else:
        cost = np.full(spec.n_workers, spec.cost_model.fee, dtype=float)
    width = max(4, len(str(spec.n_workers - 1)))
    ids = tuple(map(f"w%0{width}d".__mod__, range(spec.n_workers)))  # the format is parsed once, not per id
    return Population(ids=ids, correct=correct, cost=cost)


def generate_task_pool(spec: TaskPoolSpec) -> TaskPool:
    """Labeled tasks for both groups, i.i.d. per base rate, shuffled order.

    The stream (seed, "tasks") gives task i of the group-sorted list its
    label from draw i, then shuffles the list as Generator.permutation
    would from there on; rng.permutation replays that shuffle bit for bit,
    and no Generator is built.
    """
    zs = np.repeat(np.array([0, 1], dtype=np.int8), [spec.n_z0, spec.n_z1])
    key = np.array([mix(spec.seed, "tasks")], dtype=np.uint64)
    ys = random_rows(key, zs.size)[0] < np.where(zs == 1, spec.base_rate_z1, spec.base_rate_z0)
    order = permutation(key, zs.size, start=zs.size)
    width = max(5, len(str(max(zs.size - 1, 0))))
    ids = tuple(map(f"t%0{width}d".__mod__, range(zs.size)))  # the format is parsed once, not per id
    return TaskPool(ids=ids, z=zs[order], y=ys[order])


_WORKER_COLUMNS = ["id", "cost"] + [f"a{z}_{y}{yhat}" for z in (0, 1) for y in (0, 1) for yhat in (0, 1)]
_TASK_COLUMNS = ["id", "z", "y"]
_TALLY_COLUMNS = ["id"] + [
    f"{kind}_z{z}_y{y}" for z in (0, 1) for y in (0, 1) for kind in ("att", "cor")
]
_RESPONSE_COLUMNS = ["worker_id", "task_id", "answer", "z", "y"]


# The csv parser's path (the worker and tally loaders, and the fallback of
# the task and response loaders) reads a file this many rows at a time, so
# no loader holds a whole file of rows.  The Python row objects a block holds
# (a list of str per row, and a worker block's columns) set the loaders'
# share of peak RSS: loading an 800-worker file peaks at 342 KB traced with
# 128-row blocks and at 740 KB with 512.  A block stays under the garbage
# collector's generation-0 threshold (700 by default), so its row lists are
# usually freed before a collection would scan them; at 1,024 rows, loading
# 64,000 responses ran 122 collections, one a full one.
_BLOCK_ROWS = 128


@contextmanager
def _data_rows(path: str | Path, expected: list[str]):
    """Open a delimited file, check its header, and yield an iterator over its
    data rows in blocks of up to _BLOCK_ROWS, as (line number of the block's
    first row, rows); the rows are lists of str of any width.

    Bytes that are not UTF-8 reach the rows as lone surrogates, which
    _check_row reports; a row the csv module rejects (such as a field over
    its size limit) raises FileFormatError naming its line once the rows
    before it have been yielded, so every error surfaces in file order.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
        except csv.Error as err:
            raise FileFormatError(f"{path} line {reader.line_num}: {err}")
        if header is None:
            raise FileFormatError(f"{path} line 1: empty file, expected header {','.join(expected)}")
        if header != expected:
            _check_row(path, 1, header, len(header))  # a header that is not UTF-8 says so
            raise FileFormatError(
                f"{path} line 1: header must be exactly {','.join(expected)}, got {','.join(header)}"
            )
        yield _blocks(path, reader)


def _blocks(path, reader):
    first = 2
    while True:
        rows, error = [], None
        try:
            rows.extend(islice(reader, _BLOCK_ROWS))  # on a csv error, rows keeps those read before it
        except csv.Error as err:
            error = FileFormatError(f"{path} line {reader.line_num}: {err}")
        if rows:
            yield first, rows
        if error is not None:
            raise error
        if len(rows) < _BLOCK_ROWS:
            return
        first += _BLOCK_ROWS


def _is_text(fields) -> bool:
    """Whether no field holds a lone surrogate, the escape of a byte that is not UTF-8."""
    try:
        "".join(fields).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _check_row(path, lineno: int, row: list[str], width: int) -> None:
    """Reject a row that is not UTF-8 text or not `width` fields wide."""
    if not _is_text(row):
        # the first row holding an escape holds the file's first undecodable byte
        try:
            Path(path).read_bytes().decode("utf-8")
        except UnicodeDecodeError as err:
            line = err.object.count(b"\n", 0, err.start) + 1
            raise FileFormatError(f"{path} line {line}: not UTF-8 text: {err.reason}") from None
    if len(row) != width:
        raise FileFormatError(f"{path} line {lineno}: expected {width} fields, got {len(row)}")


def _check_new_id(path, lineno: int, row_id: str, seen: dict[str, int]) -> None:
    first = seen.setdefault(row_id, lineno)
    if first != lineno:
        raise FileFormatError(f"{path} line {lineno}: repeated id {row_id!r}, first on line {first}")


def _columns(rows: list[list[str]], width: int) -> list[tuple[str, ...]] | None:
    """A block's columns, or None unless every row is `width` fields wide."""
    try:
        columns = list(zip(*rows, strict=True))
    except ValueError:  # rows of unequal width
        return None
    return columns if len(columns) == width else None


def _parse_float(path, lineno: int, field: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise FileFormatError(f"{path} line {lineno}: field {field} is not a number: {raw!r}")


def _parse_int(path, lineno: int, field: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise FileFormatError(f"{path} line {lineno}: field {field} is not an integer: {raw!r}")


def _parse_bit(path, lineno: int, field: str, raw: str) -> int:
    value = _parse_int(path, lineno, field, raw)
    if value not in (0, 1):
        raise FileFormatError(f"{path} line {lineno}: field {field} must be 0 or 1, got {value}")
    return value


# The byte reader reads task and response files this many bytes at a time,
# each read extended to the end of the line it stops in: enough rows that
# numpy's per-call cost is spread thin, while every array a block needs
# stays a small multiple of its size.
_BLOCK_BYTES = 1 << 16


class _Unusual(Exception):
    """A file the byte reader does not take; the csv parser reads it instead."""


def _read_bit_file(path, columns: list[str], n_text: int, load):
    """load(blocks) over a file of n_text text columns followed by bit columns.

    The blocks are (ids, repeats, bits): the first field of the block's rows
    is ids[j] repeated repeats[j] times, and bits[k] holds bit column k as
    uint8.  They come from the byte reader; if any of its checks fails
    anywhere in the file, what load made of them is dropped and the whole
    file is read through the csv parser, row by row.
    """
    try:
        return load(_byte_blocks(path, columns, n_text))
    except _Unusual:
        pass
    return load(_csv_blocks(path, columns, n_text))


def _byte_blocks(path, columns: list[str], n_text: int):
    """The byte reader's blocks; raises _Unusual unless the file holds the
    header line, then lines of exactly len(columns) - 1 commas, each ending
    in one-byte 0/1 bit fields, with no quote, carriage return or NUL byte
    (Python 3.10's csv parser rejects NUL), all strict UTF-8 and none longer
    than the csv parser's field limit.  On such a file the csv parser splits
    the same rows at the same commas.
    """
    header = ",".join(columns).encode()
    limit = csv.field_size_limit()
    with open(path, "rb") as handle:
        if handle.readline(len(header) + 1) not in (header, header + b"\n"):
            raise _Unusual
        for block in _line_blocks(handle, limit):
            yield _parse_block(block, len(columns) - 1, n_text, limit)


def _line_blocks(handle, limit: int):
    """The rest of a binary file in blocks of whole lines of about
    _BLOCK_BYTES, each ending in a newline, one added where a line lacks it:
    at the end of the file, or after the first `limit` bytes of a line's
    tail, which leaves a line too long or an empty one for _parse_block to
    reject."""
    while block := handle.read(_BLOCK_BYTES):
        block += handle.readline(limit)
        yield block if block.endswith(b"\n") else block + b"\n"


def _parse_block(block: bytes, n_commas: int, n_text: int, limit: int):
    """One block of _byte_blocks, or _Unusual."""
    if b'"' in block or b"\r" in block or b"\0" in block:
        raise _Unusual
    try:
        block.isascii() or block.decode("utf-8")
    except UnicodeDecodeError:
        raise _Unusual from None
    data = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    commas = np.flatnonzero(data == ord(","))
    if commas.size != ends.size * n_commas or (ends - starts).max() > limit:
        raise _Unusual
    # Taken n_commas at a time in order, the commas all lie on their own rows
    # if each row's last ones sit one before each bit, the last bit just
    # before the newline, and every bit is 0 or 1: a row's first comma then
    # comes after the row before's last comma, last bit and newline.
    commas = commas.reshape(ends.size, n_commas)
    bit_commas = ends[:, None] - np.arange(2 * (n_commas - n_text + 1), 0, -2)
    if not (commas[:, n_text - 1:] == bit_commas).all():
        raise _Unusual
    bits = data[bit_commas + 1] - ord("0")
    if (bits > 1).any():
        raise _Unusual
    firsts = _run_starts(data, starts, commas[:, 0])
    # the first field of each run, each with the comma after it, decoded as one and split
    fields = data[_spans(starts[firsts], commas[firsts, 0] - starts[firsts] + 1)].tobytes().decode("utf-8")
    return fields.split(",")[:-1], np.diff(np.append(firsts, ends.size)), bits.T


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions of the bytes of the spans [starts, starts + lengths),
    concatenated, as one running sum of steps; no span may be empty."""
    steps = np.ones(lengths.sum(), dtype=np.intp)
    if steps.size:
        steps[0] = starts[0]
        steps[np.cumsum(lengths[:-1])] = starts[1:] - (starts[:-1] + lengths[:-1]) + 1
        np.cumsum(steps, out=steps)
    return steps


def _run_starts(data: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The rows whose first field, data[starts:stops], differs from the row
    before's: each row with a field of the same non-zero length as the row
    before's is compared with it byte by byte."""
    lengths = stops - starts
    same = np.zeros(starts.size, dtype=bool)
    same[1:] = lengths[1:] == lengths[:-1]
    rows = np.flatnonzero(same & (lengths > 0))
    if rows.size:
        differ = data[_spans(starts[rows], lengths[rows])] != data[_spans(starts[rows - 1], lengths[rows])]
        same[rows] = ~np.logical_or.reduceat(differ, np.cumsum(lengths[rows]) - lengths[rows])
    return np.flatnonzero(~same)


def _csv_blocks(path, columns: list[str], n_text: int):
    """The byte reader's blocks from the csv parser: each row is checked and
    its bits parsed in turn, so the first bad row in file order raises its
    error."""
    with _data_rows(path, columns) as blocks:
        for first, rows in blocks:
            bits = []
            for lineno, row in enumerate(rows, first):
                _check_row(path, lineno, row, len(columns))
                bits.append([_parse_bit(path, lineno, f, raw) for f, raw in zip(columns[n_text:], row[n_text:])])
            yield [row[0] for row in rows], np.ones(len(rows), dtype=np.intp), np.array(bits, dtype=np.uint8).T


def save_workers(population: Population, path: str | Path) -> None:
    c = population.correct[..., None]
    entries = np.where(np.eye(2, dtype=bool), c, 1.0 - c).reshape(-1, 8)  # [i, (z, y, yhat)]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_WORKER_COLUMNS)
        writer.writerows(
            [worker_id, repr(cost), *map(repr, row)]
            for worker_id, cost, row in zip(population.ids, population.cost.tolist(), entries.tolist())
        )


def load_workers(path: str | Path) -> Population:
    """Workers from a file; each a{z} matrix must be row-stochastic, and only
    its diagonal is kept (the off-diagonal entries are its complements).  An
    id may appear once, and the file must hold at least one worker."""
    ids: list[str] = []
    numbers = [np.zeros((len(_WORKER_COLUMNS) - 1, 0))]  # [field, row]: cost, then the a{z} entries
    seen: dict[str, int] = {}
    with _data_rows(path, _WORKER_COLUMNS) as blocks:
        for first, rows in blocks:
            block = _checked_workers(path, rows, first, seen)
            if block is None:  # some row fails: check them one by one for its error
                block = np.array([_worker_row(path, lineno, row, seen) for lineno, row in enumerate(rows, first)]).T
            ids.extend(row[0] for row in rows)
            numbers.append(block)
    numbers = np.concatenate(numbers, axis=1)
    correct = numbers[1:].T.reshape(-1, 2, 2, 2).diagonal(axis1=2, axis2=3)  # [row, z, y, yhat] -> [row, z, y]
    try:
        return Population(ids=tuple(ids), correct=correct, cost=numbers[0])
    except ValueError as err:  # every row was checked as it was read, so the file holds none
        raise FileFormatError(f"{path} line 1: {err}") from None


def _checked_workers(path, rows: list[list[str]], first: int, seen: dict[str, int]) -> np.ndarray | None:
    """A block's numbers[field, row], checked all at once as _worker_row checks
    each row; None if any row fails a check that comes before its id's."""
    columns = _columns(rows, len(_WORKER_COLUMNS))
    if columns is None:
        return None
    ids, *fields = columns
    try:
        numbers = np.array([np.fromiter(map(float, field), dtype=float, count=len(ids)) for field in fields])
    except ValueError:
        return None
    grids = numbers[1:].T.reshape(-1, 2, 2, 2)  # grids[row, z, y, yhat]
    valid = (
        np.isfinite(numbers).all()
        and (numbers >= 0.0).all()
        and (grids <= 1.0).all()
        and (np.abs(grids.sum(axis=-1) - 1.0) <= TOL.structural).all()
    )
    if not (valid and _is_text(ids)):
        return None
    for lineno, worker_id in enumerate(ids, first):
        _check_new_id(path, lineno, worker_id, seen)
    return numbers


def _worker_row(path, lineno: int, row: list[str], seen: dict[str, int]) -> list[float]:
    """One row's numbers, cost first, each checked in turn."""
    _check_row(path, lineno, row, len(_WORKER_COLUMNS))
    numbers = [_parse_float(path, lineno, field, raw) for field, raw in zip(_WORKER_COLUMNS[1:], row[1:])]
    grids = np.array(numbers[1:]).reshape(2, 2, 2)  # [z, y, yhat]
    for z, m in enumerate(grids):
        if not ((m >= 0.0) & (m <= 1.0)).all():  # NaN fails every comparison
            problem = f"entries must lie in [0, 1]: {m.tolist()}"
        elif (np.abs(m.sum(axis=1) - 1.0) > TOL.structural).any():
            problem = f"rows must sum to 1, got sums {m.sum(axis=1).tolist()}"
        else:
            continue
        raise FileFormatError(f"{path} line {lineno}: matrix a{z}_*: accuracy matrix {problem}")
    try:
        Population(ids=(row[0],), correct=grids.diagonal(axis1=1, axis2=2)[None], cost=numbers[:1])
    except ValueError as err:  # the cost check
        raise FileFormatError(f"{path} line {lineno}: {err}")
    _check_new_id(path, lineno, row[0], seen)
    return numbers


def save_tasks(tasks: TaskPool, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_TASK_COLUMNS)
        writer.writerows(zip(tasks.ids, tasks.z.tolist(), tasks.y.tolist()))


def load_tasks(path: str | Path) -> TaskPool:
    return _read_bit_file(path, _TASK_COLUMNS, 1, _task_pool)


def _task_pool(blocks) -> TaskPool:
    ids: list[str] = []
    bits = [np.zeros((2, 0), dtype=np.uint8)]
    for run_ids, repeats, block_bits in blocks:
        ids.extend(np.repeat(np.array(run_ids, dtype=object), repeats).tolist())
        bits.append(block_bits)
    z, y = np.concatenate(bits, axis=1)
    return TaskPool(ids=tuple(ids), z=z, y=y)


def save_gold_tallies(tallies: GoldTallies, path: str | Path) -> None:
    counts = np.stack([tallies.attempted, tallies.correct], axis=-1).reshape(-1, 8)  # [i, (type, kind)]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_TALLY_COLUMNS)
        writer.writerows([worker_id, *row] for worker_id, row in zip(tallies.ids, counts.tolist()))


def load_gold_tallies(path: str | Path) -> GoldTallies:
    """Recorded tallies in file order, checked row by row; an id may appear
    once, and the file must hold at least one tally."""
    counts = [np.zeros((0, 8), dtype=np.int64)]  # one array a block: [row, (z, y, kind)], in column order
    seen: dict[str, int] = {}
    with _data_rows(path, _TALLY_COLUMNS) as blocks:
        for first, rows in blocks:
            block = np.empty((len(rows), 8), dtype=np.int64)
            for lineno, row in enumerate(rows, first):
                _check_row(path, lineno, row, len(_TALLY_COLUMNS))
                numbers = [_parse_count(path, lineno, field, raw) for field, raw in zip(_TALLY_COLUMNS[1:], row[1:])]
                try:
                    check_counts(numbers[0::2], numbers[1::2])
                except ValueError as err:
                    raise FileFormatError(f"{path} line {lineno}: {err}")
                _check_new_id(path, lineno, row[0], seen)
                block[lineno - first] = numbers
            counts.append(block)
    counts = np.concatenate(counts)
    return _file_tallies(path, list(seen), counts[:, 0::2], counts[:, 1::2])


def _parse_count(path, lineno: int, field: str, raw: str) -> int:
    value = _parse_int(path, lineno, field, raw)
    if value >= 2**63:  # beyond int64; a count below 0 is left to check_counts
        raise FileFormatError(f"{path} line {lineno}: field {field} exceeds the largest count, {2**63 - 1}")
    return value


def load_responses(path: str | Path) -> GoldTallies:
    """Aggregate raw labeled responses into per-worker gold tallies.

    Every row records one collected label on a task whose group and true
    label are known, so each row contributes one attempt to the worker's
    (z, y) type tally, correct when answer == y.  Workers are held in order
    of first appearance, and the file must hold at least one response.
    """
    return _file_tallies(path, *_read_bit_file(path, _RESPONSE_COLUMNS, 2, _tally_responses))


def _tally_responses(blocks) -> tuple[list[str], np.ndarray, np.ndarray]:
    codes: dict[str, int] = {}  # worker id -> order of first appearance
    # counts[4 * code + 2 * z + y]: a worker's four types in TYPE_ORDER, z-major
    attempted = correct = np.zeros(0, dtype=np.intp)
    for run_ids, repeats, (answer, z, y) in blocks:
        run_codes = np.array([codes.setdefault(i, len(codes)) for i in run_ids], dtype=np.intp)
        kind = 4 * np.repeat(run_codes, repeats) + 2 * z + y
        attempted = _add_counts(attempted, kind, 4 * len(codes))
        correct = _add_counts(correct, kind[answer == y], 4 * len(codes))
    return list(codes), attempted, correct


def _file_tallies(path, ids: list[str], attempted: np.ndarray, correct: np.ndarray) -> GoldTallies:
    try:
        return GoldTallies(ids=tuple(ids), attempted=attempted.reshape(-1, 2, 2), correct=correct.reshape(-1, 2, 2))
    except ValueError as err:  # every row was checked as it was read, so the file holds none
        raise FileFormatError(f"{path} line 1: {err}") from None


def _add_counts(total: np.ndarray, kind: np.ndarray, size: int) -> np.ndarray:
    """total, grown to size, plus the number of times each index occurs in kind."""
    counts = np.bincount(kind, minlength=size)
    counts[: total.size] += total
    return counts

