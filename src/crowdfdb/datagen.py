"""Synthetic worker populations, task pools, and delimited file I/O.

File formats (UTF-8, Unix newlines, comma-delimited, one header row):

  workers: id,cost,a0_00,a0_01,a0_10,a0_11,a1_00,a1_01,a1_10,a1_11
           where a{z}_{y}{yhat} is the matrix entry [y, yhat] for group z;
           floats are written with shortest round-trip precision.  Each
           matrix must be row-stochastic; a worker keeps its diagonal.
           Held as a Population of (n, z, y) correctness and (n,) fees.
  tasks:   id,z,y with z, y in {0, 1}; held as a TaskPool of int8 arrays.
  gold tallies: id,att_z0_y0,cor_z0_y0,att_z0_y1,cor_z0_y1,
                att_z1_y0,cor_z1_y0,att_z1_y1,cor_z1_y1
           (attempted/correct per task type, ordered z-major then y).
  raw responses: worker_id,task_id,answer,z,y — one row per collected
           label for a task with known group and truth; load_responses
           aggregates these into per-worker gold tallies, so externally
           collected answer sets can drive estimation directly.  Both
           tally sources are held as one GoldTallies of (n, z, y) counts.

Each file is text columns followed by bit, count or float columns.  Worker
and gold-tally ids must not repeat, and a worker, tally or response file
must hold at least one data row.  A plain file (LF line endings, no quote,
carriage return or NUL byte, strict UTF-8) is read as byte blocks of whole
lines, split with numpy, its fields parsed by int or float and its values
checked as arrays.  Any other file, or one that a parse or check rejects,
is read again through the csv parser, one row at a time: that gives the
same result, or reports the first malformed row in file order by line
number and field, whatever its fault: bytes that are not UTF-8, a row the
csv parser rejects, a wrong field count, a bad value or a repeated id.
"""

from __future__ import annotations

import csv
from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import NamedTuple

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


def _parse_count(path, lineno: int, field: str, raw: str) -> int:
    value = _parse_int(path, lineno, field, raw)
    if value >= 2**63:  # beyond int64; a count below 0 is left to check_counts
        raise FileFormatError(f"{path} line {lineno}: field {field} exceeds the largest count, {2**63 - 1}")
    return value


def _worker_rule(numbers: list[float]) -> None:
    """One worker row's numbers, cost first: each a{z} matrix, a0 first, has
    entries in [0, 1], then rows summing to 1; then the fee is checked."""
    grids = np.array(numbers[1:]).reshape(2, 2, 2)  # [z, y, yhat]
    for z, m in enumerate(grids):
        if not ((m >= 0.0) & (m <= 1.0)).all():  # NaN fails every comparison
            raise ValueError(f"matrix a{z}_*: accuracy matrix entries must lie in [0, 1]: {m.tolist()}")
        if (np.abs(m.sum(axis=1) - 1.0) > TOL.structural).any():
            raise ValueError(f"matrix a{z}_*: accuracy matrix rows must sum to 1, got sums {m.sum(axis=1).tolist()}")
    Population(ids=("",), correct=grids.diagonal(axis1=1, axis2=2)[None], cost=numbers[:1])


class _Schema(NamedTuple):  # a NamedTuple, as every command imports this module: a dataclass takes 8x as long
    """A file's header: n_text text columns, then typed ones that field
    (_parse_bit, _parse_count or _parse_float) parses.  rule raises
    ValueError for a row's typed values that break it; unique says that
    first-column ids may not repeat."""

    columns: list[str]
    n_text: int
    field: Callable[[object, int, str, str], int | float]
    rule: Callable[[list], None] | None = None
    unique: bool = False


_WORKERS = _Schema(_WORKER_COLUMNS, 1, _parse_float, _worker_rule, unique=True)
_TASKS = _Schema(_TASK_COLUMNS, 1, _parse_bit)
_TALLIES = _Schema(_TALLY_COLUMNS, 1, _parse_count, lambda counts: check_counts(counts[0::2], counts[1::2]),
                   unique=True)
_RESPONSES = _Schema(_RESPONSE_COLUMNS, 2, _parse_bit)


class _Unusual(ValueError):
    """A file the byte reader does not take, or whose values a check rejects."""


def _read(path, schema: _Schema, build):
    """build(path, blocks) over the byte reader's blocks of rows, each (ids,
    repeats, values): the block's first fields are ids[j] repeated repeats[j]
    times, and values[row, k] holds typed field k.  If the reader does not
    take the file, or a parse or one of build's array checks raises
    ValueError, the per-row checker reads the file again for build."""
    try:
        blocks = _byte_blocks(path, schema)
        first = next(blocks, None)
        if first is not None:
            return build(path, chain([first], blocks))
        blocks = iter(())  # a plain file of no rows
    except (ValueError, OverflowError):  # OverflowError: an integer beyond int64
        blocks = _checked_blocks(path, schema)
    try:
        return build(path, blocks)
    except FileFormatError:
        raise
    except ValueError as err:  # every row was checked as it was read, so the file holds none
        raise FileFormatError(f"{path} line 1: {err}") from None


# The byte reader reads a file this many bytes at a time, each read extended
# to the end of the line it stops in: enough rows that numpy's per-call cost
# is spread thin, while every array a block needs stays a small multiple of
# its size.
_BLOCK_BYTES = 1 << 16


def _byte_blocks(path, schema: _Schema):
    """The byte reader's blocks; raises _Unusual unless the file holds the
    header line, then lines of exactly len(columns) - 1 commas with no quote,
    carriage return or NUL byte (Python 3.10's csv parser rejects NUL), all
    strict UTF-8 and none longer than the csv parser's field limit.  On such
    a file the csv parser splits the same rows at the same commas.  Typed
    fields are parsed by float for _parse_float and by int otherwise.

    The blocks are whole lines of about _BLOCK_BYTES, each ending in a
    newline, one added where a line lacks it: at the end of the file, or
    after the first `limit` bytes of a line's tail, which leaves a line too
    long or an empty one for _parse_block to reject.
    """
    header = ",".join(schema.columns).encode()
    limit = csv.field_size_limit()
    parse, dtype = (float, np.float64) if schema.field is _parse_float else (int, np.int64)
    with open(path, "rb") as handle:
        if handle.readline(len(header) + 1) not in (header, header + b"\n"):
            raise _Unusual
        while block := handle.read(_BLOCK_BYTES):
            block += handle.readline(limit)
            block += b"" if block.endswith(b"\n") else b"\n"
            yield _parse_block(block, len(schema.columns), schema.n_text, limit, parse, dtype)


def _parse_block(block: bytes, width: int, n_text: int, limit: int, parse, dtype):
    """One block of _byte_blocks, or _Unusual."""
    if b'"' in block or b"\r" in block or b"\0" in block:
        raise _Unusual
    if not block.isascii():
        block.decode("utf-8")  # a UnicodeDecodeError is a ValueError
    data = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    commas = np.flatnonzero(data == ord(","))
    if commas.size != ends.size * (width - 1) or (ends - starts).max() > limit:
        raise _Unusual
    commas = commas.reshape(ends.size, width - 1)
    # Where every typed field is one digit, the commas before them sit 2k, ..., 4, 2 bytes before
    # their row's end, each before a digit, so all of the block's commas are on their own rows.
    n_typed = width - n_text
    fixed = ends[:, None] - np.arange(2 * n_typed, 0, -2)
    values = data[fixed + 1] - ord("0") if (commas[:, n_text - 1:] == fixed).all() else None  # uint8 digits
    if values is None or (values > 9).any():  # a byte below "0" wraps above 9
        # taken width - 1 at a time in order, the commas are all on their own
        # rows if each row's first comes after its start and its last before its end
        if not ((commas[:, 0] >= starts) & (commas[:, -1] < ends)).all():
            raise _Unusual
        lines = block.decode("utf-8").split("\n")[:-1]  # the fields parsed a line at a time
        fields = chain.from_iterable(line.split(",")[-n_typed:] for line in lines)
        values = np.fromiter(map(parse, fields), dtype=dtype, count=ends.size * n_typed).reshape(-1, n_typed)
    firsts = _run_starts(data, starts, commas[:, 0])
    # the first field of each run, each with the comma after it, decoded as one and split
    ids = data[_spans(starts[firsts], commas[firsts, 0] - starts[firsts] + 1)].tobytes().decode("utf-8")
    return ids.split(",")[:-1], np.diff(np.append(firsts, ends.size)), values


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


# The per-row checker yields blocks of this many rows: few enough that their
# row lists usually go before the garbage collector's first generation fills.
_BLOCK_ROWS = 128


def _checked_blocks(path, schema: _Schema):
    """The byte reader's blocks from the csv parser, for any file."""
    rows = _checked_rows(path, schema)
    while block := list(islice(rows, _BLOCK_ROWS)):
        ids, values = zip(*block)
        yield ids, np.ones(len(ids), dtype=np.intp), np.array(values)


def _checked_rows(path, schema: _Schema):
    """(id, typed values) of each data row, checked in turn: its text and
    width, each typed field, the schema's rule, then its id, so the first bad
    row in file order raises its error."""
    columns, n_text = schema.columns, schema.n_text
    seen: dict[str, int] = {}
    for lineno, row in _data_rows(path, columns):
        _check_row(path, lineno, row, len(columns))
        values = [schema.field(path, lineno, field, raw) for field, raw in zip(columns[n_text:], row[n_text:])]
        if schema.rule is not None:
            try:
                schema.rule(values)
            except ValueError as err:
                raise FileFormatError(f"{path} line {lineno}: {err}")
        if schema.unique and seen.setdefault(row[0], lineno) != lineno:
            raise FileFormatError(f"{path} line {lineno}: repeated id {row[0]!r}, first on line {seen[row[0]]}")
        yield row[0], values


def _data_rows(path: str | Path, expected: list[str]):
    """(line number, row) for each data row of a delimited file, once its
    header is checked; the rows are lists of str of any width.

    Bytes that are not UTF-8 reach the rows as lone surrogates, which
    _check_row reports; a row the csv module rejects (such as a field over
    its size limit) raises FileFormatError naming its line once the rows
    before it have been yielded, so every error surfaces in file order.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise FileFormatError(f"{path} line 1: empty file, expected header {','.join(expected)}")
            if header != expected:
                _check_row(path, 1, header, len(header))  # a header that is not UTF-8 says so
                raise FileFormatError(f"{path} line 1: header must be exactly {','.join(expected)}, "
                                      f"got {','.join(header)}")
            yield from enumerate(reader, 2)
        except csv.Error as err:
            raise FileFormatError(f"{path} line {reader.line_num}: {err}")


def _check_row(path, lineno: int, row: list[str], width: int) -> None:
    """Reject a row that is not UTF-8 text or not `width` fields wide."""
    try:
        "".join(row).encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, the escape of a byte that is not UTF-8
        # the first row holding an escape holds the file's first undecodable byte
        try:
            Path(path).read_bytes().decode("utf-8")
        except UnicodeDecodeError as err:
            line = err.object.count(b"\n", 0, err.start) + 1
            raise FileFormatError(f"{path} line {line}: not UTF-8 text: {err.reason}") from None
    if len(row) != width:
        raise FileFormatError(f"{path} line {lineno}: expected {width} fields, got {len(row)}")


def _gathered(path, blocks, width: int, dtype) -> tuple[list[str], np.ndarray]:
    """The blocks' ids, one per row, and their read-only values[row, k] as
    dtype, in one array of a row per line ending (LF, CRLF or CR; every data
    row follows one), so the values are never held twice."""
    size = 0
    with open(path, "rb") as handle:
        while chunk := handle.read(_BLOCK_BYTES):
            size += np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) == ord("\n"))
            size += chunk.count(b"\r") - chunk.count(b"\r\n") if b"\r" in chunk else 0
    ids, values = [], np.empty((size, width), dtype=dtype)
    for run_ids, repeats, block in blocks:
        values[len(ids):len(ids) + len(block)] = block
        ids.extend(np.repeat(np.array(run_ids, dtype=object), repeats).tolist())
    values.flags.writeable = False
    return ids, values[:len(ids)]


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
    return _read(path, _WORKERS, _population)


def _population(path, blocks) -> Population:
    ids, numbers = _gathered(path, blocks, len(_WORKER_COLUMNS) - 1, np.float64)  # [row, field]: cost, a{z}
    grids = numbers[:, 1:].reshape(-1, 2, 2, 2)  # [row, z, y, yhat]
    # _worker_rule's matrix rule on every row at once; Population checks the fees
    valid = ((grids >= 0.0) & (grids <= 1.0)).all() and (np.abs(grids.sum(axis=-1) - 1.0) <= TOL.structural).all()
    if not valid or len(set(ids)) < len(ids):
        raise _Unusual
    return Population(ids=tuple(ids), correct=grids.diagonal(axis1=2, axis2=3), cost=numbers[:, 0])


def save_tasks(tasks: TaskPool, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_TASK_COLUMNS)
        writer.writerows(zip(tasks.ids, tasks.z.tolist(), tasks.y.tolist()))


def load_tasks(path: str | Path) -> TaskPool:
    return _read(path, _TASKS, _task_pool)


def _task_pool(path, blocks) -> TaskPool:
    ids, bits = _gathered(path, blocks, 2, np.int64)
    return TaskPool(ids=tuple(ids), z=bits[:, 0], y=bits[:, 1])  # TaskPool checks the bits


def save_gold_tallies(tallies: GoldTallies, path: str | Path) -> None:
    counts = np.stack([tallies.attempted, tallies.correct], axis=-1).reshape(-1, 8)  # [i, (type, kind)]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_TALLY_COLUMNS)
        writer.writerows([worker_id, *row] for worker_id, row in zip(tallies.ids, counts.tolist()))


def load_gold_tallies(path: str | Path) -> GoldTallies:
    """Recorded tallies in file order; an id may appear once, and the file
    must hold at least one tally."""
    return _read(path, _TALLIES, _gold_tallies)


def _gold_tallies(path, blocks) -> GoldTallies:
    ids, counts = _gathered(path, blocks, 8, np.int64)  # counts[row, (z, y, kind)], in column order
    # GoldTallies holds views of the read-only counts, not copies, and checks them and that no id repeats
    return GoldTallies(ids=tuple(ids), attempted=counts[:, 0::2].reshape(-1, 2, 2),
                       correct=counts[:, 1::2].reshape(-1, 2, 2))


def load_responses(path: str | Path) -> GoldTallies:
    """Aggregate raw labeled responses into per-worker gold tallies.

    Every row records one collected label on a task whose group and true
    label are known, so each row contributes one attempt to the worker's
    (z, y) type tally, correct when answer == y.  Workers are held in order
    of first appearance, and the file must hold at least one response.
    """
    return _read(path, _RESPONSES, _tally_responses)


def _tally_responses(path, blocks) -> GoldTallies:
    codes: dict[str, int] = {}  # worker id -> order of first appearance
    # counts[4 * code + 2 * z + y]: a worker's four types in TYPE_ORDER, z-major
    attempted = correct = np.zeros(0, dtype=np.intp)
    for run_ids, repeats, bits in blocks:
        if (bits >> 1).any():  # a value but 0 or 1, negative ones too
            raise _Unusual
        answer, z, y = bits.T
        run_codes = np.array([codes.setdefault(i, len(codes)) for i in run_ids], dtype=np.intp)
        kind = 4 * np.repeat(run_codes, repeats) + 2 * z + y
        attempted = _add_counts(attempted, kind, 4 * len(codes))
        correct = _add_counts(correct, kind[answer == y], 4 * len(codes))
    attempted.flags.writeable = correct.flags.writeable = False  # so GoldTallies holds them, not copies
    return GoldTallies(ids=tuple(codes), attempted=attempted.reshape(-1, 2, 2), correct=correct.reshape(-1, 2, 2))


def _add_counts(total: np.ndarray, kind: np.ndarray, size: int) -> np.ndarray:
    """total, grown to size, plus the number of times each index occurs in kind."""
    counts = np.bincount(kind, minlength=size)
    counts[: total.size] += total
    return counts
