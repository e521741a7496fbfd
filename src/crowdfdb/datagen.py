"""Synthetic worker populations, task pools, and delimited file I/O.

File formats (UTF-8, Unix newlines, comma-delimited, one header row):

  workers: id,cost,a0_00,a0_01,a0_10,a0_11,a1_00,a1_01,a1_10,a1_11
           where a{z}_{y}{yhat} is the matrix entry [y, yhat] for group z;
           floats are written with shortest round-trip precision.  Each
           matrix must be row-stochastic; a worker keeps its diagonal.
  tasks:   id,z,y with z, y in {0, 1}.
  gold tallies: id,att_z0_y0,cor_z0_y0,att_z0_y1,cor_z0_y1,
                att_z1_y0,cor_z1_y0,att_z1_y1,cor_z1_y1
           (attempted/correct per task type, ordered z-major then y).
  raw responses: worker_id,task_id,answer,z,y — one row per collected
           label for a task with known group and truth; load_responses
           aggregates these into per-worker gold tallies, so externally
           collected answer sets can drive estimation directly.

Loaders reject unknown or missing columns and report the first malformed
row by line number and field.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .estimation import TYPE_ORDER, GoldResponseTally
from .model import AccuracyMatrix, WorkerProfile
from .rng import random_rows, stream


class FileFormatError(ValueError):
    """A delimited input file does not match its documented schema."""


@dataclass(frozen=True)
class TaskRecord:
    id: str
    z: int
    y: int

    def __post_init__(self) -> None:
        if self.z not in (0, 1) or self.y not in (0, 1):
            raise ValueError(f"task {self.id}: z and y must be 0 or 1, got z={self.z} y={self.y}")


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
        if self.low_fee < 0.0 or self.high_fee < 0.0:
            raise ValueError("fees must be >= 0")


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


def _worker_id(index: int, n_workers: int) -> str:
    width = max(4, len(str(n_workers - 1)))
    return f"w{index:0{width}d}"


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


def generate_population(spec: PopulationSpec) -> list[WorkerProfile]:
    """Draw n_workers profiles; deterministic given the spec (incl. seed).

    Worker i reads the leading draws of the stream (seed, "population", i):
    its correctness (4 draws for intervals, 3 for clusters), then one fee
    draw for accuracy-linked fees, high with probability equal to its mean
    correctness.  random_rows computes every worker's draws in one pass.
    """
    n_correct = 4 if isinstance(spec.bias_model, IntervalBiasModel) else 3
    linked = isinstance(spec.cost_model, AccuracyLinkedCost)
    u = random_rows(spec.seed, "population", spec.n_workers, n_correct + linked)
    correct = _draw_correctness(spec.bias_model, u)
    if linked:
        c = correct.reshape(-1, 4)
        # summed left to right, as the per-worker reference in tests/oracles.py sums it
        mean = (((c[:, 0] + c[:, 1]) + c[:, 2]) + c[:, 3]) / 4.0
        fees = (spec.cost_model.low_fee, spec.cost_model.high_fee)
        costs = [fees[high] for high in (u[:, n_correct] < mean).tolist()]
    else:
        costs = [spec.cost_model.fee] * spec.n_workers
    return [
        WorkerProfile(id=_worker_id(i, spec.n_workers), correct=c, cost=cost)
        for i, (c, cost) in enumerate(zip(correct, costs))
    ]


def generate_task_pool(spec: TaskPoolSpec) -> list[TaskRecord]:
    """Labeled tasks for both groups, i.i.d. per base rate, shuffled order."""
    rng = stream(spec.seed, "tasks")
    zs = np.concatenate([np.zeros(spec.n_z0, dtype=int), np.ones(spec.n_z1, dtype=int)])
    ys = np.concatenate(
        [
            (rng.random(spec.n_z0) < spec.base_rate_z0).astype(int),
            (rng.random(spec.n_z1) < spec.base_rate_z1).astype(int),
        ]
    )
    order = rng.permutation(zs.size)
    width = max(5, len(str(max(zs.size - 1, 0))))
    return [
        TaskRecord(id=f"t{pos:0{width}d}", z=int(zs[j]), y=int(ys[j]))
        for pos, j in enumerate(order)
    ]


def make_binding_fairness_instance(gap: float, n_pairs: int, seed: int) -> list[WorkerProfile]:
    """Mirrored worker pairs that force fairness rows to bind.

    Each pair shares a base false-positive rate f and a common
    false-negative rate; one member's z=0 FPR is f + gap, the other's
    z=1 FPR is f + gap.  The two members have equal diagonal sums, any
    symmetric policy over a pair has zero FPR gap, and a policy putting
    all mass on one member has exactly `gap`.
    """
    if not 0.0 < gap <= 1.0:
        raise ValueError(f"gap must lie in (0, 1], got {gap}")
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    rng = stream(seed, "mirrored-pairs")
    workers = []
    for p in range(n_pairs):
        f = float(rng.uniform(0.05 * (1.0 - gap), 0.95 * (1.0 - gap)))
        fnr = float(rng.uniform(0.05, 0.35))
        high = (1.0 - (f + gap), 1.0 - fnr)
        low = (1.0 - f, 1.0 - fnr)
        workers.append(WorkerProfile(id=f"p{p:03d}a", correct=(high, low), cost=1.0))
        workers.append(WorkerProfile(id=f"p{p:03d}b", correct=(low, high), cost=1.0))
    return workers


_WORKER_COLUMNS = ["id", "cost"] + [f"a{z}_{y}{yhat}" for z in (0, 1) for y in (0, 1) for yhat in (0, 1)]
_TASK_COLUMNS = ["id", "z", "y"]
_TALLY_COLUMNS = ["id"] + [
    f"{kind}_z{z}_y{y}" for z in (0, 1) for y in (0, 1) for kind in ("att", "cor")
]
_RESPONSE_COLUMNS = ["worker_id", "task_id", "answer", "z", "y"]


@contextmanager
def _data_rows(path: str | Path, expected: list[str]):
    """Open a delimited file, check its header, and yield an iterator of
    its data rows as (line number, fields), each with the header's width.

    Text that is not UTF-8 and rows the csv module rejects (such as a field
    over its size limit) raise FileFormatError naming the line, whether
    they surface here or while the caller iterates.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise FileFormatError(f"{path}: empty file, expected header {','.join(expected)}")
            if header != expected:
                raise FileFormatError(
                    f"{path} line 1: header must be exactly {','.join(expected)}, got {','.join(header)}"
                )
            yield _checked_width(path, enumerate(reader, start=2), len(expected))
        except csv.Error as err:
            raise FileFormatError(f"{path} line {reader.line_num}: {err}")
        except UnicodeDecodeError:
            # the reader's error counts from its last read chunk; decode the whole file for the line
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as err:
                line = data.count(b"\n", 0, err.start) + 1
                raise FileFormatError(f"{path} line {line}: not UTF-8 text: {err.reason}")
            raise


def _checked_width(path, rows, width: int):
    for lineno, row in rows:
        if len(row) != width:
            raise FileFormatError(f"{path} line {lineno}: expected {width} fields, got {len(row)}")
        yield lineno, row


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


def save_workers(workers: list[WorkerProfile], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_WORKER_COLUMNS)
        for w in workers:
            c = w.correct.tolist()
            entries = [c[z][y] if y == yhat else 1.0 - c[z][y] for z in (0, 1) for y in (0, 1) for yhat in (0, 1)]
            writer.writerow([w.id, repr(float(w.cost))] + [repr(e) for e in entries])


def load_workers(path: str | Path) -> list[WorkerProfile]:
    """Workers from a file; each a{z} matrix must be row-stochastic, and only
    its diagonal is kept (the off-diagonal entries are its complements)."""
    workers = []
    with _data_rows(path, _WORKER_COLUMNS) as rows:
        for lineno, row in rows:
            cost, *entries = (
                _parse_float(path, lineno, field, raw) for field, raw in zip(_WORKER_COLUMNS[1:], row[1:])
            )
            grids = np.array(entries).reshape(2, 2, 2)  # [z, y, yhat]
            for z in (0, 1):
                try:
                    AccuracyMatrix(grids[z])  # rejects a row that does not sum to 1
                except ValueError as err:
                    raise FileFormatError(f"{path} line {lineno}: matrix a{z}_*: {err}")
            try:
                workers.append(WorkerProfile(id=row[0], correct=grids.diagonal(axis1=1, axis2=2), cost=cost))
            except ValueError as err:
                raise FileFormatError(f"{path} line {lineno}: {err}")
    return workers


def save_tasks(tasks: list[TaskRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_TASK_COLUMNS)
        for t in tasks:
            writer.writerow([t.id, t.z, t.y])


def load_tasks(path: str | Path) -> list[TaskRecord]:
    tasks = []
    with _data_rows(path, _TASK_COLUMNS) as rows:
        for lineno, row in rows:
            z = _parse_int(path, lineno, "z", row[1])
            y = _parse_int(path, lineno, "y", row[2])
            try:
                tasks.append(TaskRecord(id=row[0], z=z, y=y))
            except ValueError as err:
                raise FileFormatError(f"{path} line {lineno}: {err}")
    return tasks


def save_gold_tallies(
    tallies: list[tuple[str, GoldResponseTally]], path: str | Path
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_TALLY_COLUMNS)
        for worker_id, tally in tallies:
            row = [worker_id]
            for attempted, correct in zip(tally.attempted, tally.correct):
                row.extend([attempted, correct])
            writer.writerow(row)


def load_gold_tallies(path: str | Path) -> list[tuple[str, GoldResponseTally]]:
    out = []
    with _data_rows(path, _TALLY_COLUMNS) as rows:
        for lineno, row in rows:
            numbers = [
                _parse_int(path, lineno, field, raw)
                for field, raw in zip(_TALLY_COLUMNS[1:], row[1:])
            ]
            try:
                tally = GoldResponseTally(
                    attempted=tuple(numbers[0::2]), correct=tuple(numbers[1::2])
                )
            except ValueError as err:
                raise FileFormatError(f"{path} line {lineno}: {err}")
            out.append((row[0], tally))
    return out


def load_responses(path: str | Path) -> list[tuple[str, GoldResponseTally]]:
    """Aggregate raw labeled responses into per-worker gold tallies.

    Every row records one collected label on a task whose group and true
    label are known, so each row contributes one attempt to the worker's
    (z, y) type tally, correct when answer == y.  Workers are returned in
    order of first appearance.
    """
    attempted: dict[str, list[int]] = {}
    correct: dict[str, list[int]] = {}
    order: list[str] = []
    with _data_rows(path, _RESPONSE_COLUMNS) as rows:
        for lineno, row in rows:
            worker_id = row[0]
            answer = _parse_int(path, lineno, "answer", row[2])
            z = _parse_int(path, lineno, "z", row[3])
            y = _parse_int(path, lineno, "y", row[4])
            for field, value in (("answer", answer), ("z", z), ("y", y)):
                if value not in (0, 1):
                    raise FileFormatError(
                        f"{path} line {lineno}: field {field} must be 0 or 1, got {value}"
                    )
            if worker_id not in attempted:
                attempted[worker_id] = [0, 0, 0, 0]
                correct[worker_id] = [0, 0, 0, 0]
                order.append(worker_id)
            idx = TYPE_ORDER.index((z, y))
            attempted[worker_id][idx] += 1
            if answer == y:
                correct[worker_id][idx] += 1
    return [
        (wid, GoldResponseTally(attempted=tuple(attempted[wid]), correct=tuple(correct[wid])))
        for wid in order
    ]


def default_population_spec(seed: int = 4482, n_workers: int = 400,
                            cost_model: UniformCost | AccuracyLinkedCost | None = None) -> PopulationSpec:
    """Default synthetic population: a biased/unbiased worker mixture.

    40% of workers split both error rates by 0.25 between the groups (in
    opposite directions, mimicking higher false positives for one group
    and higher false negatives for the other); ability is independent of
    bias, with every worker's per-label accuracy drawn from (0.60, 0.86).
    """
    return PopulationSpec(
        n_workers=n_workers,
        bias_model=ClusterBiasModel(
            biased_fraction=0.4,
            biased_diag_y0=(0.60, 0.86),
            biased_diag_y1=(0.60, 0.86),
            unbiased_diag_y0=(0.60, 0.86),
            unbiased_diag_y1=(0.60, 0.86),
            biased_fpr_offset=-0.25,
            biased_fnr_offset=0.25,
        ),
        cost_model=cost_model if cost_model is not None else UniformCost(fee=1.0),
        seed=seed,
    )


def default_task_pool_spec(seed: int = 9161) -> TaskPoolSpec:
    """Default task pool: 2454 + 3696 tasks with group base rates
    0.3936 and 0.5143."""
    return TaskPoolSpec(n_z0=2454, n_z1=3696, base_rate_z0=0.3936, base_rate_z1=0.5143, seed=seed)
