"""Multi-seed, multi-config batches: cells, sweeps, ranking, aggregation.

A cell fixes a game config, a topology spec and a strategy mix; it is run
over a number of seeds, each derived from the master seed and the cell and
seed indices, so any single run of a batch can be reproduced on its own.
Cells and seeds are independent and may execute in parallel: forked worker
processes inherit the task list, each reports its outcomes as plain data
through its own pipe, and the parent places them in task order, so
aggregation always reduces in canonical cell order. A worker that dies fails
its tasks in the table; platforms without ``os.fork`` run every task in
process.
"""

from __future__ import annotations

import dataclasses
import marshal
import os
from dataclasses import dataclass, field
from typing import BinaryIO, NoReturn

from .engine import GameConfig, run_simulation
from .model import Money, NodeId
from .predictor import PredictorConfig
from .seeding import derive_seed
from .strategies import build_strategy
from .topology import TopologyGraph, generate


@dataclass(frozen=True)
class TopologySpec:
    """How to build a cell's graph. ``seed=None`` ties it to the run seed,
    giving every seeded run its own graph; an explicit seed pins one graph."""

    kind: str = "geometric"
    n: int = 20
    radius: float | None = 0.35
    cols: int | None = None
    gateways: tuple[int, ...] = (0,)
    seed: int | None = None

    def build(self, run_seed: int) -> TopologyGraph:
        seed = self.seed if self.seed is not None else derive_seed(run_seed, "topo")
        return generate(
            self.kind, self.n,
            seed=seed, radius=self.radius, cols=self.cols, gateways=self.gateways,
        )


@dataclass(frozen=True)
class MixEntry:
    """One slice of a strategy mix.

    Either ``nodes`` pins explicit node ids, or ``count`` takes that many
    nodes from a seed-shuffled pool (``count=None`` takes the rest).
    """

    strategy: str
    params: tuple[tuple[str, object], ...] = ()
    nodes: tuple[int, ...] | None = None
    count: int | None = None

    def params_dict(self) -> dict:
        return {k: v for k, v in self.params}


def make_mix_entry(strategy: str, params: dict | None = None,
                   nodes: tuple[int, ...] | None = None,
                   count: int | None = None) -> MixEntry:
    return MixEntry(strategy, tuple(sorted((params or {}).items())), nodes, count)


class MixError(ValueError):
    """A mix that leaves some node without a strategy or gives it two, for every seed.

    ``entry`` is the index of the entry at fault and ``field`` its field
    (``nodes``, ``count`` or ``rest``); both are None when no one entry is.
    """

    def __init__(self, message: str, entry: int | None = None, field: str | None = None):
        super().__init__(message)
        self.entry = entry
        self.field = field


def check_mix(mix: tuple[MixEntry, ...], n: int) -> None:
    """Raise ``MixError`` unless ``mix`` gives each of ``n`` nodes exactly one strategy.

    Whether it does depends on ``n`` and the mix alone, never on the run seed.
    """
    pinned: dict[NodeId, int] = {}
    for i, entry in enumerate(mix):
        for node in entry.nodes or ():
            if not 0 <= node < n:
                raise MixError(f"node {node} is not in the topology (n = {n})", i, "nodes")
            if node in pinned:
                raise MixError(
                    f"node {node} assigned twice in mix (also in entry {pinned[node]})", i, "nodes"
                )
            pinned[node] = i
    left = n - len(pinned)
    rest = None
    for i, entry in enumerate(mix):
        if entry.nodes is not None:
            continue
        if entry.count is None:
            if rest is not None:
                raise MixError(f"entry {rest} already takes the remaining nodes", i, "rest")
            rest = i
        elif entry.count < 0:
            raise MixError("must be >= 0", i, "count")
        elif entry.count > left:
            raise MixError(f"wants {entry.count} more nodes than remain ({left})", i, "count")
        else:
            left -= entry.count
    if left and rest is None:
        # Which nodes the counts leave over depends on the seed, unless there are none.
        free = [node for node in range(n) if node not in pinned]
        which = f"node {free[0]}" if left == len(free) else f"{left} of the unpinned nodes"
        raise MixError(f"no strategy assigned to {which}; give one entry rest: true")


def assign_mix(mix: tuple[MixEntry, ...], n: int, run_seed: int) -> dict[NodeId, tuple[str, dict]]:
    """Resolve a mix into node -> (strategy name, params).

    Pinned nodes first; counted entries draw from the remaining nodes in a
    seed-shuffled order; the one ``count=None`` entry, if any, absorbs the
    rest. A mix that ``check_mix`` rejects raises ``MixError``.
    """
    import random

    check_mix(mix, n)
    assignment: dict[NodeId, tuple[str, dict]] = {}
    for entry in mix:
        for node in entry.nodes or ():
            assignment[node] = (entry.strategy, entry.params_dict())
    pool = [node for node in range(n) if node not in assignment]
    random.Random(derive_seed(run_seed, "mix")).shuffle(pool)
    for entry in mix:
        if entry.nodes is None and entry.count is not None:
            for node in pool[: entry.count]:
                assignment[node] = (entry.strategy, entry.params_dict())
            pool = pool[entry.count:]
    for entry in mix:
        if entry.nodes is None and entry.count is None:
            for node in pool:
                assignment[node] = (entry.strategy, entry.params_dict())
    return assignment


@dataclass(frozen=True)
class CellSpec:
    name: str
    config: GameConfig
    topology: TopologySpec
    mix: tuple[MixEntry, ...]
    predictor: PredictorConfig | None = None


@dataclass(frozen=True)
class TournamentSpec:
    cells: tuple[CellSpec, ...]
    seeds_per_cell: int = 1
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.seeds_per_cell < 1:
            raise ValueError("seeds_per_cell must be >= 1")
        if not self.cells:
            raise ValueError("tournament needs at least one cell")


@dataclass
class StrategyAggregate:
    strategy: str
    node_runs: int = 0
    total_balance: Money = 0
    total_delivered: int = 0
    total_fines: Money = 0
    rank_counts: list[int] = field(default_factory=list)

    @property
    def mean_balance(self) -> float:
        return self.total_balance / max(self.node_runs, 1)

    @property
    def mean_delivered(self) -> float:
        return self.total_delivered / max(self.node_runs, 1)

    @property
    def mean_fines(self) -> float:
        return self.total_fines / max(self.node_runs, 1)


@dataclass
class RankTable:
    """Per-cell, per-strategy aggregates plus rank distributions over seeds.

    ``errors`` maps a failed cell to one message naming every failed seed,
    ``seed <i> (run seed <s>): <ExceptionType>: <message>``, joined by
    ``"; "``; ``run_cell_seed(cell, s)`` reproduces each on its own, unless
    the type is ``ChildProcessError``: that seed's worker process died.
    """

    cells: dict[str, dict[str, StrategyAggregate]] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)

    def to_csv(self) -> str:
        max_ranks = max(
            (len(agg.rank_counts) for per_cell in self.cells.values()
             for agg in per_cell.values()),
            default=0,
        )
        header = "cell,strategy,mean_balance,mean_delivered,mean_fines," + ",".join(
            f"rank_{i+1}_count" for i in range(max_ranks)
        )
        lines = [header.rstrip(",")]
        for cell_name in self.cells:
            per_cell = self.cells[cell_name]
            for strategy in sorted(per_cell):
                agg = per_cell[strategy]
                counts = agg.rank_counts + [0] * (max_ranks - len(agg.rank_counts))
                lines.append(
                    f"{cell_name},{strategy},{agg.mean_balance:.6f},"
                    f"{agg.mean_delivered:.6f},{agg.mean_fines:.6f},"
                    + ",".join(str(c) for c in counts)
                )
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lines = []
        for cell_name, per_cell in self.cells.items():
            lines.append(f"cell {cell_name}")
            ordered = sorted(per_cell.values(), key=lambda a: -a.mean_balance)
            for agg in ordered:
                lines.append(
                    f"  {agg.strategy:<12} balance {agg.mean_balance:>10.1f}  "
                    f"delivered {agg.mean_delivered:>6.2f}  fines {agg.mean_fines:>8.1f}  "
                    f"ranks {agg.rank_counts}"
                )
        for cell_name, err in self.errors.items():
            lines.append(f"cell {cell_name} FAILED: {err}")
        return "\n".join(lines)


def _competition_rank(ordered_values: list[float], value: float) -> int:
    """1-based competition rank: ties share the better rank."""
    return 1 + sum(1 for v in ordered_values if v > value)


def run_cell_seed(cell: CellSpec, run_seed: int) -> dict[str, tuple[int, Money, int, Money]]:
    """One (cell, seed) simulation, reduced to per-strategy sums.

    Returns strategy -> (node count, balance sum, delivered sum, fines sum).
    """
    graph = cell.topology.build(run_seed)
    resolved = assign_mix(cell.mix, graph.n, run_seed)
    assignment = {
        node: build_strategy(name, params) for node, (name, params) in resolved.items()
    }
    config = dataclasses.replace(cell.config, master_seed=run_seed)
    result = run_simulation(config, graph, assignment, cell.predictor)
    sums: dict[str, tuple[int, Money, int, Money]] = {}
    for node, name in result.strategy_names.items():
        cnt, bal, deliv, fines = sums.get(name, (0, 0, 0, 0))
        stats = result.stats[node]
        sums[name] = (
            cnt + 1,
            bal + result.balances[node],
            deliv + stats.delivered,
            fines + stats.fines_paid,
        )
    return sums


def _run_cell_seed_task(task: tuple[CellSpec, int, int, int]) -> dict | str:
    """One task's per-strategy sums, or its failure as ``"<ExceptionType>: <message>"``."""
    cell, cell_index, seed_index, master_seed = task
    try:
        return run_cell_seed(cell, derive_seed(master_seed, cell_index, seed_index))
    except Exception as exc:  # noqa: BLE001 - recorded, not fatal
        return f"{type(exc).__name__}: {exc}"


def _work(tasks: list, report: BinaryIO) -> NoReturn:
    """A forked worker's whole life: run ``tasks``, write their outcomes to
    ``report`` in one piece, and leave by ``os._exit``, never through the
    caller's stack; the status is 0 only once the report is written."""
    status = 1
    try:
        report.write(marshal.dumps([_run_cell_seed_task(task) for task in tasks]))
        report.close()
        status = 0
    finally:
        os._exit(status)


def _run_forked(tasks: list, workers: int) -> list[dict | str]:
    """Every task's outcome, in task order, from ``workers`` forked children.

    Child ``w`` inherits the task list and runs tasks ``w, w + workers, …``;
    one whose exit status is not 0 fails each of its tasks. Every child is
    reaped before this returns or raises.
    """
    outcomes: list = [None] * len(tasks)
    reports: list[BinaryIO] = []  # each worker's read end, in worker order
    children: list[int] = []  # forked and not yet reaped, in worker order
    try:
        for w in range(workers):
            read_end, write_end = os.pipe()
            reports.append(open(read_end, "rb"))
            with open(write_end, "wb") as report:  # the parent's copy closes at once
                pid = os.fork()
                if pid == 0:
                    _work(tasks[w::workers], report)
            children.append(pid)
        for w, report in enumerate(reports):
            data = report.read()  # to EOF: the worker has closed its end or exited
            code = os.waitstatus_to_exitcode(os.waitpid(children[0], 0)[1])
            del children[0]
            if code == 0:
                outcomes[w::workers] = marshal.loads(data)
            else:
                how = f"with status {code}" if code > 0 else f"on signal {-code}"
                failure = f"ChildProcessError: tournament worker exited {how} before reporting"
                outcomes[w::workers] = [failure] * len(tasks[w::workers])
    except BaseException:
        for pid in children:
            os.kill(pid, 9)  # SIGKILL; importing signal would cost every run ~0.25 MB
            os.waitpid(pid, 0)
        raise
    finally:
        for report in reports:
            report.close()
    return outcomes


def run_tournament(spec: TournamentSpec, workers: int = 1) -> RankTable:
    """Execute every (cell, seed), aggregate, and rank.

    With ``workers > 1``, up to that many children forked once the task list
    is built inherit it and share its tasks round robin; their outcomes come
    back in task order, so the table is identical for any ``workers`` value.
    A child that dies before reporting fails each of its tasks with an error
    naming its exit status. Where ``os.fork`` does not exist, every task runs
    in this process. Per-cell failures are recorded in the table, not raised.
    """
    tasks = [
        (cell, ci, si, spec.master_seed)
        for ci, cell in enumerate(spec.cells)
        for si in range(spec.seeds_per_cell)
    ]
    workers = min(workers, len(tasks))  # no idle worker is forked
    if workers > 1 and hasattr(os, "fork"):
        outcomes = _run_forked(tasks, workers)
    else:
        outcomes = [_run_cell_seed_task(task) for task in tasks]

    table = RankTable()
    per_task = iter(outcomes)
    for ci, cell in enumerate(spec.cells):
        per_cell: dict[str, StrategyAggregate] = {}
        n_strategies = len({e.strategy for e in cell.mix})
        failures = []
        for si in range(spec.seeds_per_cell):
            outcome = next(per_task)
            if isinstance(outcome, str):
                run_seed = derive_seed(spec.master_seed, ci, si)
                failures.append(f"seed {si} (run seed {run_seed}): {outcome}")
                continue
            seed_means = {
                name: bal / cnt for name, (cnt, bal, _, _) in outcome.items()
            }
            ordered = list(seed_means.values())
            for name, (cnt, bal, deliv, fines) in outcome.items():
                agg = per_cell.get(name)
                if agg is None:
                    agg = StrategyAggregate(name, rank_counts=[0] * n_strategies)
                    per_cell[name] = agg
                agg.node_runs += cnt
                agg.total_balance += bal
                agg.total_delivered += deliv
                agg.total_fines += fines
                rank = _competition_rank(ordered, seed_means[name])
                agg.rank_counts[rank - 1] += 1
        if failures:
            table.errors[cell.name] = "; ".join(failures)
        if per_cell:
            table.cells[cell.name] = per_cell
    return table


#: Sweep axis -> the ``GameConfig`` field it sets and that field's type.
SWEEP_FIELDS = {"fine": ("fine", int), "ttl": ("ttl", int), "churn": ("churn_rate", float)}
SWEEP_AXES = tuple(SWEEP_FIELDS)


def swept_config(config: GameConfig, axis: str, value) -> GameConfig:
    """``config`` with the field of sweep ``axis`` set to ``value``."""
    field_name, kind = SWEEP_FIELDS[axis]
    return dataclasses.replace(config, **{field_name: kind(value)})


def sweep(
    axis: str,
    values: list,
    base: CellSpec,
    seeds_per_cell: int,
    master_seed: int,
    workers: int = 1,
):
    """One RankTable per value of the swept game parameter.

    Yields ``(value, table)`` pairs as each value finishes, so callers can
    persist completed results before later values run.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"sweep axis must be one of {SWEEP_AXES}")
    if not values:
        raise ValueError("sweep needs at least one value")
    return _sweep_iter(axis, list(values), base, seeds_per_cell, master_seed, workers)


def _sweep_iter(axis, values, base, seeds_per_cell, master_seed, workers):
    for value in values:
        config = swept_config(base.config, axis, value)
        cell = dataclasses.replace(base, name=f"{base.name}[{axis}={value}]", config=config)
        table = run_tournament(
            TournamentSpec((cell,), seeds_per_cell, master_seed), workers=workers
        )
        yield value, table
