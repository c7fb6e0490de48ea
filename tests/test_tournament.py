import dataclasses
import marshal
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from bidforward import tournament

from bidforward.engine import GameConfig
from bidforward.seeding import derive_seed
from bidforward.tournament import (
    CellSpec,
    MixError,
    TopologySpec,
    TournamentSpec,
    assign_mix,
    make_mix_entry,
    run_cell_seed,
    run_tournament,
    sweep,
)

MIX = (
    make_mix_entry("fair", count=4),
    make_mix_entry("wolfpack", {"pack": "a"}, count=2),
    make_mix_entry("random"),
)


def small_cell(name="base", **config_kwargs):
    config = GameConfig(packets_total=8, injection_rate=2, **config_kwargs)
    topo = TopologySpec(kind="ring", n=8, radius=None, gateways=(0,))
    return CellSpec(name=name, config=config, topology=topo, mix=MIX)


class TestAssignMix:
    def test_pinned_counted_and_rest(self):
        mix = (
            make_mix_entry("fair", nodes=(0, 1)),
            make_mix_entry("wolfpack", count=2),
            make_mix_entry("random"),
        )
        resolved = assign_mix(mix, 6, run_seed=3)
        assert set(resolved) == set(range(6))
        names = [resolved[n][0] for n in range(6)]
        assert names[0] == names[1] == "fair"
        assert sorted(names).count("wolfpack") == 2
        assert sorted(names).count("random") == 2

    def test_deterministic_for_seed(self):
        assert assign_mix(MIX, 8, 5) == assign_mix(MIX, 8, 5)
        assert assign_mix(MIX, 8, 5) != assign_mix(MIX, 8, 6)

    def test_double_assignment_rejected(self):
        mix = (make_mix_entry("fair", nodes=(0,)), make_mix_entry("random", nodes=(0,)))
        with pytest.raises(ValueError, match="twice"):
            assign_mix(mix, 2, 0)

    def test_uncovered_node_rejected(self):
        mix = (make_mix_entry("fair", nodes=(0, 1)),)
        with pytest.raises(ValueError, match="node 2"):
            assign_mix(mix, 4, 0)

    def test_overdrawn_count_rejected(self):
        mix = (make_mix_entry("fair", count=9),)
        with pytest.raises(ValueError, match="more nodes than remain"):
            assign_mix(mix, 4, 0)

    @pytest.mark.parametrize("entry, message", [
        (make_mix_entry("fair", nodes=(0, 4)), "node 4 is not in the topology"),
        (make_mix_entry("fair", count=-1), "must be >= 0"),
    ])
    def test_mix_outside_the_graph_rejected_for_every_seed(self, entry, message):
        mix = (entry, make_mix_entry("random"))
        for run_seed in range(3):
            with pytest.raises(MixError, match=message):
                assign_mix(mix, 4, run_seed)


class TestRunTournament:
    def test_single_cell_single_seed_matches_direct_run(self):
        cell = small_cell()
        spec = TournamentSpec((cell,), seeds_per_cell=1, master_seed=10)
        table = run_tournament(spec)
        direct = run_cell_seed(cell, derive_seed(10, 0, 0))
        agg = table.cells["base"]
        for name, (cnt, bal, deliv, fines) in direct.items():
            assert agg[name].mean_balance == bal / cnt
            assert agg[name].mean_delivered == deliv / cnt
            assert agg[name].mean_fines == fines / cnt

    def test_rank_distribution_counts_seeds(self):
        spec = TournamentSpec((small_cell(),), seeds_per_cell=3, master_seed=1)
        table = run_tournament(spec)
        for agg in table.cells["base"].values():
            assert sum(agg.rank_counts) == 3
            assert len(agg.rank_counts) == 3  # three distinct strategies

    def test_ranks_are_a_permutation_per_seed(self):
        spec = TournamentSpec((small_cell(),), seeds_per_cell=1, master_seed=4)
        table = run_tournament(spec)
        taken = [
            rank for agg in table.cells["base"].values()
            for rank, count in enumerate(agg.rank_counts, start=1) for _ in range(count)
        ]
        assert sorted(taken) == [1, 2, 3]

    def test_cell_order_does_not_change_rows(self):
        a, b = small_cell("a"), small_cell("b", fine=40)
        t1 = run_tournament(TournamentSpec((a, b), seeds_per_cell=2, master_seed=9))
        t2 = run_tournament(TournamentSpec((b, a), seeds_per_cell=2, master_seed=9))
        # Seeds derive from the cell index, so compare each cell at the
        # same index position across both orderings.
        assert {n: a.mean_balance for n, a in t1.cells["a"].items()} == {
            n: a.mean_balance for n, a in t2.cells["b"].items()
        }

    def test_identical_spec_identical_table(self):
        spec = TournamentSpec((small_cell(),), seeds_per_cell=2, master_seed=3)
        assert run_tournament(spec).to_csv() == run_tournament(spec).to_csv()

    def test_parallel_equals_sequential(self):
        # 7 tasks: no worker count below shares them evenly.
        spec = TournamentSpec(
            tuple(small_cell(f"c{i}", fine=20 * i) for i in range(7)),
            seeds_per_cell=1, master_seed=2,
        )
        sequential = run_tournament(spec, workers=1).to_csv()
        for workers in (2, 3, 8):
            assert run_tournament(spec, workers=workers).to_csv() == sequential

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_failing_cell_recorded_not_fatal(self, workers):
        bad_topo = TopologySpec(kind="geometric", n=12, radius=0.05)
        bad = dataclasses.replace(small_cell("bad"), topology=bad_topo)
        spec = TournamentSpec((bad, small_cell("good")), seeds_per_cell=1, master_seed=1)
        table = run_tournament(spec, workers=workers)
        assert "bad" in table.errors
        assert "good" in table.cells
        assert table.errors == run_tournament(spec).errors

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_failure_names_every_seed_and_reproduces(self, workers):
        bad_topo = TopologySpec(kind="geometric", n=12, radius=0.05)
        bad = dataclasses.replace(small_cell("bad"), topology=bad_topo)
        spec = TournamentSpec((small_cell("good"), bad), seeds_per_cell=2, master_seed=1)
        errors = run_tournament(spec, workers=workers).errors
        assert errors == run_tournament(spec).errors
        failures = errors["bad"].split("; ")
        assert len(failures) == 2
        for seed_index, failure in enumerate(failures):
            run_seed = derive_seed(1, 1, seed_index)
            prefix = f"seed {seed_index} (run seed {run_seed}): "
            assert failure.startswith(prefix)
            type_name = failure[len(prefix):].split(":", 1)[0]
            with pytest.raises(Exception) as info:
                run_cell_seed(bad, run_seed)
            assert type(info.value).__name__ == type_name

    def test_csv_shape(self):
        table = run_tournament(TournamentSpec((small_cell(),), seeds_per_cell=2, master_seed=5))
        lines = table.to_csv().splitlines()
        assert lines[0] == (
            "cell,strategy,mean_balance,mean_delivered,mean_fines,"
            "rank_1_count,rank_2_count,rank_3_count"
        )
        assert len(lines) == 4  # header + one row per strategy


POOL_FREE = """
import sys
from bidforward.engine import GameConfig
from bidforward.tournament import (
    CellSpec, TopologySpec, TournamentSpec, make_mix_entry, run_tournament,
)

cell = CellSpec("base", GameConfig(packets_total=8, injection_rate=2),
                TopologySpec(kind="ring", n=8, radius=None), (make_mix_entry("fair"),))
assert not run_tournament(TournamentSpec((cell,), seeds_per_cell=2), workers=2).errors
print(sorted({"concurrent.futures", "multiprocessing"} & set(sys.modules)))
"""


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedWorkers:
    """Worker processes that die, and a parent that fails while collecting."""

    def three_cells(self):
        return TournamentSpec(
            (small_cell("a"), small_cell("b", fine=20), small_cell("c", fine=40)),
            seeds_per_cell=1, master_seed=6,
        )

    def test_dead_worker_fails_its_tasks(self, monkeypatch):
        spec = self.three_cells()
        doomed = derive_seed(6, 1, 0)  # cell b, the one task of worker 1
        parent, real = os.getpid(), tournament.run_cell_seed

        def dies_on_doomed(cell, run_seed):
            if run_seed == doomed:
                assert os.getpid() != parent, "the task ran in the calling process"
                os._exit(7)
            return real(cell, run_seed)

        monkeypatch.setattr(tournament, "run_cell_seed", dies_on_doomed)
        table = run_tournament(spec, workers=2)
        assert table.errors == {"b": (
            f"seed 0 (run seed {doomed}): ChildProcessError: "
            "tournament worker exited with status 7 before reporting"
        )}
        monkeypatch.undo()
        expected = run_tournament(spec)
        assert {name: table.cells[name] for name in ("a", "c")} == {
            name: expected.cells[name] for name in ("a", "c")
        }
        assert "b" not in table.cells
        assert_no_child_left()

    def test_parent_failure_reaps_every_worker(self, monkeypatch):
        def bad_report(data):
            raise RuntimeError("report lost")

        monkeypatch.setattr(
            tournament, "marshal", types.SimpleNamespace(dumps=marshal.dumps, loads=bad_report)
        )
        with pytest.raises(RuntimeError, match="report lost"):
            run_tournament(self.three_cells(), workers=2)
        assert_no_child_left()

    def test_without_fork_every_task_runs_in_process(self, monkeypatch):
        spec = self.three_cells()
        expected = run_tournament(spec).to_csv()
        callers, real = [], tournament.run_cell_seed

        def spy(cell, run_seed):
            callers.append(os.getpid())
            return real(cell, run_seed)

        monkeypatch.setattr(tournament, "run_cell_seed", spy)
        monkeypatch.delattr(os, "fork")
        assert run_tournament(spec, workers=2).to_csv() == expected
        assert callers == [os.getpid()] * 3

    def test_pool_modules_never_imported(self):
        """A forked tournament in a fresh interpreter imports neither
        ``concurrent.futures`` nor ``multiprocessing``."""
        root = Path(__file__).resolve().parents[1]
        paths = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        proc = subprocess.run(
            [sys.executable, "-c", POOL_FREE],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestSweep:
    def test_single_value_equals_run_tournament(self):
        cell = small_cell()
        [(value, table)] = sweep("fine", [200], cell, 2, master_seed=7)
        direct = run_tournament(
            TournamentSpec(
                (dataclasses.replace(cell, name="base[fine=200]"),), 2, master_seed=7
            )
        )
        assert value == 200
        assert table.to_csv() == direct.to_csv()

    def test_axis_values_applied(self):
        tables = list(sweep("ttl", [1, 4], small_cell(), 1, master_seed=7))
        assert [v for v, _ in tables] == [1, 4]
        names = [next(iter(t.cells)) for _, t in tables]
        assert names == ["base[ttl=1]", "base[ttl=4]"]

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            sweep("budget", [1], small_cell(), 1, 0)
        with pytest.raises(ValueError):
            sweep("fine", [], small_cell(), 1, 0)

    def test_more_ttl_never_hurts_fair_delivery(self):
        cell = dataclasses.replace(
            small_cell(), mix=(make_mix_entry("fair"),),
            topology=TopologySpec(kind="grid", n=9, radius=None, gateways=(0,)),
        )
        tables = list(sweep("ttl", [1, 2, 4, 6], cell, 3, master_seed=11))
        delivered = [
            sum(a.total_delivered for a in t.cells[next(iter(t.cells))].values())
            for _, t in tables
        ]
        assert delivered == sorted(delivered)
