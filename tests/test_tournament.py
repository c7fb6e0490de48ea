import dataclasses
import marshal
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from bidforward import config as cfg
from bidforward import tournament

from bidforward.engine import GameConfig, run_simulation
from bidforward.seeding import derive_seed
from bidforward.strategies import build_strategy
from bidforward.tournament import (
    CellSpec,
    MixError,
    TopologySpec,
    TournamentSpec,
    assign_mix,
    make_mix_entry,
    run_cell_seed,
    run_tournament,
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


def sweep_tree(axis, values, seeds, master_seed, topology=None, strategies=None, packets=8):
    """The config tree of a sweep over a small ring, or over ``topology`` with
    ``strategies``."""
    return {
        "game": {"packets_total": packets, "injection_rate": 2, "seed": master_seed},
        "topology": topology or {"kind": "ring", "n": 8, "radius": None},
        "strategies": strategies or [
            {"strategy": "fair", "count": 4},
            {"strategy": "wolfpack", "params": {"pack": "a"}, "count": 2},
            {"strategy": "random", "rest": True},
        ],
        "tournament": {"seeds": seeds, "sweep": {"axis": axis, "values": values}},
    }


def swept_spec(*args, **kwargs):
    """The spec ``config.build_tournament`` makes of ``sweep_tree(*args, **kwargs)``."""
    spec, _ = cfg.build_tournament(sweep_tree(*args, **kwargs))
    return spec


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

    @pytest.mark.parametrize("observation, churn_rate", [("global", 0.0), ("khop:2", 0.05)])
    def test_cell_seed_sums_equal_a_logged_run(self, observation, churn_rate):
        mix = (
            make_mix_entry("fair", nodes=(0,)),
            make_mix_entry("always_one", count=3),
            make_mix_entry("sniper", count=3),
            make_mix_entry("wolfpack", {"pack": "a", "sabotage_enabled": True}, count=3),
            make_mix_entry("random"),
        )
        config = GameConfig(
            packets_total=30, injection_rate=2, ttl=3, observation=observation,
            churn_rate=churn_rate,
        )
        topo = TopologySpec(kind="geometric", n=14, radius=0.35, gateways=(0,))
        cell = CellSpec(name="mixed", config=config, topology=topo, mix=mix)
        for run_seed in (derive_seed(3, 0, s) for s in range(3)):
            graph = topo.build(run_seed)
            assignment = {
                node: build_strategy(name, params)
                for node, (name, params) in assign_mix(mix, graph.n, run_seed).items()
            }
            result = run_simulation(
                dataclasses.replace(config, master_seed=run_seed), graph, assignment
            )
            assert result.events
            sums = {}
            for node, name in result.strategy_names.items():
                cnt, bal, deliv, fines = sums.get(name, (0, 0, 0, 0))
                stats = result.stats[node]
                sums[name] = (cnt + 1, bal + result.balances[node],
                              deliv + stats.delivered, fines + stats.fines_paid)
            assert run_cell_seed(cell, run_seed) == sums

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
    def test_each_value_equals_a_one_cell_tournament(self):
        # A sweep's values share seeds: each runs the seeds it would run alone.
        spec = swept_spec("fine", [0, 200], seeds=2, master_seed=7)
        table = run_tournament(spec)
        assert list(table.cells) == ["base[fine=0]", "base[fine=200]"]
        for cell in spec.cells:
            alone = run_tournament(TournamentSpec((cell,), 2, master_seed=7))
            assert table.only(cell.name).to_csv() == alone.to_csv()

    def test_cells_of_a_sweep_share_seeds_and_other_cells_do_not(self):
        spec = swept_spec("ttl", [1, 4], seeds=3, master_seed=7)
        plain = dataclasses.replace(spec, sweep=None)
        for si in range(3):
            assert spec.run_seed(0, si) == spec.run_seed(1, si) == derive_seed(7, 0, si)
            assert plain.run_seed(1, si) == derive_seed(7, 1, si) != plain.run_seed(0, si)

    def test_axis_values_applied(self):
        spec = swept_spec("ttl", [1, 4], seeds=1, master_seed=7)
        assert spec.sweep == ("ttl", (1, 4))
        assert [cell.config.ttl for cell in spec.cells] == [1, 4]
        names = list(run_tournament(spec).cells)
        assert names == ["base[ttl=1]", "base[ttl=4]"]

    def test_a_ttl_cell_runs_as_its_config_alone(self):
        # The snipers' predictors scale by the cell's own TTL, not the base's.
        tree = sweep_tree(
            "ttl", [4], seeds=6, master_seed=3,
            topology={"kind": "geometric", "n": 16, "radius": 0.4},
            strategies=[
                {"strategy": "fair", "nodes": [0]},
                {"strategy": "sniper", "count": 6},
                {"strategy": "fair", "rest": True},
            ],
            packets=60,
        )
        spec, _ = cfg.build_tournament(tree)
        del tree["tournament"]
        cfg.apply_override(tree, "game.ttl=4")
        alone = cfg.build_cell(tree, "alone")
        for si in range(spec.seeds_per_cell):
            run_seed = spec.run_seed(0, si)
            assert run_cell_seed(spec.cells[0], run_seed) == run_cell_seed(alone, run_seed)

    def test_more_ttl_never_hurts_fair_delivery(self):
        spec = swept_spec(
            "ttl", [1, 2, 4, 6], seeds=3, master_seed=11,
            topology={"kind": "grid", "n": 9, "radius": None},
            strategies=[{"strategy": "fair", "rest": True}],
        )
        table = run_tournament(spec)
        delivered = [
            sum(a.total_delivered for a in table.cells[cell.name].values())
            for cell in spec.cells
        ]
        assert delivered == sorted(delivered)
