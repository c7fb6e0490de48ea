import dataclasses

import pytest

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
        spec = TournamentSpec(
            (small_cell("a"), small_cell("b", fine=20)), seeds_per_cell=2, master_seed=2
        )
        assert run_tournament(spec, workers=1).to_csv() == run_tournament(spec, workers=2).to_csv()

    def test_failing_cell_recorded_not_fatal(self):
        bad_topo = TopologySpec(kind="geometric", n=12, radius=0.05)
        bad = dataclasses.replace(small_cell("bad"), topology=bad_topo)
        spec = TournamentSpec((bad, small_cell("good")), seeds_per_cell=1, master_seed=1)
        table = run_tournament(spec)
        assert "bad" in table.errors
        assert "good" in table.cells

    def test_failure_names_every_seed_and_reproduces(self):
        bad_topo = TopologySpec(kind="geometric", n=12, radius=0.05)
        bad = dataclasses.replace(small_cell("bad"), topology=bad_topo)
        spec = TournamentSpec((small_cell("good"), bad), seeds_per_cell=2, master_seed=1)
        message = run_tournament(spec).errors["bad"]
        failures = message.split("; ")
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
