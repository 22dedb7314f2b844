"""Golden-equivalence suite: caching flow graphs versus the pass-through one.

Every evaluation runs through :class:`repro.flow.FlowGraph`.  Calls that
pass no ``flow`` get a pass-through graph that caches and hashes nothing —
each stage body simply runs — and that is the reference here.  A caching
graph (over a content-addressed :class:`repro.flow.ArtifactStore`) is only
correct if it is *bitwise* indistinguishable from it — same placements,
same power maps, same solved temperatures, same timing, for every
registered strategy, whether the artifacts are built cold, replayed warm
from memory, replayed from a fresh process off the disk tier, or
partially invalidated by a mutation.

:class:`~repro.flow.experiment.StrategyOutcome` is a flat dataclass of
floats/ints/strings, so ``==`` between two outcomes is exactly the bitwise
claim: Python float equality holds only for identical IEEE-754 bit
patterns (modulo -0.0/NaN, neither of which these pipelines produce).
"""

from __future__ import annotations

import random

import pytest

import repro.flow.graph as graph_module
from repro.bench import UnitSpec, build_synthetic_circuit, scattered_hotspots_workload
from repro.core.strategy import available_strategies
from repro.flow import (
    ArtifactStore,
    Campaign,
    ExperimentSetup,
    FlowGraph,
    SolverCache,
    evaluate_strategy,
)

# Coarse-but-representative knobs: every stage (placement, logic sim,
# binning, solve, STA) still runs, at a fraction of the paper-sized cost.
NX = NY = 12
CYCLES = 6
BATCH = 8
SEED = 11


def _random_units(rng: random.Random) -> tuple:
    """A small random unit mix (3-5 units, mixed kinds and widths)."""
    kinds = ["array_mult", "wallace_mult", "mac", "rca", "cla", "csa"]
    units = []
    for index in range(rng.randint(3, 5)):
        kind = rng.choice(kinds)
        width = rng.randint(6, 12)
        operands = rng.choice([4, 8])
        units.append(UnitSpec(f"u{index}_{kind}", kind, width, operands=operands))
    return tuple(units)


def _random_circuit(seed: int):
    rng = random.Random(seed)
    return build_synthetic_circuit(units=_random_units(rng), name=f"rand{seed}")


def _prepare(netlist, workload, flow=None, cache=None):
    # prepare() places in-place, so every pipeline gets its own copy of
    # the circuit; content-addressed keys make the copies collide on
    # purpose in the staged runs.
    return ExperimentSetup.prepare(
        netlist.copy(),
        workload,
        grid_nx=NX,
        grid_ny=NY,
        num_cycles=CYCLES,
        batch_size=BATCH,
        seed=SEED,
        cache=cache,
        flow=flow,
    )


@pytest.fixture(scope="module")
def circuits():
    """Two random circuits with their workloads (built once per module)."""
    out = []
    for seed in (3, 17):
        netlist = _random_circuit(seed)
        out.append((netlist, scattered_hotspots_workload(netlist, num_hotspots=2)))
    return out


class TestGoldenEquivalence:
    def test_cold_and_warm_match_monolithic_for_every_strategy(self, circuits):
        """Caching graph == pass-through for all registered strategies; warm
        replay of a content-equal circuit re-executes nothing and changes
        nothing."""
        for netlist, workload in circuits:
            ref_setup = _prepare(netlist, workload, cache=SolverCache())
            flow = FlowGraph(store=ArtifactStore())
            staged_setup = _prepare(netlist, workload, flow=flow)

            assert staged_setup.thermal_map.peak == ref_setup.thermal_map.peak
            assert staged_setup.timing.critical_path_ps == (
                ref_setup.timing.critical_path_ps
            )

            for strategy in available_strategies():
                ref = evaluate_strategy(
                    ref_setup, strategy, 0.15, analyze_timing=True
                )
                cold = evaluate_strategy(
                    staged_setup, strategy, 0.15, analyze_timing=True, flow=flow
                )
                assert cold == ref, f"cold cached != pass-through for {strategy}"

            executions_after_cold = dict(flow.stage_executions)
            assert executions_after_cold["synth"] == 1
            assert executions_after_cold["power"] == 1

            # Warm pass: a content-equal copy of the circuit through the
            # same graph must be answered entirely from the store.
            warm_setup = _prepare(netlist, workload, flow=flow)
            for strategy in available_strategies():
                warm = evaluate_strategy(
                    warm_setup, strategy, 0.15, analyze_timing=True, flow=flow
                )
                ref = evaluate_strategy(
                    ref_setup, strategy, 0.15, analyze_timing=True
                )
                assert warm == ref, f"warm cached != pass-through for {strategy}"
            assert dict(flow.stage_executions) == executions_after_cold, (
                "warm replay re-executed stages"
            )

    def test_disk_tier_replay_matches(self, circuits, tmp_path):
        """A fresh graph over the same on-disk store replays every stage
        from disk, bitwise identical, with zero executions."""
        netlist, workload = circuits[0]
        root = tmp_path / "artifacts"

        first = FlowGraph(store=ArtifactStore(root=root))
        setup1 = _prepare(netlist, workload, flow=first)
        cold = evaluate_strategy(setup1, "eri", 0.15, analyze_timing=True, flow=first)

        # New graph, new memory tier, same disk tier — a stand-in for a
        # fresh process pointed at the same cache directory.
        second = FlowGraph(store=ArtifactStore(root=root))
        setup2 = _prepare(netlist, workload, flow=second)
        replay = evaluate_strategy(setup2, "eri", 0.15, analyze_timing=True, flow=second)

        assert replay == cold
        assert setup2.thermal_map.peak == setup1.thermal_map.peak
        assert sum(second.stage_executions.values()) == 0
        assert second.store.stats().disk_hits > 0

    def test_partial_invalidation_reruns_only_downstream(self, circuits):
        """A new overhead invalidates whitespace onward but nothing
        upstream; the partially-warm result still matches a pass-through
        evaluation of the same point."""
        netlist, workload = circuits[1]
        flow = FlowGraph(store=ArtifactStore())
        staged_setup = _prepare(netlist, workload, flow=flow)
        evaluate_strategy(staged_setup, "eri", 0.10, analyze_timing=True, flow=flow)

        before = dict(flow.stage_executions)
        staged = evaluate_strategy(
            staged_setup, "eri", 0.25, analyze_timing=True, flow=flow
        )
        after = dict(flow.stage_executions)

        assert after["synth"] == before["synth"], "overhead change re-ran synth"
        assert after["power"] == before["power"], "overhead change re-ran power"
        assert after["whitespace"] == before["whitespace"] + 1

        ref_setup = _prepare(netlist, workload)
        ref = evaluate_strategy(ref_setup, "eri", 0.25, analyze_timing=True)
        assert staged == ref

    def test_circuit_mutation_invalidates_synth(self, circuits):
        """Editing the circuit changes the synth key: the mutated design
        re-places, and its cached outcome matches its own pass-through run."""
        netlist, _ = circuits[0]
        flow = FlowGraph(store=ArtifactStore())
        workload = scattered_hotspots_workload(netlist, num_hotspots=2)
        _prepare(netlist, workload, flow=flow)
        assert flow.stage_executions["synth"] == 1

        mutated = netlist.copy()
        first_unit = next(iter(mutated.cells.values())).unit
        extra = mutated.add_cell("tweak_inv", "INV_X1", unit=first_unit)
        mutated.connect("tweak_net", extra.pin("A"))
        mutated_workload = scattered_hotspots_workload(mutated, num_hotspots=2)

        staged_setup = _prepare(mutated, mutated_workload, flow=flow)
        assert flow.stage_executions["synth"] == 2

        staged = evaluate_strategy(
            staged_setup, "default", 0.15, analyze_timing=True, flow=flow
        )
        ref_setup = _prepare(mutated, mutated_workload)
        ref = evaluate_strategy(ref_setup, "default", 0.15, analyze_timing=True)
        assert staged == ref


class TestCampaignEquivalence:
    def test_staged_campaign_records_match_monolithic(self, circuits):
        """A Campaign over a caching graph is record-for-record identical
        to one over the default pass-through graph."""
        netlist, workload = circuits[0]
        strategies = ("default", "eri", "hw")
        overheads = (0.1, 0.2)

        ref_setup = _prepare(netlist, workload, cache=SolverCache())
        ref = Campaign(
            ref_setup,
            strategies=strategies,
            overheads=overheads,
            analyze_timing=True,
            name="pass-through",
        ).run()

        flow = FlowGraph(store=ArtifactStore())
        staged_setup = _prepare(netlist, workload, flow=flow)
        staged = Campaign(
            staged_setup,
            strategies=strategies,
            overheads=overheads,
            analyze_timing=True,
            name="staged",
            flow=flow,
        ).run()

        assert len(staged.records) == len(ref.records)
        for srec, rrec in zip(staged.records, ref.records):
            assert srec.point == rrec.point
            assert srec.outcome == rrec.outcome

        # The shared prefix ran exactly once for the whole grid.
        assert flow.stage_executions["synth"] == 1
        assert flow.stage_executions["power"] == 1
        assert staged.metadata["flow_stages"]["stage_executions"]["synth"] == 1


class TestPassThrough:
    """A graph whose store can hold nothing hashes nothing."""

    @pytest.fixture
    def hash_calls(self, monkeypatch):
        calls = []
        original = graph_module.hash_parts

        def counting(*parts):
            calls.append(parts[1])
            return original(*parts)

        monkeypatch.setattr(graph_module, "hash_parts", counting)
        return calls

    def test_default_calls_never_hash(self, circuits, hash_calls):
        netlist, workload = circuits[0]
        setup = _prepare(netlist, workload)
        evaluate_strategy(setup, "hw", 0.15, analyze_timing=True)
        result = Campaign(
            setup, ("default", "eri"), (0.1,), analyze_timing=True
        ).run(max_workers=2)
        assert hash_calls == []
        # The pass-through graph still counts every stage it executed,
        # the batched thermal lanes included.
        executions = result.metadata["flow_stages"]["stage_executions"]
        assert executions == {
            "relax": 1, "whitespace": 2, "legalize": 2, "thermal": 2, "sta": 2,
        }

    def test_caching_graph_hashes(self, circuits, hash_calls):
        netlist, workload = circuits[0]
        flow = FlowGraph()
        setup = _prepare(netlist, workload, flow=flow)
        evaluate_strategy(setup, "hw", 0.15, analyze_timing=True, flow=flow)
        evaluated = len(hash_calls)
        assert evaluated > 0
        Campaign(
            setup, ("default", "eri"), (0.1,), analyze_timing=True, flow=flow
        ).run(max_workers=2)
        assert len(hash_calls) > evaluated

    def test_pass_through_artifacts_carry_no_key(self, circuits):
        netlist, workload = circuits[0]
        flow = FlowGraph(store=ArtifactStore(maxsize=0))
        setup = _prepare(netlist, workload, flow=flow)
        artifact = flow.whitespace(
            setup.placement, setup.power, setup.thermal_map, "eri", 0.15
        )
        assert artifact.key is None
        assert flow.stage_executions["whitespace"] == 1
        assert flow.stage_hits == {}
        assert len(flow.store) == 0
