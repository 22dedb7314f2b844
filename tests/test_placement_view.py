"""Tests for :class:`~repro.placement.PlacementView`, the array form every
whitespace strategy's result takes.

A view must be indistinguishable from its object form
(:meth:`~repro.placement.PlacementView.to_placement`) to every consumer:
the placement digest (so legalize/sta keys and stores written from
:class:`~repro.placement.Placement` artifacts still hit), thermal binning
and compiled STA, bit for bit.  STA must read the view's coordinates,
never those of ``view.netlist``, which is the baseline's.
"""

from __future__ import annotations

import importlib.util
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    available_strategies, detect_hotspots, manage_area, unregister_strategy,
)
from repro.flow import ArtifactStore, FlowGraph, placement_digest
from repro.placement import PlacementView, insert_fillers
from repro.power import build_power_map
from repro.thermal import cell_temperatures
from repro.timing import DelayModel, StaticTimingAnalyzer

BUILTINS = ("default", "eri", "hw", "hybrid", "gradient")
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def views(small_placement, small_power, small_thermal):
    """Each built-in strategy's result at 15% overhead on the small circuit
    (where every one of them moves the baseline's critical path)."""
    return {
        name: manage_area(small_placement, small_power, small_thermal, name, 0.15).placement
        for name in BUILTINS
    }


def _timing(netlist, placement, temperature=60.0):
    return StaticTimingAnalyzer(
        netlist, delay_model=DelayModel(temperature=temperature), placement=placement,
    ).analyze()


@pytest.mark.parametrize("name", BUILTINS)
class TestViewMatchesObjectForm:
    def test_is_a_view_over_the_baseline_netlist(self, views, small_placement, name):
        view = views[name]
        assert isinstance(view, PlacementView)
        assert view.netlist is small_placement.netlist

    def test_digest_equals_object_form(self, views, name):
        view = views[name]
        assert placement_digest(view) == placement_digest(view.to_placement())

    def test_power_map_equals_object_form(self, views, small_power, name):
        view = views[name]
        from_view = build_power_map(view, small_power)
        from_objects = build_power_map(view.to_placement(), small_power)
        assert from_view.power_w.tobytes() == from_objects.power_w.tobytes()
        assert from_view.origin_um == from_objects.origin_um

    def test_reference_binning_equals_compiled(self, views, small_power, name):
        view = views[name]
        compiled = build_power_map(view, small_power, engine="compiled")
        reference = build_power_map(view, small_power, engine="reference")
        np.testing.assert_allclose(reference.power_w, compiled.power_w, rtol=1e-12)

    def test_sta_reads_the_view_not_its_netlist(self, views, small_placement, name):
        view = views[name]
        objects = view.to_placement()
        timing = _timing(view.netlist, view)
        assert timing == _timing(objects.netlist, None)
        # view.netlist carries the baseline's coordinates: reading them
        # would silently report the baseline's timing.
        baseline = _timing(small_placement.netlist, None)
        assert _timing(view.netlist, None) == baseline
        assert timing.critical_path_ps != baseline.critical_path_ps

    def test_arrays_are_read_only(self, views, name):
        view = views[name]
        for array in view.coordinate_arrays():
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1

    def test_pickles_through_a_disk_store(self, views, tmp_path, name):
        view = views[name]
        store = ArtifactStore(root=tmp_path)
        store.put("whitespace", "k", view)
        loaded = ArtifactStore(root=tmp_path).get("whitespace", "k")
        assert isinstance(loaded, PlacementView)
        assert loaded is not view
        assert placement_digest(loaded) == placement_digest(view)
        assert not any(array.flags.writeable for array in loaded.coordinate_arrays())
        assert pickle.loads(pickle.dumps(view)).fillers.x.tobytes() == view.fillers.x.tobytes()


@pytest.mark.parametrize("engine", ["compiled", "reference"])
@pytest.mark.parametrize("form", ["placement", "view"])
class TestBaselineConsumersAcceptViews:
    """Every consumer of a baseline gives the same answer for a
    :class:`Placement` and its frozen view, under each engine."""

    @staticmethod
    def _baseline(small_placement, form):
        return small_placement if form == "placement" else PlacementView.of(small_placement)

    def test_detect_hotspots(self, small_placement, small_power, small_thermal, form, engine):
        baseline = self._baseline(small_placement, form)
        got = detect_hotspots(small_thermal, baseline, power=small_power, engine=engine)
        want = detect_hotspots(small_thermal, small_placement, power=small_power, engine=engine)
        assert got and got == want

    def test_cell_temperatures(self, small_placement, small_thermal, form, engine):
        baseline = self._baseline(small_placement, form)
        got = cell_temperatures(baseline, small_thermal, engine=engine)
        assert got == cell_temperatures(small_placement, small_thermal, engine=engine)

    def test_default_spread(self, small_placement, form, engine):
        from repro.core import apply_default_spread
        from repro.engine import use_engine

        with use_engine(engine):
            got = apply_default_spread(self._baseline(small_placement, form), 0.2)
            want = apply_default_spread(small_placement, 0.2)
        assert got.actual_overhead == want.actual_overhead
        assert placement_digest(got.placement) == placement_digest(want.placement)

    def test_hotspot_wrapper(self, small_placement, small_power, small_thermal, form, engine):
        from repro.core import apply_hotspot_wrapper
        from repro.engine import use_engine

        hotspots = detect_hotspots(small_thermal, small_placement, power=small_power)
        with use_engine(engine):
            got = apply_hotspot_wrapper(self._baseline(small_placement, form), hotspots)
            want = apply_hotspot_wrapper(small_placement, hotspots)
        assert got.wrapped == want.wrapped
        assert placement_digest(got.placement) == placement_digest(want.placement)
        assert got.placement.netlist is small_placement.netlist


def test_default_fills_the_relaxed_view_like_insert_fillers(small_placement):
    """The array fill reproduces the object fill on the same placement."""
    from repro.core import apply_default_spread

    relaxed = apply_default_spread(small_placement, 0.2, add_fillers=False).placement
    view = relaxed.with_fillers()
    relaxed = relaxed.to_placement()
    block = insert_fillers(relaxed)
    assert len(view.fillers) == len(block) > 0
    for name in ("row", "x", "master"):
        assert getattr(view.fillers, name).tobytes() == getattr(block, name).tobytes()
    assert view.fillers.first_index == block.first_index
    assert placement_digest(view) == placement_digest(relaxed)


def test_a_plugin_placement_is_frozen_into_a_view(
    small_placement, small_power, small_thermal
):
    """A strategy that returns a Placement still yields a view artifact."""
    from repro.core import (
        StrategyContext, StrategyResult, WhitespaceStrategy, register_strategy,
    )

    @register_strategy
    class Copying(WhitespaceStrategy):
        """Return an unchanged copy of the baseline placement."""

        name = "copying-probe"

        def apply(self, ctx: StrategyContext) -> StrategyResult:
            return StrategyResult(placement=ctx.placement.copy(), actual_overhead=0.0)

    try:
        artifact = FlowGraph.pass_through().whitespace(
            small_placement, small_power, small_thermal, "copying-probe", 0.1
        )
    finally:
        unregister_strategy("copying-probe")
    assert isinstance(artifact.placement, PlacementView)
    assert artifact.placement.netlist is small_placement.netlist
    assert placement_digest(artifact.placement) == placement_digest(small_placement)


def test_custom_strategy_example_runs(capsys):
    """``examples/custom_strategy.py`` registers a plugin returning
    ``apply_row_insertions``' view and runs a campaign with it."""
    path = ROOT / "examples" / "custom_strategy.py"
    spec = importlib.util.spec_from_file_location("custom_strategy_example", path)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        unregister_strategy("checkerboard")
    assert "checkerboard" not in available_strategies()
    assert "checkerboard:stride=4" in capsys.readouterr().out
