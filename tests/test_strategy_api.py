"""Tests for the pluggable whitespace-strategy API.

Covers the registry (registration, duplicate rejection, resolution with
parameters), the spec grammar round-trips, spec resolution, and
outcome sanity for the two new built-in strategies
(``hybrid`` and ``gradient``) on the quickstart circuit.
"""

import numpy as np
import pytest

from repro.core import (
    ERI_HOTSPOT_THRESHOLD,
    StrategyContext,
    StrategyResult,
    WhitespaceStrategy,
    apply_row_insertions,
    available_strategies,
    format_strategy_spec,
    manage_area,
    parse_strategy_spec,
    plan_gradient_insertion_points,
    register_strategy,
    resolve_strategy,
    row_temperature_weights,
    split_spec_list,
    strategy_class,
    unregister_strategy,
)
from repro.thermal import simulate_placement


class _NullStrategy(WhitespaceStrategy):
    """Do-nothing strategy used to exercise the registry."""

    name = "null-test"
    default_hotspot_threshold = 0.6
    param_defaults = {"shift": 0, "scale": 1.0, "enabled": True}

    def apply(self, ctx: StrategyContext) -> StrategyResult:
        return StrategyResult(placement=ctx.placement, actual_overhead=0.0)


@pytest.fixture()
def null_strategy():
    register_strategy(_NullStrategy)
    yield _NullStrategy
    unregister_strategy(_NullStrategy.name)


class TestRegistry:
    def test_builtins_registered(self):
        names = available_strategies()
        for name in ("default", "eri", "hw", "hybrid", "gradient"):
            assert name in names

    def test_register_and_resolve(self, null_strategy):
        assert "null-test" in available_strategies()
        assert strategy_class("null-test") is null_strategy
        resolved = resolve_strategy("null-test:shift=3,scale=2.5,enabled=false")
        assert isinstance(resolved, null_strategy)
        assert resolved.overrides == {"shift": 3, "scale": 2.5, "enabled": False}
        assert resolved.params["shift"] == 3

    def test_duplicate_name_rejected(self, null_strategy):
        with pytest.raises(ValueError, match="already registered"):
            register_strategy(null_strategy)
        # But replace=True swaps the registration in.
        register_strategy(replace=True)(null_strategy)
        assert strategy_class("null-test") is null_strategy

    def test_rejects_non_strategy(self):
        with pytest.raises(TypeError, match="WhitespaceStrategy subclass"):
            register_strategy(dict)

    def test_rejects_bad_name(self):
        class BadName(WhitespaceStrategy):
            name = "Bad Name!"

            def apply(self, ctx):
                raise NotImplementedError

        with pytest.raises(ValueError, match="lowercase 'name'"):
            register_strategy(BadName)

    def test_rejects_abstract(self):
        class NoApply(WhitespaceStrategy):
            name = "no-apply"

        with pytest.raises(TypeError, match="does not implement apply"):
            register_strategy(NoApply)

    def test_unknown_name_suggests_close_match(self):
        with pytest.raises(ValueError, match="did you mean 'gradient'"):
            resolve_strategy("gradiant")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="has no parameter 'rings'"):
            resolve_strategy("hw:rings=9")

    def test_param_type_coercion_and_rejection(self):
        assert resolve_strategy("hw:ring_um=8").overrides["ring_um"] == 8.0
        assert resolve_strategy("hw:max_source_units=3").overrides[
            "max_source_units"
        ] == 3
        with pytest.raises(ValueError, match="expects float"):
            resolve_strategy("hw:ring_um=wide")

    def test_int_param_rejects_fractional_floats(self):
        with pytest.raises(ValueError, match="expects int"):
            resolve_strategy("hw:max_source_units=2.7")
        # Integral floats are exact, so they pass.
        assert resolve_strategy("hw:max_source_units=3.0").overrides[
            "max_source_units"
        ] == 3

    def test_bool_param_accepts_numeric_spellings(self, null_strategy):
        assert resolve_strategy("null-test:enabled=1").overrides["enabled"] is True
        assert resolve_strategy("null-test:enabled=0").overrides["enabled"] is False
        assert resolve_strategy("null-test:enabled=off").overrides["enabled"] is False
        with pytest.raises(ValueError, match="expects bool"):
            resolve_strategy("null-test:enabled=2")

    def test_range_validation_happens_at_resolve_time(self):
        # Bad ranges must fail up front (the CLI gate), not deep in apply().
        with pytest.raises(ValueError, match="exponent must be positive"):
            resolve_strategy("gradient:exponent=-2")
        with pytest.raises(ValueError, match="ring_um must be non-negative"):
            resolve_strategy("hw:ring_um=-1")
        with pytest.raises(ValueError, match="max_source_units must be >= 1"):
            resolve_strategy("hybrid:max_source_units=0")
        with pytest.raises(ValueError, match="tight_threshold must be in"):
            resolve_strategy("hybrid:tight_threshold=1.5")

    def test_universal_hotspot_threshold_param(self):
        resolved = resolve_strategy("eri:hotspot_threshold=0.9")
        assert resolved.effective_hotspot_threshold() == pytest.approx(0.9)
        with pytest.raises(ValueError, match="hotspot_threshold"):
            resolve_strategy("eri:hotspot_threshold=1.5")


class TestSpecGrammar:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("hw", ("hw", {})),
            ("HW", ("hw", {})),
            ("hw:ring_um=8,max_source_units=3", ("hw", {"ring_um": 8, "max_source_units": 3})),
            ({"name": "hw", "ring_um": 8}, ("hw", {"ring_um": 8})),
            ({"name": "hw", "params": {"ring_um": 8}}, ("hw", {"ring_um": 8})),
        ],
    )
    def test_parse_forms(self, spec, expected):
        assert parse_strategy_spec(spec) == expected

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError, match="malformed parameter"):
            parse_strategy_spec("hw:ring_um")
        with pytest.raises(ValueError, match="empty strategy name"):
            parse_strategy_spec(":x=1")
        with pytest.raises(ValueError, match="'name' key"):
            parse_strategy_spec({"ring_um": 8})
        with pytest.raises(TypeError, match="strategy spec"):
            parse_strategy_spec(42)

    def test_format_parse_round_trip(self):
        name, params = "hw", {"ring_um": 8.0, "max_source_units": 3}
        text = format_strategy_spec(name, params)
        assert parse_strategy_spec(text) == (name, params)

    def test_resolve_spec_round_trip(self):
        resolved = resolve_strategy("hw:max_source_units=3,ring_um=8")
        again = resolve_strategy(resolved.spec)
        assert again.spec == resolved.spec
        assert again == resolved
        assert resolve_strategy("eri").spec == "eri"

    def test_split_spec_list_keeps_param_commas(self):
        text = "default,hw:ring_um=8,max_source_units=3,gradient:exponent=2"
        assert split_spec_list(text) == [
            "default",
            "hw:ring_um=8,max_source_units=3",
            "gradient:exponent=2",
        ]
        assert split_spec_list("eri") == ["eri"]
        assert split_spec_list(" default , eri ") == ["default", "eri"]


class TestConfigResolution:
    def test_bare_builtin_names_stay_plain_names(self):
        strategy = resolve_strategy("hw")
        assert strategy.spec == "hw" and type(strategy.spec) is str
        assert strategy.overrides == {}

    def test_parameterized_spec(self):
        strategy = resolve_strategy("hw:ring_um=9")
        # With overrides bound the canonical spec names the parameters.
        assert strategy.spec == "hw:ring_um=9.0"
        assert strategy.overrides == {"ring_um": 9.0}
        assert strategy != resolve_strategy("hw")

    def test_new_strategy_names_stay_strings(self):
        strategy = resolve_strategy("hybrid")
        assert strategy.spec == "hybrid"
        assert strategy.effective_hotspot_threshold() == ERI_HOTSPOT_THRESHOLD

    def test_spec_threshold_param_drives_detection(self):
        strategy = resolve_strategy("eri:hotspot_threshold=0.9")
        assert strategy.effective_hotspot_threshold() == pytest.approx(0.9)


class TestGradientPlanner:
    def test_weights_follow_row_temperature(self, small_placement, small_thermal):
        weights = row_temperature_weights(small_placement, small_thermal)
        assert weights.shape == (small_placement.floorplan.num_rows,)
        assert (weights >= 0.0).all()
        assert weights.max() == pytest.approx(1.0)

    def test_budget_is_conserved_and_deterministic(self, small_placement, small_thermal):
        points = plan_gradient_insertion_points(small_placement, small_thermal, 7)
        assert len(points) == 7
        assert points == sorted(points)
        assert points == plan_gradient_insertion_points(small_placement, small_thermal, 7)
        assert plan_gradient_insertion_points(small_placement, small_thermal, 0) == []

    def test_hot_rows_receive_more(self, small_placement, small_thermal):
        weights = row_temperature_weights(small_placement, small_thermal)
        points = plan_gradient_insertion_points(small_placement, small_thermal, 10)
        counts = np.bincount(points, minlength=len(weights))
        hot = weights >= np.percentile(weights, 75)
        cold = weights <= np.percentile(weights, 25)
        assert counts[hot].sum() > counts[cold].sum()

    def test_apply_row_insertions_validates_points(self, small_placement):
        with pytest.raises(ValueError, match="outside baseline rows"):
            apply_row_insertions(small_placement, [10_000])


class TestNewStrategiesOutcomes:
    """`hybrid` and `gradient` must actually cool the quickstart circuit."""

    @pytest.fixture(scope="class")
    def inputs(self, small_placement, small_power, small_thermal):
        return small_placement, small_power, small_thermal

    @pytest.mark.parametrize("spec", ["hybrid", "gradient"])
    def test_reduction_positive_at_15_percent(self, inputs, spec):
        placement, power, thermal = inputs
        result = manage_area(placement, power, thermal, spec, 0.15)
        new_map = simulate_placement(result.placement, power, warm_start=thermal)
        assert result.actual_overhead >= 0.15 - 1e-9
        assert result.inserted_rows > 0
        assert result.placement.to_placement().check_legal() == []
        assert new_map.reduction_versus(thermal) > 0.0

    def test_hybrid_wraps_after_inserting_rows(self, inputs):
        placement, power, thermal = inputs
        result = manage_area(placement, power, thermal, "hybrid", 0.2)
        assert result.placement.floorplan.num_rows > placement.floorplan.num_rows
        assert "eri" in result.details and "wrapper" in result.details

    def test_gradient_exponent_sharpens_allocation(self, inputs):
        placement, power, thermal = inputs
        flat = resolve_strategy("gradient:exponent=0.5")
        sharp = resolve_strategy("gradient:exponent=3")
        ctx_args = dict(placement=placement, power=power, thermal_map=thermal,
                        hotspots=[], area_overhead=0.15)
        flat_rows = flat.apply(StrategyContext(**ctx_args)).details.insertion_points
        sharp_rows = sharp.apply(StrategyContext(**ctx_args)).details.insertion_points
        # A sharper exponent concentrates the budget on fewer distinct rows.
        assert len(set(sharp_rows)) <= len(set(flat_rows))


class TestCustomStrategyEndToEnd:
    """A strategy registered from outside ``src/repro`` runs through the flow."""

    def test_custom_strategy_through_area_manager(
        self, small_placement, small_power, small_thermal
    ):
        @register_strategy
        class EveryKthRow(WhitespaceStrategy):
            """Insert an empty row below every k-th baseline row."""

            name = "every-kth-row"
            param_defaults = {"k": 4}

            def apply(self, ctx: StrategyContext) -> StrategyResult:
                from repro.core import rows_for_overhead

                k = int(self.param("k"))
                budget = rows_for_overhead(ctx.placement, ctx.area_overhead)
                num_rows = ctx.placement.floorplan.num_rows
                points = [(i * k) % num_rows for i in range(budget)]
                result = apply_row_insertions(
                    ctx.placement, sorted(points),
                    requested_overhead=ctx.area_overhead,
                )
                return StrategyResult(
                    placement=result.placement,
                    actual_overhead=result.actual_overhead,
                    inserted_rows=result.inserted_rows,
                    num_fillers=result.num_fillers,
                    details=result,
                )

        try:
            result = manage_area(
                small_placement, small_power, small_thermal, "every-kth-row:k=3", 0.1
            )
            assert result.inserted_rows > 0
            assert result.placement.to_placement().check_legal() == []
        finally:
            unregister_strategy("every-kth-row")
