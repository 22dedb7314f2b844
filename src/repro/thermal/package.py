"""Die and package thermal stack.

Section II of the paper: "temperature profile inside a chip is largely
dependent on the package...  In our thermal model, we adopted the thermal
conductivities of different layers from [11].  The z direction is
discretized into 9 layers and on each layer x and y directions are both
discretized into 40 units which results in a grid of 1600 cells."

We model the same structure: a stack of nine material layers (metal/ILD on
top, the active device layer, bulk silicon, die attach and the package
spreader at the bottom), each with its own thickness and thermal
conductivity, plus the boundary that removes heat to the ambient: a
per-area heat-transfer coefficient under the bottom layer feeding a lumped
package-to-ambient resistance, and a weak convection path from the top
surface.  The exact STM package data used by the authors is not public, so
the default values are calibrated to land in the paper's reported range of
"a few degrees to 25 degrees above ambient" for the synthetic benchmark
(see DESIGN.md, substitution table).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..floatsum import ordered_sum


@dataclass(frozen=True)
class Layer:
    """One material layer of the thermal stack.

    Attributes:
        name: Human-readable layer name.
        thickness_um: Layer thickness in micrometres.
        conductivity: Thermal conductivity in W/(m*K).
    """

    name: str
    thickness_um: float
    conductivity: float

    @property
    def thickness_m(self) -> float:
        """Thickness in metres."""
        return self.thickness_um * 1e-6

    @property
    def vertical_resistivity(self) -> float:
        """Vertical thermal resistance per unit area, in K*m^2/W."""
        return self.thickness_m / self.conductivity


@dataclass
class Package:
    """The full thermal stack and its boundary conditions.

    Attributes:
        layers: Material layers ordered top (index 0) to bottom.
        active_layer: Index of the layer into which cell power is injected
            (the device layer).
        ambient_celsius: Ambient temperature.
        bottom_htc: Effective heat-transfer coefficient (W/(m^2*K)) from the
            bottom layer to the package node — the per-area part of the heat
            removal path.
        top_htc: Effective heat-transfer coefficient from the top layer to
            ambient (mold compound / natural convection), usually small.
        lateral_htc: Effective heat-transfer coefficient from the lateral
            die boundary to ambient.  The paper's model connects boundary
            thermal cells to ambient voltage sources; a finite coefficient
            here reproduces that edge heat path (and with it the lateral
            temperature gradients that make hotspot-targeted whitespace more
            effective than blind spreading) without turning the die edge
            into a perfect heat sink.
        package_resistance: Lumped package-node-to-ambient thermal
            resistance in K/W.  Because it is independent of die area, it
            makes peak-temperature reductions sub-linear in the area
            overhead, as observed in the paper's Table I.
    """

    layers: List[Layer]
    active_layer: int
    ambient_celsius: float = 25.0
    bottom_htc: float = 3.0e4
    top_htc: float = 1.0e3
    lateral_htc: float = 500.0
    package_resistance: float = 150.0

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("package requires at least one layer")
        if not 0 <= self.active_layer < len(self.layers):
            raise ValueError(
                f"active_layer {self.active_layer} out of range for {len(self.layers)} layers"
            )
        if self.bottom_htc <= 0.0:
            raise ValueError("bottom_htc must be positive")
        if self.package_resistance < 0.0:
            raise ValueError("package_resistance must be non-negative")

    @property
    def num_layers(self) -> int:
        """Number of material layers (the paper uses 9)."""
        return len(self.layers)

    @property
    def total_thickness_um(self) -> float:
        """Total stack thickness in micrometres."""
        return ordered_sum(layer.thickness_um for layer in self.layers)

    def vertical_resistance_per_area(self) -> float:
        """One-dimensional vertical resistance per unit area, K*m^2/W.

        The sum of the layer resistivities below the active layer plus the
        bottom heat-transfer coefficient; useful for sanity checks and for
        the analytical estimates in tests.
        """
        below = ordered_sum(
            layer.vertical_resistivity for layer in self.layers[self.active_layer:]
        )
        return below + 1.0 / self.bottom_htc

    def spreading_length_m(self) -> float:
        """Characteristic lateral heat-spreading length in metres.

        ``sqrt(k_eff * t * r_v)`` where ``k_eff`` and ``t`` are the
        thickness-weighted conductivity and total thickness of the stack
        below the active layer, and ``r_v`` the vertical resistance per
        area.  Hotspots smaller than this length are largely smoothed out,
        which is why the paper's thermal maps show only a few percent of
        lateral variation.
        """
        below = self.layers[self.active_layer:]
        thickness = ordered_sum(layer.thickness_m for layer in below)
        if thickness <= 0.0:
            return 0.0
        k_eff = ordered_sum(layer.conductivity * layer.thickness_m for layer in below) / thickness
        return (k_eff * thickness * self.vertical_resistance_per_area()) ** 0.5


def default_package(ambient_celsius: float = 25.0) -> Package:
    """The default nine-layer stack used throughout the reproduction.

    Layers, top to bottom: mold/passivation interface, two metal/ILD
    layers, the active device layer, a thinned silicon body, the backside
    interface, die attach and the package substrate.  The bulk of the heat
    removal path (heat spreader and heat sink) is modelled as the per-area
    ``bottom_htc`` plus the lumped ``package_resistance``, which keeps the
    lateral heat-spreading length comparable to the die size; this is the
    calibration that reproduces the paper's observation that the thermal
    map correlates strongly with the power map (Figure 5) and that
    hotspot-targeted whitespace beats blind spreading (Figure 6, Table I).
    See EXPERIMENTS.md for the calibration discussion.
    """
    layers = [
        Layer("mold_interface", 10.0, 1.0),
        Layer("metal_ild_upper", 5.0, 1.2),
        Layer("metal_ild_lower", 4.0, 3.0),
        Layer("active_silicon", 2.0, 120.0),
        Layer("silicon_body", 2.0, 100.0),
        Layer("backside_interface", 3.0, 2.0),
        Layer("die_attach", 8.0, 2.0),
        Layer("substrate_core", 30.0, 2.0),
        Layer("substrate_lower", 30.0, 2.0),
    ]
    return Package(
        layers=layers,
        active_layer=3,
        ambient_celsius=ambient_celsius,
        bottom_htc=1.0e5,
        top_htc=600.0,
        lateral_htc=200.0,
        package_resistance=80.0,
    )


def low_cost_package(ambient_celsius: float = 25.0) -> Package:
    """A cheaper package with poorer heat removal (higher temperatures).

    Provided for the "different cooling mechanisms with different heat
    removal capabilities" discussion in Section II; used by the ablation
    benchmarks.
    """
    base = default_package(ambient_celsius)
    return Package(
        layers=base.layers,
        active_layer=base.active_layer,
        ambient_celsius=ambient_celsius,
        bottom_htc=8.0e3,
        top_htc=5.0e2,
        lateral_htc=200.0,
        package_resistance=600.0,
    )


def high_performance_package(ambient_celsius: float = 25.0) -> Package:
    """An aggressive cooling solution (lower temperatures, flatter profile)."""
    base = default_package(ambient_celsius)
    return Package(
        layers=base.layers,
        active_layer=base.active_layer,
        ambient_celsius=ambient_celsius,
        bottom_htc=1.0e5,
        top_htc=2.0e3,
        lateral_htc=1000.0,
        package_resistance=50.0,
    )
