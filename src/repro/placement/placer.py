"""Top-level placement flow.

:func:`place_design` reproduces the role of the commercial floorplanning and
placement step in the paper's flow (Figure 2, "Logic and Physical
Synthesis"): it sizes a fixed-outline core for a requested utilization
factor, partitions the core into one region per arithmetic unit (areas
proportional to unit cell area, so the base cell density is uniform), runs
quadratic global placement to get connectivity-driven target positions, and
legalises each unit's cells into its region's rows.

The result is a legal, row-based :class:`~repro.placement.placement.Placement`
that the post-placement temperature-reduction techniques operate on.
"""

from __future__ import annotations

from typing import Dict

from ..netlist import Netlist
from .detailed import improve_placement
from .floorplan import Floorplan, slicing_partition
from .global_place import QuadraticPlacer, assign_port_positions
from .legalize import pack_regions
from .placement import Placement


def place_design(
    netlist: Netlist,
    utilization: float = 0.8,
    aspect_ratio: float = 1.0,
    die_margin: float = 15.0,
    use_quadratic: bool = True,
    detailed: bool = True,
    anchor_weight: float = 0.25,
) -> Placement:
    """Floorplan and place a netlist at the requested utilization factor.

    Args:
        netlist: The design to place.  Cells carrying a ``unit`` label are
            grouped into per-unit regions; unlabeled cells share a single
            region covering the whole core.
        utilization: Target utilization factor (cell area / core area).
            Lowering it is exactly the paper's "Default" whitespace scheme.
        aspect_ratio: Core height / width ratio.
        die_margin: Pad-ring margin around the core, in micrometres.
        use_quadratic: Run the quadratic global placer to obtain
            connectivity-driven target positions; when ``False`` cells are
            ordered by name, which is faster but wire-length oblivious.
        detailed: Run the adjacent-swap detailed-placement pass.
        anchor_weight: Region anchor weight for the quadratic placer.

    Returns:
        A legal :class:`Placement` with ``regions`` populated.

    Raises:
        ValueError: If the utilization is out of range or a unit's cells do
            not fit in their region.
    """
    floorplan = Floorplan.from_netlist(
        netlist,
        utilization=utilization,
        aspect_ratio=aspect_ratio,
        die_margin=die_margin,
    )
    placement = Placement(netlist, floorplan)
    assign_port_positions(netlist, floorplan)

    # Partition the core into per-unit regions with areas proportional to
    # each unit's cell area, so the initial cell density is uniform.
    unit_areas: Dict[str, float] = {}
    for cell in netlist.logic_cells():
        unit_areas[cell.unit] = unit_areas.get(cell.unit, 0.0) + cell.area
    regions = slicing_partition(floorplan.core_rect, unit_areas)
    placement.regions = dict(regions)

    targets = None
    if use_quadratic:
        placer = QuadraticPlacer(
            netlist, floorplan, regions=regions, anchor_weight=anchor_weight
        )
        targets = placer.run().positions

    pack_regions(
        placement,
        [
            ([c for c in netlist.logic_cells() if c.unit == unit], region)
            for unit, region in regions.items()
        ],
        targets=targets,
    )

    if detailed:
        improve_placement(placement)

    placement.rebuild_rows()
    return placement


def replace_at_utilization(placement: Placement, utilization: float, **kwargs) -> Placement:
    """Re-place the design at a different utilization factor.

    This is the paper's "Default" area-overhead scheme: the whole core grows
    (utilization factor shrinks) and the whitespace is spread uniformly.
    The netlist is cloned first, so the input placement is left untouched.

    Args:
        placement: An existing placement whose design is re-placed.
        utilization: New target utilization factor.
        **kwargs: Forwarded to :func:`place_design`.

    Returns:
        A new :class:`Placement` over a cloned netlist.
    """
    return place_design(placement.netlist.copy(), utilization=utilization, **kwargs)
