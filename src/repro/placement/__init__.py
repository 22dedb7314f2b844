"""Placement substrate: floorplanning, global placement, legalization."""

from .floorplan import Floorplan, Rect, slicing_partition
from .placement import FillerBlock, Placement, Row
from .global_place import GlobalPlacementResult, QuadraticPlacer, assign_port_positions
from .legalize import pack_into_region, tetris_legalize
from .density import cell_density_map, density_in_rect, peak_density
from .filler import filler_area, insert_fillers, remove_fillers
from .detailed import improve_placement, improve_row
from .placer import place_design, replace_at_utilization

__all__ = [
    "Floorplan",
    "Rect",
    "slicing_partition",
    "FillerBlock",
    "Placement",
    "Row",
    "GlobalPlacementResult",
    "QuadraticPlacer",
    "assign_port_positions",
    "pack_into_region",
    "tetris_legalize",
    "cell_density_map",
    "density_in_rect",
    "peak_density",
    "filler_area",
    "insert_fillers",
    "remove_fillers",
    "improve_placement",
    "improve_row",
    "place_design",
    "replace_at_utilization",
]
