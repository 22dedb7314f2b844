"""Placement substrate: floorplanning, global placement, legalization."""

from .floorplan import Floorplan, Rect, slicing_partition
from .placement import FillerBlock, Placement, Row
from .global_place import QuadraticPlacer, port_positions
from .legalize import RowOccupancy, pack_into_region
from .density import cell_density_map, density_in_rect, peak_density
from .filler import filler_area, insert_fillers, remove_fillers
from .detailed import improve_rows
from .placer import place_design, place_view
from .view import PlacementView, as_placement

__all__ = [
    "Floorplan",
    "Rect",
    "slicing_partition",
    "FillerBlock",
    "Placement",
    "PlacementView",
    "Row",
    "as_placement",
    "QuadraticPlacer",
    "port_positions",
    "RowOccupancy",
    "pack_into_region",
    "cell_density_map",
    "density_in_rect",
    "peak_density",
    "filler_area",
    "insert_fillers",
    "remove_fillers",
    "improve_rows",
    "place_design",
    "place_view",
]
