"""Typed flow artifacts and the content digests that key them.

The staged flow graph (:mod:`repro.flow.graph`) re-runs a stage only when
the content hash of its inputs changed.  This module supplies two of the
ingredients; the third, the :class:`~repro.flow.store.ArtifactStore` that
holds the artifacts, lives in :mod:`repro.flow.store` next to the result
store it shares its tiered core and on-disk format with.

* **Content digests** — deterministic hashes of the domain objects a stage
  consumes (netlists, placements, power reports, power maps, thermal maps,
  workloads, packages).  Digests hash *content*, never object identity:
  a :meth:`~repro.netlist.netlist.Netlist.copy` or a canonical-spec
  re-parse produces the same digest, while any mutation through a netlist
  mutator, a cell move, a strategy-parameter change or a solver-method
  change produces a new one.  Netlist and placement digests encode each
  per-cell / per-net attribute as one array column (length-prefixed string
  lists, masked float64/int64 coordinate arrays) and are memoised against
  :meth:`~repro.netlist.netlist.Netlist.placement_state` — the design's
  structural version, its own placement stamp and the process-wide
  raw-write generation — so an unchanged design is hashed once, however
  many sibling copies move meanwhile; a :meth:`Netlist.copy` inherits its
  source's netlist digest.  A placement digest also covers the
  placement's filler block (its row/x/master arrays).
  :data:`FLOW_KEY_VERSION` 3 marks this encoding: artifact and result
  stores written with older keys simply miss.

* **Artifact dataclasses** — the frozen, typed value each stage produces
  (:class:`PlacementArtifact`, :class:`PowerArtifact`,
  :class:`RelaxArtifact`, :class:`WhitespaceArtifact`,
  :class:`LegalizedArtifact`,
  :class:`ThermalArtifact`, :class:`StaArtifact`), each carrying the stage
  input ``key`` it was computed for.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from ..netlist import Netlist
from ..placement import Placement, PlacementView
from ..power.power_map import PowerMap
from ..power.power_model import PowerReport
from ..thermal import Package, ThermalGrid, ThermalMap
from ..timing import TimingReport
from .cache import package_fingerprint

#: Bump when a digest encoding or stage semantics change incompatibly, so
#: on-disk stores written by older code can never satisfy new lookups.
#: Version 2: netlist and placement digests switched to array encoding.
#: Version 3: fillers are a placement's filler block, not netlist cells;
#: the placement digest covers the block.
FLOW_KEY_VERSION = 3


# ---------------------------------------------------------------------------
# Canonical hashing
# ---------------------------------------------------------------------------


def _new_hasher():
    """The digest primitive: BLAKE2b/128 — fast, stable across processes."""
    return hashlib.blake2b(digest_size=16)


def _feed(hasher, value) -> None:
    """Feed one value into ``hasher`` with an unambiguous type-tagged encoding.

    Floats are encoded as raw IEEE-754 bytes so two values hash equal
    exactly when they are bitwise equal — the same strictness the golden
    equivalence suite demands of the flow outputs.
    """
    if value is None:
        hasher.update(b"N")
    elif isinstance(value, bool):
        hasher.update(b"B1" if value else b"B0")
    elif isinstance(value, int):
        data = value.to_bytes((value.bit_length() + 8) // 8 + 1, "little", signed=True)
        hasher.update(b"I" + len(data).to_bytes(4, "little") + data)
    elif isinstance(value, float):
        hasher.update(b"F" + struct.pack("<d", value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        hasher.update(b"S" + len(data).to_bytes(4, "little") + data)
    elif isinstance(value, bytes):
        hasher.update(b"Y" + len(value).to_bytes(4, "little") + value)
    elif isinstance(value, np.ndarray):
        contiguous = np.ascontiguousarray(value)
        hasher.update(b"A")
        _feed(hasher, str(contiguous.dtype))
        _feed(hasher, contiguous.shape and tuple(int(n) for n in contiguous.shape))
        hasher.update(contiguous.tobytes())
    elif isinstance(value, (tuple, list)):
        hasher.update(b"T" + len(value).to_bytes(4, "little"))
        for item in value:
            _feed(hasher, item)
    elif isinstance(value, dict):
        hasher.update(b"D" + len(value).to_bytes(4, "little"))
        for key in sorted(value, key=repr):
            _feed(hasher, key)
            _feed(hasher, value[key])
    elif isinstance(value, (np.integer,)):
        _feed(hasher, int(value))
    elif isinstance(value, (np.floating,)):
        _feed(hasher, float(value))
    else:
        raise TypeError(f"cannot hash {type(value).__name__} into a flow key")


def hash_parts(*parts) -> str:
    """Digest of a sequence of primitive values (see :func:`_feed`)."""
    hasher = _new_hasher()
    for part in parts:
        _feed(hasher, part)
    return hasher.hexdigest()


def array_digest(array: np.ndarray) -> str:
    """Content digest of one array (dtype + shape + raw bytes)."""
    return hash_parts(np.asarray(array))


# ---------------------------------------------------------------------------
# Domain-object digests
# ---------------------------------------------------------------------------


def _feed_strings(hasher, strings: List[Optional[str]]) -> None:
    """Feed a list of optional strings as one length-prefixed column.

    Encoded as ``count, is-set mask, per-string lengths, joined UTF-8``:
    the lengths keep the join unambiguous (``["ab", "c"]`` and
    ``["a", "bc"]`` join to the same text), the mask keeps ``None``
    distinct from ``""``, and the whole column costs a handful of C-level
    calls instead of one tagged update per string.
    """
    count = len(strings)
    if None in strings:
        mask = np.fromiter((s is not None for s in strings), dtype=bool, count=count)
        strings = [s for s in strings if s is not None]
    else:
        mask = np.ones(count, dtype=bool)
    lengths = np.fromiter(map(len, strings), dtype="<i8", count=len(strings))
    data = "".join(strings).encode("utf-8")
    hasher.update(b"C" + struct.pack("<qq", count, len(data)))
    hasher.update(mask.tobytes())
    hasher.update(lengths.tobytes())
    hasher.update(data)


def _feed_numbers(hasher, values: list, dtype: str) -> None:
    """Feed a list of optional numbers as ``count, is-set mask, raw values``.

    ``None`` entries are written as 0 under a cleared mask bit, so an unset
    coordinate never collides with a real ``0.0``; ``"<f8"`` columns carry
    raw IEEE-754 bytes, so hash-equal means bitwise-equal.
    """
    count = len(values)
    if None in values:
        mask = np.fromiter((v is not None for v in values), dtype=bool, count=count)
        values = [0 if v is None else v for v in values]
    else:
        mask = np.ones(count, dtype=bool)
    hasher.update(b"V" + struct.pack("<q", count) + dtype.encode("ascii"))
    hasher.update(mask.tobytes())
    hasher.update(np.asarray(values, dtype=dtype).tobytes())


def _feed_masked(hasher, values: np.ndarray, mask: np.ndarray, dtype: str) -> None:
    """:func:`_feed_numbers` of an array whose unset entries ``mask`` clears:
    the same bytes as feeding the list with ``None`` at those entries."""
    hasher.update(b"V" + struct.pack("<q", values.shape[0]) + dtype.encode("ascii"))
    hasher.update(mask.tobytes())
    hasher.update(np.where(mask, values, 0).astype(dtype).tobytes())


def netlist_digest(netlist: Netlist) -> str:
    """Structural content digest of a netlist (placement-independent).

    Covers cells (in insertion order — iteration order is observable
    through the placer), masters, units, connectivity with sink order, and
    ports, each as one array-encoded column.  Memoised against the
    netlist's structural version counter, so repeated stage-key
    computations on an unchanged design hash once; :meth:`Netlist.copy`
    hands the memo to the copy.
    """
    version = netlist._version
    memo = getattr(netlist, "_content_digest_memo", None)
    if memo is not None and memo[0] == version:
        return memo[1]
    cells = list(netlist.cells.values())
    ports = list(netlist.ports.values())
    nets = list(netlist.nets.values())
    hasher = _new_hasher()
    _feed(hasher, ("netlist", netlist.name))
    _feed_strings(hasher, [cell.name for cell in cells])
    _feed_strings(hasher, [cell.master.name for cell in cells])
    _feed_strings(hasher, [cell.unit for cell in cells])
    _feed_numbers(hasher, [cell.fixed for cell in cells], "?")
    _feed_strings(hasher, [port.name for port in ports])
    _feed_strings(hasher, [port.direction for port in ports])
    _feed_strings(hasher, [net.name for net in nets])
    drivers = [net.driver_pin for net in nets]
    _feed_strings(hasher, [pin.cell.name if pin is not None else None for pin in drivers])
    _feed_strings(hasher, [pin.name if pin is not None else None for pin in drivers])
    _feed_strings(hasher, [
        net.driver_port.name if net.driver_port is not None else None for net in nets
    ])
    # Sink order is content: it shapes compiled gather order and the
    # floating-point association of every downstream reduction.
    _feed_numbers(hasher, [len(net.sink_pins) for net in nets], "<i8")
    sinks = [pin for net in nets for pin in net.sink_pins]
    _feed_strings(hasher, [pin.cell.name for pin in sinks])
    _feed_strings(hasher, [pin.name for pin in sinks])
    _feed_numbers(hasher, [len(net.sink_ports) for net in nets], "<i8")
    _feed_strings(hasher, [port.name for net in nets for port in net.sink_ports])
    digest = hasher.hexdigest()
    netlist._content_digest_memo = (version, digest)
    return digest


def placement_digest(placement: Union[Placement, PlacementView]) -> str:
    """Content digest of a placed design: structure + geometry + coordinates.

    Cell x/y/row and port x/y are hashed as masked arrays, the filler
    block as its name prefix, first index, master names and row/x/master
    arrays.  A :class:`~repro.placement.PlacementView` hashes exactly like
    its :meth:`~repro.placement.PlacementView.to_placement`, so stage
    keys do not depend on which form a placement takes.  A view is
    immutable and hashed once; a :class:`Placement`'s digest is memoised
    against :meth:`~repro.netlist.netlist.Netlist.placement_state`: a move
    in this design (or a process-wide raw-write bump) re-hashes, while
    moves in any other design leave the memo valid.
    """
    netlist = placement.netlist
    state = None if isinstance(placement, PlacementView) else netlist.placement_state()
    memo = getattr(placement, "_content_digest_memo", None)
    if memo is not None and memo[0] == state:
        return memo[1]
    floorplan = placement.floorplan
    x, y, row, port_x, port_y = placement.coordinate_arrays()
    hasher = _new_hasher()
    _feed(hasher, ("placement", netlist_digest(netlist)))
    _feed(hasher, (
        floorplan.core_width, floorplan.core_height, floorplan.row_height,
        floorplan.site_width, floorplan.die_margin,
    ))
    _feed_masked(hasher, x, ~np.isnan(x), "<f8")
    _feed_masked(hasher, y, ~np.isnan(y), "<f8")
    _feed_masked(hasher, row, row >= 0, "<i8")
    _feed_masked(hasher, port_x, ~np.isnan(port_x), "<f8")
    _feed_masked(hasher, port_y, ~np.isnan(port_y), "<f8")
    units = sorted(placement.regions)
    rects = [placement.regions[unit] for unit in units]
    _feed_strings(hasher, units)
    _feed_numbers(hasher, [v for r in rects for v in (r.x0, r.y0, r.x1, r.y1)], "<f8")
    fillers = placement.fillers
    _feed(hasher, (
        "fillers", fillers.prefix, fillers.first_index,
        [master.name for master in fillers.masters],
        fillers.row, fillers.x, fillers.master,
    ))
    digest = hasher.hexdigest()
    placement._content_digest_memo = (state, digest)
    return digest


def power_digest(power: PowerReport) -> str:
    """Content digest of a per-cell power report.

    Hashes the per-cell component breakdown (switching, internal, leakage)
    plus the model's frequency and temperature, in cell order.  Memoised on
    the report instance — reports are immutable once built.
    """
    memo = getattr(power, "_content_digest_memo", None)
    if memo is not None:
        return memo
    hasher = _new_hasher()
    _feed(hasher, ("power", power.frequency_hz, power.temperature))
    names = power.cell_names
    switching = getattr(power, "_switching", None)
    if names is not None and switching is not None:
        _feed(hasher, list(names))
        _feed(hasher, switching)
        _feed(hasher, power._internal)
        _feed(hasher, power._leakage)
    else:
        for name, cell_power in power.cell_powers.items():
            _feed(hasher, (
                name, cell_power.switching, cell_power.internal, cell_power.leakage,
            ))
    digest = hasher.hexdigest()
    power._content_digest_memo = digest
    return digest


def power_map_digest(power_map: PowerMap) -> str:
    """Content digest of a binned power map (values + bin geometry)."""
    return hash_parts(
        "power_map",
        power_map.power_w,
        power_map.bin_width_um,
        power_map.bin_height_um,
        tuple(power_map.origin_um),
    )


def thermal_map_digest(thermal_map: ThermalMap) -> str:
    """Content digest of a solved thermal map (field + warm-start vector)."""
    return hash_parts(
        "thermal_map",
        thermal_map.temperatures,
        thermal_map.ambient,
        thermal_map.package_temperature,
        thermal_map.grid_rises if thermal_map.grid_rises is not None else None,
    )


def package_digest(package: Package) -> str:
    """Content digest of a thermal package stack."""
    return hash_parts("package", repr(package_fingerprint(package)))


def grid_digest(grid: ThermalGrid) -> str:
    """Content digest of a thermal-mesh geometry (including its package)."""
    return hash_parts(
        "grid", grid.width_um, grid.height_um, grid.nx, grid.ny,
        repr(package_fingerprint(grid.package)),
    )


def workload_digest(workload, netlist: Netlist) -> str:
    """Content digest of a workload *as applied to* a netlist.

    The flow consumes a workload only through its per-port toggle
    probabilities, so that resolved mapping — not the workload's own
    attribute soup — is the content.
    """
    return hash_parts(
        "workload",
        workload.name,
        workload.port_toggle_probabilities(netlist),
    )


# ---------------------------------------------------------------------------
# Stage artifacts
# ---------------------------------------------------------------------------
#
# Every artifact carries the content hash it is stored under; artifacts a
# pass-through graph builds (one whose store can hold nothing) are never
# hashed and carry ``key=None``.


@dataclass(frozen=True)
class PlacementArtifact:
    """``synth`` output: the design placed at the baseline utilization."""

    key: Optional[str]
    placement: Placement


@dataclass(frozen=True)
class PowerArtifact:
    """``power`` output: the cell-by-cell power report."""

    key: Optional[str]
    power: PowerReport


@dataclass(frozen=True)
class RelaxArtifact:
    """``relax`` output: the Default solution at one overhead, without
    fillers — the baseline re-placed at the relaxed utilization, as a view
    over the baseline's netlist."""

    key: Optional[str]
    placement: PlacementView


@dataclass(frozen=True)
class WhitespaceArtifact:
    """``whitespace`` output: the strategy-transformed placement.

    Carries exactly the fields downstream stages and the outcome
    extraction read (the strategy-specific ``details`` of the
    :class:`~repro.core.strategy.StrategyResult` are deliberately dropped:
    they are unused downstream and would drag arbitrary strategy internals
    into the serialized store).  The placement is a view over the
    baseline's netlist, so an artifact holds no netlist clone.
    """

    key: Optional[str]
    placement: PlacementView
    strategy_spec: str
    requested_overhead: float
    actual_overhead: float
    inserted_rows: int
    num_fillers: int


@dataclass(frozen=True)
class LegalizedArtifact:
    """``legalize`` output: the physical database ready for the solve —
    the transformed placement's power binned onto the thermal grid, plus
    the grid covering its die outline."""

    key: Optional[str]
    power_map: PowerMap
    grid: ThermalGrid


@dataclass(frozen=True)
class ThermalArtifact:
    """``thermal`` output: the solved temperature field."""

    key: Optional[str]
    thermal_map: ThermalMap
    method: str


@dataclass(frozen=True)
class StaArtifact:
    """``sta`` output: the timing report at the solved temperature."""

    key: Optional[str]
    timing: TimingReport


__all__ = [
    "FLOW_KEY_VERSION",
    "hash_parts",
    "array_digest",
    "netlist_digest",
    "placement_digest",
    "power_digest",
    "power_map_digest",
    "thermal_map_digest",
    "package_digest",
    "grid_digest",
    "workload_digest",
    "PlacementArtifact",
    "PowerArtifact",
    "RelaxArtifact",
    "WhitespaceArtifact",
    "LegalizedArtifact",
    "ThermalArtifact",
    "StaArtifact",
]
