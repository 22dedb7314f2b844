"""The row whitespace kernels against the per-row loops they replace.

:func:`~repro.placement.legalize.row_gaps` must give every row exactly
what :func:`~repro.placement.placement.free_intervals` (which
:meth:`Row.gaps <repro.placement.placement.Row.gaps>` still runs) gives it;
:func:`~repro.placement.filler.filler_block` must place the fillers of the
greedy widest-first loop; and relocation and forced insertion on gap
arrays must move every cell as the list walks below did, which are kept
here as the executable spec.  Occupants may overlap, cells and fillers
may share an x, gaps may lie within 1e-9 of a filler width, and rows may
be empty or full.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.netlist import Netlist, default_library
from repro.placement import Floorplan, Rect, RowOccupancy
from repro.placement.filler import filler_block
from repro.placement.legalize import row_gaps
from repro.placement.placement import NO_FILLERS, FillerBlock, free_intervals

_LIBRARY = default_library()
_FILLERS = tuple(_LIBRARY.filler_cells())
_FILLER_WIDTHS = [f.width_um for f in _FILLERS]
_TINY = (0.0, 1e-9, -1e-9, 2e-9, -2e-9, 5e-10, -5e-10)


# ----------------------------------------------------------------------
# Reference loops
# ----------------------------------------------------------------------


def reference_row_gaps(occupancy: RowOccupancy, row: int):
    """One row's gaps: its cells by x (stable), then the fillers merged in."""
    occupancy.sort(row)
    occupants = [(occupancy.x[i], occupancy.width[i]) for i in occupancy.rows[row]]
    fillers = occupancy.fillers.in_row(row) if occupancy.fillers else ()
    if fillers:
        occupants.extend(fillers)
        occupants.sort(key=lambda occupant: occupant[0])
    return free_intervals(occupants, 0.0, occupancy.floorplan.core_width)


def reference_fill(gaps):
    """Greedy widest-first cover of each ``(row, lo, hi)`` gap, gap by gap."""
    min_width = min(_FILLER_WIDTHS)
    rows, xs, masters = [], [], []
    for row, gap_start, gap_end in gaps:
        cursor = gap_start
        remaining = gap_end - cursor
        while remaining >= min_width - 1e-9:
            for master, width in enumerate(_FILLER_WIDTHS):
                if width <= remaining + 1e-9:
                    break
            else:
                break
            rows.append(row)
            xs.append(cursor)
            masters.append(master)
            cursor += width
            remaining = gap_end - cursor
    return rows, xs, masters


def reference_relocate_outside(occupancy: RowOccupancy, cells, rect):
    """Widest first, into the first row by distance (ties in set order)
    with a usable interval it fits; every visited row sorted and its gaps
    recomputed."""
    half_row = occupancy.floorplan.row_height / 2.0
    usable = {}

    def usable_intervals(row):
        entry = usable.get(row)
        if entry is None:
            crosses = rect.y0 <= occupancy.row_y[row] + half_row < rect.y1
            intervals = []
            for lo, hi in reference_row_gaps(occupancy, row):
                if crosses:
                    left, right = (lo, min(hi, rect.x0)), (max(lo, rect.x1), hi)
                    left_size, right_size = left[1] - left[0], right[1] - right[0]
                    if left_size >= 0.0 and (right_size < 0.0 or left_size >= right_size):
                        lo, hi = left
                    elif right_size >= 0.0:
                        lo, hi = right
                    else:
                        continue
                if hi > lo:
                    intervals.append((lo, hi))
            longest = max((hi - lo for lo, hi in intervals), default=float("-inf"))
            entry = usable[row] = (longest, intervals)
        return entry

    num_rows = len(occupancy.rows)
    failed = []
    x, y, width = occupancy.x, occupancy.y, occupancy.width
    for cell in sorted(cells, key=lambda i: -width[i]):
        origin_x = x[cell] if x[cell] == x[cell] else 0.0
        origin_y = y[cell] if y[cell] == y[cell] else 0.0
        size = width[cell]
        origin = occupancy.floorplan.row_of_y(origin_y)
        order = [
            r for offset in range(num_rows)
            for r in {origin - offset, origin + offset} if 0 <= r < num_rows
        ]
        for row in order:
            longest, intervals = usable_intervals(row)
            if longest < size:
                continue
            for lo, hi in intervals:
                if hi - lo >= size:
                    occupancy.add(row, cell, min(max(origin_x, lo), hi - size))
                    occupancy.sort(row)
                    del usable[row]
                    break
            break
        else:
            failed.append(cell)
    return failed


def reference_force_insert(occupancy: RowOccupancy, cell, avoid_rect):
    """The closest row (outside ``avoid_rect`` first) with enough total free
    width, packed left, the cell appended at its end."""
    y, width = occupancy.y[cell], occupancy.width
    origin = occupancy.floorplan.row_of_y((y if y == y else 0.0) + 1e-9)
    half_row = occupancy.floorplan.row_height / 2.0
    avoid = avoid_rect is not None and avoid_rect.area > 0

    def priority(row):
        mid = occupancy.row_y[row] + half_row
        inside = 1 if avoid and avoid_rect.y0 <= mid < avoid_rect.y1 else 0
        return (inside, abs(row - origin))

    def used(members):
        total = 0
        for i in members:
            total += width[i]
        return total

    for row in sorted(range(len(occupancy.rows)), key=priority):
        members = occupancy.rows[row]
        if occupancy.floorplan.core_width - used(members) >= width[cell] - 1e-9:
            occupancy.sort(row)
            cursor = 0.0
            for member in members:
                occupancy.place(member, cursor, row)
                cursor += width[member]
            occupancy.add(row, cell, 0.0 + used(members))
            occupancy.sort(row)
            return True
    return False


# ----------------------------------------------------------------------
# Generated occupancies
# ----------------------------------------------------------------------


@st.composite
def occupancies(draw, with_fillers=True):
    """Rows of cells (and block fillers) at x drawn from a few sites, so
    occupants overlap and share x; some rows left empty, one maybe full."""
    num_rows = draw(st.integers(1, 5))
    sites = draw(st.integers(10, 80))
    floorplan = Floorplan(core_width=sites * 0.2, core_height=num_rows * 1.8)
    xs = st.one_of(
        st.integers(0, sites).map(lambda s: s * 0.2),
        st.floats(0.0, floorplan.core_width),
    )
    widths = st.one_of(
        st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.2, 3.2]), st.floats(0.05, 4.0),
    )
    cells = draw(st.lists(st.tuples(st.integers(0, num_rows - 1), xs, widths), max_size=30))
    x = np.array([c[1] for c in cells], dtype=float)
    row = np.array([c[0] for c in cells], dtype=np.int64)
    width = np.array([c[2] for c in cells], dtype=float)
    if draw(st.booleans()):  # a full row: one cell as wide as the core
        x, row = np.append(x, 0.0), np.append(row, num_rows - 1)
        width = np.append(width, floorplan.core_width)
    fillers = NO_FILLERS
    if with_fillers:
        block = draw(st.lists(
            st.tuples(st.integers(0, num_rows - 1), xs, st.integers(0, len(_FILLERS) - 1)),
            max_size=10,
        ))
        if block:
            fillers = FillerBlock(
                "FILLER_", 0, _FILLERS, [b[0] for b in block], [b[1] for b in block],
                [b[2] for b in block],
            )
    y = row * floorplan.row_height
    return RowOccupancy.of_arrays(floorplan, x, y.astype(float), row, width, fillers)


def _copy(occupancy: RowOccupancy) -> RowOccupancy:
    return RowOccupancy(
        occupancy.floorplan, list(occupancy.x), list(occupancy.y), list(occupancy.row),
        list(occupancy.width), [list(cells) for cells in occupancy.rows], occupancy.fillers,
    )


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


@given(occupancy=occupancies())
@settings(max_examples=200, deadline=None)
def test_row_gaps_match_free_intervals(occupancy):
    gap_row, lo, hi = occupancy.gap_arrays()
    got = [
        [(a, b) for r, a, b in zip(gap_row.tolist(), lo.tolist(), hi.tolist()) if r == row]
        for row in range(len(occupancy.rows))
    ]
    assert got == [reference_row_gaps(occupancy, row) for row in range(len(occupancy.rows))]
    assert gap_row.tolist() == sorted(gap_row.tolist())


def test_row_gaps_of_empty_and_full_rows():
    floorplan = Floorplan(core_width=4.0, core_height=3 * 1.8)
    gap_row, lo, hi = row_gaps(
        floorplan, np.array([1, 1]), np.array([0.0, 1.0]), np.array([2.0, 3.0])
    )
    assert (gap_row.tolist(), lo.tolist(), hi.tolist()) == ([0, 2], [0.0, 0.0], [4.0, 4.0])


@given(
    gaps=st.lists(
        st.tuples(
            st.integers(0, 3),
            st.floats(0.0, 50.0),
            st.one_of(
                st.tuples(
                    st.lists(st.sampled_from(_FILLER_WIDTHS), min_size=1, max_size=4),
                    st.sampled_from(_TINY),
                ).map(lambda p: sum(p[0]) + p[1]),
                st.floats(0.0, 30.0),
            ),
        ),
        max_size=25,
    ),
)
@settings(max_examples=200, deadline=None)
def test_fill_matches_greedy_loop(gaps):
    gaps = [(row, lo, lo + size) for row, lo, size in gaps]
    arrays = tuple(np.array(column, dtype=dtype) for column, dtype in zip(
        zip(*gaps) if gaps else ((), (), ()), (np.int64, float, float)
    ))
    block = filler_block(Netlist("fill", _LIBRARY), arrays, NO_FILLERS)
    rows, xs, masters = reference_fill(gaps)
    assert (block.row.tolist(), block.x.tolist(), block.master.tolist()) == (rows, xs, masters)
    assert block.first_index == 0 and block.masters == _FILLERS


@given(
    occupancy=occupancies(with_fillers=False),
    evicted=st.lists(st.integers(0, 40), max_size=20, unique=True),
    rect=st.tuples(*[st.floats(-2.0, 18.0)] * 4),
    shuffle=st.one_of(st.none(), st.integers(0, 2**32)),
)
@settings(max_examples=300, deadline=None)
def test_relocation_matches_list_walks(occupancy, evicted, rect, shuffle):
    evicted = [cell for cell in evicted if cell < len(occupancy.x)]
    occupancy.remove(evicted)
    if shuffle is not None:  # row lists out of x order, as a Row may keep them
        for cells in occupancy.rows:
            random.Random(shuffle).shuffle(cells)
    rect = Rect(min(rect[0], rect[2]), min(rect[1], rect[3]),
                max(rect[0], rect[2]), max(rect[1], rect[3]))
    reference = _copy(occupancy)

    unmoved = occupancy.relocate_outside(evicted, rect)
    leftover = occupancy.relocate_outside(unmoved, Rect(0.0, 0.0, 0.0, 0.0))
    failed = occupancy.force_insert(leftover, avoid_rect=rect)

    want_unmoved = reference_relocate_outside(reference, evicted, rect)
    want_leftover = reference_relocate_outside(reference, want_unmoved, Rect(0.0, 0.0, 0.0, 0.0))
    want_failed = [
        cell for cell in want_leftover if not reference_force_insert(reference, cell, rect)
    ]
    assert (unmoved, leftover, failed) == (want_unmoved, want_leftover, want_failed)
    assert (occupancy.x, occupancy.y, occupancy.row) == (reference.x, reference.y, reference.row)
    assert occupancy.rows == reference.rows


def _one_row_each(floorplan, cells):
    """An occupancy of ``(row, x, width)`` cells."""
    row, x, width = (np.array(column) for column in zip(*cells))
    y = (row * floorplan.row_height).astype(float)
    return RowOccupancy.of_arrays(floorplan, x.astype(float), y, row, width.astype(float))


def test_relocation_reuses_the_far_side_of_a_split_straddling_gap():
    # Gap (1, 9) straddles the rectangle [5.5, 6): its left side (4.5 wide)
    # takes the 2.8 cell, after which its right side (3 wide) is the longer
    # and takes the 2.5 cell.
    floorplan = Floorplan(core_width=10.0, core_height=1.8)
    occupancy = _one_row_each(floorplan, [(0, 0.0, 1.0), (0, 9.0, 1.0), (0, 1.0, 2.5), (0, 1.0, 2.8)])
    occupancy.remove([2, 3])
    reference = _copy(occupancy)
    rect = Rect(5.5, 0.0, 6.0, 1.8)
    assert occupancy.relocate_outside([2, 3], rect) == []
    assert reference_relocate_outside(reference, [2, 3], rect) == []
    assert occupancy.x[2:] == reference.x[2:] == [6.0, 1.0]
    assert occupancy.rows == reference.rows == [[0, 3, 2, 1]]


def test_relocation_leaves_rows_it_does_not_look_at_unsorted():
    # The cell fits in its own row 0, so row 2 (out of x order) is never
    # looked at and keeps its list order, as in the list walk.
    floorplan = Floorplan(core_width=10.0, core_height=3 * 1.8)
    occupancy = _one_row_each(floorplan, [(0, 0.0, 1.0), (0, 2.0, 1.0), (2, 0.0, 1.0), (2, 5.0, 1.0)])
    occupancy.rows[2].reverse()
    occupancy.remove([1])
    reference = _copy(occupancy)
    rect = Rect(0.0, 1.8, 10.0, 3.6)
    assert occupancy.relocate_outside([1], rect) == reference_relocate_outside(reference, [1], rect) == []
    assert occupancy.rows == reference.rows == [[0, 1], [], [3, 2]]
    assert occupancy.x == reference.x


def test_forced_insertion_prefers_rows_outside_the_rectangle():
    # The cell's own row (1) has room but lies in the rectangle; rows 0 and
    # 2 are as close, and row 0 wins the tie with fragmented room.
    floorplan = Floorplan(core_width=4.0, core_height=3 * 1.8)
    occupancy = _one_row_each(floorplan, [(0, 0.0, 1.0), (0, 2.0, 1.0), (1, 0.0, 1.0), (1, 2.0, 1.5)])
    occupancy.remove([3])
    reference = _copy(occupancy)
    rect = Rect(0.0, 1.8, 4.0, 3.6)
    assert occupancy.force_insert([3], avoid_rect=rect) == []
    assert reference_force_insert(reference, 3, rect)
    assert (occupancy.x, occupancy.row) == (reference.x, reference.row)
    assert (occupancy.row[3], occupancy.x[3]) == (0, 2.0)
    assert occupancy.rows == reference.rows


@given(
    occupancy=occupancies(with_fillers=False),
    evicted=st.lists(st.integers(0, 40), max_size=12, unique=True),
    rect=st.tuples(*[st.floats(-2.0, 18.0)] * 4),
    shuffle=st.integers(0, 2**32),
)
@settings(max_examples=200, deadline=None)
def test_forced_insertion_matches_list_walk(occupancy, evicted, rect, shuffle):
    evicted = [cell for cell in evicted if cell < len(occupancy.x)]
    occupancy.remove(evicted)
    for cells in occupancy.rows:  # row lists out of x order, as a Row may keep them
        random.Random(shuffle).shuffle(cells)
    rect = Rect(min(rect[0], rect[2]), min(rect[1], rect[3]),
                max(rect[0], rect[2]), max(rect[1], rect[3]))
    reference = _copy(occupancy)
    failed = occupancy.force_insert(evicted, avoid_rect=rect)
    assert failed == [cell for cell in evicted if not reference_force_insert(reference, cell, rect)]
    assert (occupancy.x, occupancy.y, occupancy.row) == (reference.x, reference.y, reference.row)
    assert occupancy.rows == reference.rows
