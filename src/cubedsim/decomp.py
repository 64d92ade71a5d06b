"""Domain decomposition: rank partitions, halos and exchange patterns.

Rank counts that are a multiple of six split every panel into the same
p x q grid of blocks, as square as possible.  Other counts fall back to
spans, contiguous runs of the linearized cells held as two sizes, with an
imbalance of at most one cell.  A rank's domain is a list of rectangles
(`Decomposition.rects`): a block, or on each panel a span touches, its
partial first row, whole rows and partial last row.

Halos are rings of non-owned cells reachable by edge adjacency.
`compute_halos` expands every rank cell by cell and is the reference.
`halo_counts` sizes a domain of one rectangle by a closed form that knows
each panel corner is a cube corner, a block grid once per block class,
and the other spans once per class (`_span_class`) as row runs.  Span
layouts up to C10 are walked like `compute_halos`, whose cell counts
perfbench reads.

`exchange_pattern` counts one message per (owner, holder) pair the same
way for every layout, never rank by rank: the cells on a rank's panel
from one table of owner offsets per rank class (`_rank_classes`), and the
cells past the panel edges from the owners of the `depth` lines along
each of the 24 panel edges.  Only `Decomposition.owners` maps cells to
owners.  The `ExchangePattern` it returns holds the sorted message keys
owner * ranks + holder and their cell counts, which `simulate` folds;
its `Message` tuple is built only when a caller reads `messages`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import isqrt
from operator import add
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence, Set,
                    Tuple)

from .errors import CubedsimError
from .mesh import EAST, NORTH, PANELS, SOUTH, WEST, CellId, CubedSphereMesh


class DecompositionError(CubedsimError, ValueError):
    """Invalid partition request."""


class HaloDepthError(DecompositionError):
    """Requested halo depth exceeds the panel size."""


class Message(NamedTuple):
    src: int
    dst: int
    cells: int
    bytes: int


# halo rings of one rank, innermost first
Rings = Tuple[Tuple[CellId, ...], ...]
# cells as half-open runs [a, b) of i per (panel, j) row, sorted and
# disjoint once merged
Runs = Dict[Tuple[int, int], List[Tuple[int, int]]]
# a rectangle (panel, i0, i1, j0, j1) of cells [i0, i1) x [j0, j1)
Rect = Tuple[int, int, int, int, int]
# span layouts up to C10 take compute_halos, which perfbench's halo
# counters hook by name
_SPAN_WALK_MAX_PANEL = 10


def _grid_offsets(n: int, parts: int) -> Tuple[int, ...]:
    """Offsets of `parts` blocks over n cells; the remainder is absorbed
    one per block starting from the last block."""
    base, rem = divmod(n, parts)
    return tuple(k * base + max(0, k - parts + rem) for k in range(parts + 1))


@dataclass(frozen=True)
class Decomposition:
    """Rank domains held as offsets or sizes, derived on demand."""

    mesh: CubedSphereMesh
    ranks: int
    # block-grid offsets (i, j), the same on every panel (None for spans)
    grid: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None
    # span sizes (base, rem): span k has base + 1 cells for k < rem, else
    # base, so it starts at k * base + min(k, rem) (None for a block grid)
    spans: Optional[Tuple[int, int]] = None

    def span_start(self, rank: int) -> int:
        base, rem = self.spans
        return rank * base + min(rank, rem)

    def span_owner(self, index: int) -> int:
        """The span holding linear cell `index`."""
        base, rem = self.spans
        big = rem * (base + 1)
        if index < big:
            return index // (base + 1)
        return rem + (index - big) // base

    @cached_property
    def _lines(self) -> Tuple[List[int], ...]:
        """A block grid's rank offset by column and by row of a panel."""
        i_off, j_off = self.grid
        return tuple([k * step for k, (a, b) in enumerate(zip(off, off[1:]))
                      for _ in range(b - a)]
                     for off, step in ((i_off, 1), (j_off, len(i_off) - 1)))

    def owners(self, cells: range) -> List[int]:
        """The owner of each linear cell of `cells`, a range along a row
        (step 1) or a column (step panel size) of one panel."""
        if self.grid is None:
            if cells.step > 1:
                return list(map(self.span_owner, cells))
            out: List[int] = []
            x = cells.start
            while x < cells.stop:   # along the row, span by span
                owner = self.span_owner(x)
                end = min(self.span_start(owner + 1), cells.stop)
                out += [owner] * (end - x)
                x = end
            return out
        n, (cols, rows) = self.mesh.panel_size, self._lines
        row, i = divmod(cells.start, n)
        panel, j = divmod(row, n)
        # along a row the block column changes, along a column the block row
        first, along = (rows[j], cols[i:]) if cells.step == 1 else (
            cols[i], rows[j:])
        first += panel * (self.ranks // PANELS)
        return [first + k for k in along[:len(cells)]]

    def rects(self, rank: int) -> List[Rect]:
        """The rank's cells as rectangles: a block's one, or a span's
        (`_span_rects`)."""
        if self.grid is None:
            return _span_rects(self.mesh.panel_size, self.span_start(rank),
                               self.span_start(rank + 1))
        i_off, j_off = self.grid
        p = len(i_off) - 1
        panel, local = divmod(rank, p * (len(j_off) - 1))
        bj, bi = divmod(local, p)
        return [(panel, i_off[bi], i_off[bi + 1], j_off[bj], j_off[bj + 1])]

    def owned_cells(self, rank: int) -> Set[CellId]:
        return {CellId(panel, i, j) for panel, i0, i1, j0, j1
                in self.rects(rank) for j in range(j0, j1)
                for i in range(i0, i1)}

    def owned_count(self, rank: int) -> int:
        return sum((i1 - i0) * (j1 - j0)
                   for _, i0, i1, j0, j1 in self.rects(rank))

    def owner_of(self, cell: CellId) -> int:
        index = self.mesh.to_index(cell)
        if 0 <= index < self.mesh.total_horizontal_cells:
            return self.owners(range(index, index + 1))[0]
        raise DecompositionError(f"cell {cell} not covered by any rank")


class ExchangePattern:
    """One message per (owner -> halo-holder) pair with shared cells, as
    its key owner * ranks + holder, the keys sorted, and its cell count.
    `simulate` folds the keys; `messages` is built when first read."""

    def __init__(self, keys: List[int], cells: List[int], ranks: int,
                 bytes_per_cell: int):
        self.keys, self.cells = keys, cells
        self.ranks, self.bytes_per_cell = ranks, bytes_per_cell

    @cached_property
    def messages(self) -> Tuple[Message, ...]:
        """One `Message` per key, sorted by (src, dst)."""
        keys, ranks, size = self.keys, self.ranks, self.bytes_per_cell
        # tuple.__new__ builds each Message without a Python-level call
        return tuple(map(partial(tuple.__new__, Message), zip(
            [key // ranks for key in keys], [key % ranks for key in keys],
            self.cells, [c * size for c in self.cells])))


def _squarest_factor_pair(m: int) -> Tuple[int, int]:
    """Factor m = p * q with the block aspect ratio closest to one;
    ties broken toward larger p.  |p - q| falls as the smaller factor
    grows to sqrt(m), so the largest divisor up to sqrt(m) is q."""
    q = isqrt(m)
    while m % q:
        q -= 1
    return m // q, q


def partition(mesh: CubedSphereMesh, ranks: int) -> Decomposition:
    """Assign every cell to exactly one rank.

    Rank counts divisible by six get identical per-panel block grids
    (rank = panel * p * q + bj * p + bi); other counts fall back to
    contiguous runs of linearized cells.
    """
    if ranks < 1:
        raise DecompositionError(f"ranks must be >= 1, got {ranks}")
    total = mesh.total_horizontal_cells
    if ranks > total:
        raise DecompositionError(
            f"more ranks ({ranks}) than cells ({total})")
    n = mesh.panel_size
    if ranks % PANELS == 0 and ranks // PANELS <= n * n:
        p, q = _squarest_factor_pair(ranks // PANELS)
        if p <= n and q <= n:
            return Decomposition(mesh=mesh, ranks=ranks, grid=(
                _grid_offsets(n, p), _grid_offsets(n, q)))
    # larger chunks first for a stable layout: `rem` spans of base + 1
    # cells, then spans of base cells
    return Decomposition(mesh=mesh, ranks=ranks, spans=divmod(total, ranks))


def local_area(mesh: CubedSphereMesh, total_cores: int) -> Fraction:
    """Horizontal grid cells per core."""
    if total_cores < 1:
        raise DecompositionError(f"total_cores must be >= 1, got {total_cores}")
    return Fraction(mesh.total_horizontal_cells, total_cores)


def check_halo_depth(mesh: CubedSphereMesh, depth: int) -> None:
    """Halos are 1 to panel-size cells deep."""
    if depth < 1:
        raise DecompositionError(f"halo depth must be >= 1, got {depth}")
    if depth > mesh.panel_size:
        raise HaloDepthError(
            f"halo depth {depth} exceeds panel size {mesh.panel_size}")


def _rank_rings(mesh: CubedSphereMesh, decomp: Decomposition, rank: int,
                depth: int) -> Rings:
    """One rank's halo rings up to `depth` by frontier expansion."""
    seen = frontier = decomp.owned_cells(rank)
    rings: List[Tuple[CellId, ...]] = []
    for _ in range(depth):
        ring = {nb for cell in frontier for nb in mesh.neighbors(cell)} - seen
        seen |= ring
        rings.append(tuple(ring))
        frontier = ring
    return tuple(rings)


def default_bytes_per_cell(mesh: CubedSphereMesh) -> int:
    """Bytes exchanged per halo cell: levels x 8-byte words x 3 fields.

    The field count per exchange is a configuration default, not a
    measured quantity."""
    return mesh.levels * 8 * 3


def _halo_cells(w: int, h: int, depth: int, gaps: Sequence[int] = ()) -> int:
    """H(depth) of a w x h rectangle at `gaps` (see `halo_counts`)."""
    lost = sum((depth - 1 - g) * (depth - g) // 2
               for g in gaps if g < depth - 1)
    return 2 * depth * (w + h + depth - 1) - lost


def _rect_halo(n: int, rect: Rect, depth: int) -> int:
    """H(depth) of a rectangle; a corner's gap sums its two edge gaps."""
    _, i0, i1, j0, j1 = rect
    gw, ge, gs, gn = i0, n - i1, j0, n - j1
    return _halo_cells(i1 - i0, j1 - j0, depth,
                       (gw + gs, gw + gn, ge + gs, ge + gn))


def _edge_rects(mesh: CubedSphereMesh, rect: Rect,
                depth: int) -> Iterator[Rect]:
    """A rectangle's halo cells past its panel's edges, as rectangles
    (panel, xa, xb, ya, yb) on the panels across them: past an edge at
    gap g < depth, depth row s holds the cells along the edge within
    r = depth - g - 1 - s of the rectangle's side, none past a panel
    corner, where the cube corner leaves no cells."""
    n = mesh.panel_size
    panel, i0, i1, j0, j1 = rect
    for direction, gap, a, b in ((EAST, n - i1, j0, j1), (WEST, i0, j0, j1),
                                 (NORTH, n - j1, i0, i1), (SOUTH, j0, i0, i1)):
        other, edge, same = mesh.edges[panel, direction]
        for s in range(depth - gap):
            r = depth - gap - 1 - s
            lo, hi = max(a - r, 0), min(b + r, n)
            if not same:
                lo, hi = n - hi, n - lo
            x = s if edge in (WEST, SOUTH) else n - 1 - s
            yield ((other, x, x + 1, lo, hi) if edge in (EAST, WEST)
                   else (other, lo, hi, x, x + 1))


def _span_class(decomp: Decomposition, depth: int, rank: int) -> Tuple[
        int, int, Optional[int], Optional[Rect], object]:
    """A span's start and stop, its panel (None when it crosses one), its
    rectangle when it is one, and its class key.  Spans of one key have
    the same halo on their panel up to a shift of cells and ranks: size,
    start column (none for one row `depth` from both row ends) and rows to
    the panel's south and north edges up to `depth`.  A span crossing a
    panel, or near spans of the other size, is keyed by its start."""
    n = decomp.mesh.panel_size
    base, rem = decomp.spans
    start = rank * base + min(rank, rem)
    stop = start + base + (rank < rem)
    panel, first = divmod(start, n * n)
    j0, i0 = divmod(first, n)
    j1, i1 = divmod(stop - 1 - panel * n * n, n)
    if j1 >= n:
        return start, stop, None, None, start
    rect = (panel, i0, i1 + 1, j0, j1 + 1) \
        if j0 == j1 or (i0 == 0 and i1 == n - 1) else None
    if rem and start - depth * n < rem * (base + 1) < stop + depth * n:
        return start, stop, panel, rect, start
    plain = j0 == j1 and depth <= i0 and i1 + depth < n
    return start, stop, panel, rect, (stop - start, -1 if plain else i0,
                                      min(j0, depth), min(n - 1 - j1, depth))


def _panel_rows(n: int, rect: Rect, depth: int) -> List[
        Tuple[Tuple[int, int], List[Tuple[int, int]], int]]:
    """A rectangle's halo on its panel as (row, runs, times): a row t rows
    off it holds the cells within depth - t columns of it, and its first
    row stands for the `times` rows beside it, whose owners match: one
    block row, or a span's one row or whole rows, with no halo beside."""
    panel, i0, i1, j0, j1 = rect
    rows = [((panel, j0), [(max(i0 - depth, 0), i0), (i1, min(i1 + depth, n))],
             j1 - j0)]
    for j in range(max(j0 - depth, 0), min(j1 + depth, n)):
        r = depth - max(j0 - j, j + 1 - j1)
        if r < depth:
            rows.append(((panel, j), [(max(i0 - r, 0), min(i1 + r, n))], 1))
    return rows


def _span_rects(n: int, start: int, stop: int) -> List[Rect]:
    """The linear cells [start, stop) as rectangles: on each panel they
    touch, a partial first row, the whole rows and a partial last row."""
    rects: List[Rect] = []
    for panel in range(start // (n * n), (stop - 1) // (n * n) + 1):
        # the cell index is (panel * n + j) * n + i
        j0, i0 = divmod(max(start - panel * n * n, 0), n)
        j1, i1 = divmod(min(stop - panel * n * n, n * n), n)
        if i0:
            rects.append((panel, i0, n if j0 < j1 else i1, j0, j0 + 1))
            j0 += 1
        if j0 < j1:
            rects.append((panel, 0, n, j0, j1))
        if i1 and j0 <= j1:
            rects.append((panel, 0, i1, j1, j1 + 1))
    return rects


def _merge(runs: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Sorted disjoint runs covering the same cells."""
    out: List[Tuple[int, int]] = []
    for a, b in sorted(runs):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(b, out[-1][1]))
        else:
            out.append((a, b))
    return out


def _span_near(mesh: CubedSphereMesh, rects: List[Rect],
               depth: int) -> Runs:
    """The cells of `rects` and those within `depth` steps of them as
    merged row runs: on their panels (`_panel_rows`) and past their edges,
    each row of an `_edge_rects`."""
    runs: Runs = {}
    for rect in rects:
        panel, i0, i1, j0, j1 = rect
        for j in range(j0, j1):
            runs.setdefault((panel, j), []).append((i0, i1))
        for (panel, j), row, times in _panel_rows(mesh.panel_size, rect,
                                                  depth):
            for y in range(j, j + times):
                runs.setdefault((panel, y), []).extend(row)
        for other, xa, xb, ya, yb in _edge_rects(mesh, rect, depth):
            for y in range(ya, yb):
                runs.setdefault((other, y), []).append((xa, xb))
    return {key: _merge(row) for key, row in runs.items()}


def _stacks(runs: Runs) -> List[list]:
    """Consecutive rows of one panel holding the same runs, stacked as
    [panel, first row j, rows, runs], in (panel, j) order."""
    stacks: List[list] = []
    for (panel, j), row in sorted(runs.items()):
        last = stacks[-1] if stacks else None
        if last and last[3] == row and last[:2] == [panel, j - last[2]]:
            last[2] += 1
        else:
            stacks.append([panel, j, 1, row])
    return stacks


class HaloCounts(NamedTuple):
    """Halo rings of a decomposition up to `depth`."""

    decomp: Decomposition
    depth: int
    # the largest owned-plus-halo cell count of any rank
    worst_cells: int
    # every rank's rings from compute_halos, for ring sizes only, else empty
    halos: List[Rings]
    # halo cells for `work`: of every rank (compute_halos), else of the
    # spans crossing a row or near a cube corner, not their size's flat form
    odd: Dict[int, int]
    # by span class (`_span_class`) not one rectangle: a span's rank and
    # its `_span_near`
    expanded: Dict[object, Tuple[int, Runs]]

    def ring_sizes(self, rank: int) -> Tuple[int, ...]:
        """Cells in each halo ring of `rank`, innermost first."""
        if self.halos:
            return tuple(map(len, self.halos[rank]))
        mesh, rects = self.decomp.mesh, self.decomp.rects(rank)
        depths = range(self.depth + 1)
        totals = [_rect_halo(mesh.panel_size, rects[0], k) for k in depths] \
            if len(rects) == 1 else [
                sum(b - a for row in _span_near(mesh, rects, k).values()
                    for a, b in row) for k in depths]
        return tuple(b - a for a, b in zip(totals, totals[1:]))

    def halo_count(self, rank: int) -> int:
        return sum(self.ring_sizes(rank))

    def work(self, redundant: bool) -> List[int]:
        """Every rank's owned cells, plus its halo cells when `redundant`,
        in rank order: a block grid's from one panel's table, which every
        panel repeats, a span layout's from its two sizes and `odd`."""
        decomp, depth = self.decomp, self.depth if redundant else 0
        if decomp.grid is None:
            base, rem = decomp.spans
            work = [base + 1 + _halo_cells(base + 1, 1, depth)] * rem \
                + [base + _halo_cells(base, 1, depth)] * (decomp.ranks - rem)
            for rank, cells in self.odd.items() if redundant else ():
                work[rank] = base + (rank < rem) + cells
            return work
        n, (i_off, j_off) = decomp.mesh.panel_size, decomp.grid
        return [(i1 - i0) * (j1 - j0)
                + _rect_halo(n, (0, i0, i1, j0, j1), depth)
                for j0, j1 in zip(j_off, j_off[1:])
                for i0, i1 in zip(i_off, i_off[1:])] * PANELS


def compute_halos(mesh: CubedSphereMesh, decomp: Decomposition,
                  depth: int = 1) -> HaloCounts:
    """Every rank's halo rings up to `depth` by frontier expansion."""
    check_halo_depth(mesh, depth)
    halos = [_rank_rings(mesh, decomp, rank, depth)
             for rank in range(decomp.ranks)]
    odd = {rank: sum(map(len, rings)) for rank, rings in enumerate(halos)}
    worst = max(decomp.owned_count(rank) + cells
                for rank, cells in odd.items())
    return HaloCounts(decomp, depth, worst, halos, odd, {})


def _shape_counts(mesh: CubedSphereMesh, decomp: Decomposition,
                  depth: int) -> HaloCounts:
    """A span layout's worst rank from its two span sizes: a span within
    one row and away from the cube corners takes the flat form.  The few
    other spans, near a corner or crossing a row, are sized one by one, by
    `_rect_halo` when one rectangle, else by the `_span_near` of one span
    per class, kept in `expanded`."""
    n = mesh.panel_size
    base, rem = decomp.spans
    owner = decomp.span_owner
    odd: Dict[int, int] = {}
    expanded: Dict[object, Tuple[int, Runs]] = {}
    worst = 0
    widths = Counter({base + 1: rem, base: decomp.ranks - rem})
    # the spans crossing into a row: its first cell x starts no span
    big = rem * (base + 1)
    ranks = {owner(x) for x in range(n, PANELS * n * n, n)
             if (x % (base + 1) if x < big else (x - big) % base)}
    for row in range(PANELS * n):
        # the cells at each end of the row that are near a corner
        near = min(n, depth - 1 - min(row % n, n - 1 - row % n))
        for a in (row * n, row * n + n - near) if near > 0 else ():
            ranks.update(range(owner(a), owner(a + near - 1) + 1))
    for rank in ranks:
        start, stop, _, rect, key = _span_class(decomp, depth, rank)
        widths[stop - start] -= 1
        if rect is not None:
            odd[rank] = _rect_halo(n, rect, depth)
        elif key in expanded:
            odd[rank] = odd[expanded[key][0]]
        else:
            near = _span_near(mesh, decomp.rects(rank), depth)
            expanded[key] = rank, near
            odd[rank] = sum(b - a for row in near.values()
                            for a, b in row) - (stop - start)
        worst = max(worst, stop - start + odd[rank])
    for w, count in widths.items():
        if count:
            worst = max(worst, w + _halo_cells(w, 1, depth))
    return HaloCounts(decomp, depth, worst, [], odd, expanded)


def _block_classes(decomp: Decomposition, depth: int) -> List[
        Tuple[List[int], List[int], Rect]]:
    """(block columns, block rows, the first's rectangle on panel 0) per
    class of blocks whose halos on their panels are alike up to a shift of
    cells and ranks.  Each axis keys a block by its gaps to the panel
    edges up to `depth` and the grid offsets within `depth` of it, from
    its start, so a class also shares its size and halo size."""
    n, (i_off, j_off) = decomp.mesh.panel_size, decomp.grid
    axes = []
    for off in decomp.grid:
        axis: Dict[object, List[int]] = {}
        for k, (a, b) in enumerate(zip(off, off[1:])):
            near = off[bisect_right(off, a - depth):bisect_left(off, b + depth)]
            axis.setdefault((min(a, depth), min(n - b, depth),
                             tuple(x - a for x in near)), []).append(k)
        axes.append(axis.values())
    return [(bis, bjs, (0, i_off[bis[0]], i_off[bis[0] + 1], j_off[bjs[0]],
                        j_off[bjs[0] + 1]))
            for bjs in axes[1] for bis in axes[0]]


def halo_counts(mesh: CubedSphereMesh, decomp: Decomposition,
                depth: int = 1) -> HaloCounts:
    """Halo ring sizes per rank, and the worst rank's cells, with no
    table per rank.  A w x h rectangle on one panel has
    H(d) = 2d(w+h+d-1) - sum of T(d-1-g) over the panel's corners halo
    cells within depth d, where g is its gap to the corner in columns plus
    rows and T(m) = m(m+1)/2 for m > 0, else 0; ring k has H(k) - H(k-1).
    A block grid's worst rank is that of one block per class
    (`_block_classes`); span layouts take `_shape_counts`, and those up to
    C10 `compute_halos`."""
    check_halo_depth(mesh, depth)
    if decomp.grid is not None:
        n = mesh.panel_size
        worst = max((rect[2] - rect[1]) * (rect[4] - rect[3])
                    + _rect_halo(n, rect, depth)
                    for _, _, rect in _block_classes(decomp, depth))
        return HaloCounts(decomp, depth, worst, [], {}, {})
    if mesh.panel_size <= _SPAN_WALK_MAX_PANEL:
        return compute_halos(mesh, decomp, depth)
    return _shape_counts(mesh, decomp, depth)


def _rank_classes(decomp: Decomposition, depth: int) -> List[
        Tuple[object, List[int], Optional[Rect]]]:
    """(key, ranks, the first's rectangle or None) per class of ranks whose
    halos on their panels are alike up to a shift of cells and ranks: by
    `_span_class`, or by `_block_classes` on every panel, as
    rank = panel * p * q + bj * p + bi."""
    if decomp.grid is None:
        classes: Dict[object, Tuple[object, List[int], Optional[Rect]]] = {}
        for rank in range(decomp.ranks):
            _, _, _, rect, key = _span_class(decomp, depth, rank)
            classes.setdefault(key, (key, [], rect))[1].append(rank)
        return list(classes.values())
    p, pq = len(decomp.grid[0]) - 1, decomp.ranks // PANELS
    return [(None, [panel * pq + bj * p + bi for panel in range(PANELS)
                    for bj in bjs for bi in bis], rect)
            for bis, bjs, rect in _block_classes(decomp, depth)]


def exchange_pattern(halos: HaloCounts,
                     bytes_per_cell: int) -> ExchangePattern:
    """One message per (owner -> halo-holder) pair with shared cells,
    counted under the key owner * ranks + holder.  A class (`_rank_classes`)
    tables the owners of its first rank's halo on its panel, all of it for
    a span crossing a panel (by column where `_stacks` of its rows are
    taller than wide), for every member by rank shift.  Past each
    panel edge, depth row s holds cell t of holder h when h owns the cell g
    in from the edge and u along it with g + s + |u - t| < depth."""
    if bytes_per_cell < 1:
        raise DecompositionError("bytes_per_cell must be positive")
    decomp, depth, ranks = halos.decomp, halos.depth, halos.decomp.ranks
    mesh, n, owners = decomp.mesh, decomp.mesh.panel_size, decomp.owners
    counts: Dict[int, int] = {}
    crossing = set()
    for key, members, rect in _rank_classes(decomp, depth):
        first, lo, hi = members[0], 0, 0
        srcs: List[int] = []
        if rect is not None:
            rows = _panel_rows(n, rect, depth)
        else:
            # near its span in `expanded`, else its first, less own [lo, hi)
            panel = _span_class(decomp, depth, first)[2]
            first, near = halos.expanded.get(key) or (
                first, _span_near(mesh, decomp.rects(first), depth))
            lo, hi = decomp.span_start(first), decomp.span_start(first + 1)
            if panel is None:
                crossing.add(first)
            rows = []
            for other, j, height, runs in _stacks(near):
                if panel is not None and other != lo // (n * n):
                    continue
                for a, b in runs:
                    x = (other * n + j) * n + a
                    if height <= b - a \
                            or x < hi and lo < x + (height - 1) * n + b - a:
                        rows += [((other, y), [(a, b)], 1)
                                 for y in range(j, j + height)]
                        continue
                    # taller than wide, none of it own: column by column
                    for x in range(x, x + b - a):
                        srcs += owners(range(x, x + height * n, n))
        for (panel, j), runs, times in rows:
            for a, b in runs:
                a, b = (panel * n + j) * n + a, (panel * n + j) * n + b
                srcs += (owners(range(a, min(b, lo)))
                         + owners(range(max(a, hi), b)) if a < hi and lo < b
                         else owners(range(a, b)) * times)
        # holder k's key for owner k + src - first
        keys = [k * (ranks + 1) - first * ranks for k in members]
        for src, size in Counter(srcs).items():
            counts.update(dict.fromkeys([k + src * ranks for k in keys], size))
    # lines[panel, edge][g]: the owners along the edge, g cells in from it
    lines = {(panel, edge): [owners(
        range(panel * n * n + x, (panel + 1) * n * n, n)
        if edge in (EAST, WEST) else range((panel * n + x) * n,
                                           (panel * n + x + 1) * n))
        for x in (range(depth) if edge in (WEST, SOUTH)
                  else range(n - 1, n - 1 - depth, -1))]
        for panel in range(PANELS) for edge in (EAST, WEST, NORTH, SOUTH)}
    past: List[int] = []
    for (panel, direction), near in lines.items():
        other, edge, same = mesh.edges[panel, direction]
        for s in range(depth):
            across = lines[other, edge][s][::1 if same else -1]
            if s == depth - 1:   # held only from the cell next to the edge
                past += map(add, map(ranks.__mul__, across), near[0])
                continue
            held = set()
            for g in range(depth - s):
                for d in range(g + s + 1 - depth, depth - g - s):
                    held.update(zip(range(max(0, -d), n - max(0, d)),
                                    near[g][max(0, d):n + min(0, d)]))
            past += [across[t] * ranks + h for t, h in held]
    past = Counter([key for key in past if key % ranks not in crossing]
                   if crossing else past)
    for key in past.keys() & counts.keys():
        past[key] += counts[key]
    counts.update(past)
    keys = sorted(counts)
    return ExchangePattern(keys, list(map(counts.__getitem__, keys)), ranks,
                           bytes_per_cell)
