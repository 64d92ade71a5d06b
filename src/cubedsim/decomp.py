"""Domain decomposition: rank partitions, halos and exchange patterns.

Ranks own contiguous rectangular blocks within panels.  When the rank
count is a multiple of six, each panel is split into an identical p x q
grid of blocks chosen to be as square as possible; otherwise ranks own
contiguous runs of the linearized cell ordering (a documented fallback
with imbalance at most one cell).

Halos are rings of non-owned cells reachable from the owned block by
edge adjacency.  `compute_halos` expands every rank cell by cell and is
the reference.  `halo_counts` sizes every rectangle (a block, or a span
that is one rectangle on one panel) by one closed form that knows each
panel corner is a cube corner, and the worst rank once per shape; only
the other spans are expanded, as row runs.  Span layouts up to C10 are
walked like `compute_halos`, whose cell counts perfbench reads.

A rectangle's halo at depth d is, on its panel, four strips and
d(d-1)/2 diagonal cells per corner, and past an edge at gap g < d, in
depth row s, the cells along the edge within d - g - 1 - s of its side
(`_edge_rects`), none past a cube corner.  `exchange_pattern` counts one
message per (owner, holder) pair: for a block grid the whole layout at
once, one panel's table repeated on all six plus the `_edge_rects` of
the blocks near an edge, as overlaps with the block offsets; for a span
its row runs, as overlaps with the span offsets.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from math import isqrt
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence, Set,
                    Tuple, Union)

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
class Block:
    """Half-open rectangular cell range [i0, i1) x [j0, j1) on one panel."""

    panel: int
    i0: int
    i1: int
    j0: int
    j1: int

    @property
    def size(self) -> int:
        return (self.i1 - self.i0) * (self.j1 - self.j0)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.i1 - self.i0, self.j1 - self.j0

    def cells(self) -> Iterator[CellId]:
        for j in range(self.j0, self.j1):
            for i in range(self.i0, self.i1):
                yield CellId(self.panel, i, j)


@dataclass(frozen=True)
class Span:
    """Contiguous run [start, stop) of linearized cell ids (fallback
    domain shape when ranks do not factor as 6*p*q)."""

    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class Decomposition:
    """Rank domains held as offsets, each rank's domain derived on demand."""

    mesh: CubedSphereMesh
    ranks: int
    # block-grid offsets (i, j), the same on every panel (None for spans)
    grid: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None
    # span starts followed by the cell total (None for a block grid)
    span_offsets: Optional[Tuple[int, ...]] = None

    def domain(self, rank: int) -> Union[Block, Span]:
        if self.grid is None:
            return Span(self.span_offsets[rank], self.span_offsets[rank + 1])
        i_off, j_off = self.grid
        p = len(i_off) - 1
        panel, local = divmod(rank, p * (len(j_off) - 1))
        bj, bi = divmod(local, p)
        return Block(panel, i_off[bi], i_off[bi + 1], j_off[bj], j_off[bj + 1])

    @cached_property
    def domains(self) -> Tuple[Union[Block, Span], ...]:
        """Every rank's domain, built once for a span layout's per-rank
        passes after the memory guard (a block grid's take tables)."""
        return tuple(map(self.domain, range(self.ranks)))

    def owned_cells(self, rank: int) -> Set[CellId]:
        dom = self.domain(rank)
        if isinstance(dom, Block):
            return set(dom.cells())
        return {self.mesh.from_index(k) for k in range(dom.start, dom.stop)}

    def owned_count(self, rank: int) -> int:
        return self.domains[rank].size

    def owner_of(self, cell: CellId) -> int:
        if self.grid is not None:
            i_off, j_off = self.grid
            p, q = len(i_off) - 1, len(j_off) - 1
            bi = bisect_right(i_off, cell.i) - 1
            return (cell.panel * q + bisect_right(j_off, cell.j) - 1) * p + bi
        rank = bisect_right(self.span_offsets, self.mesh.to_index(cell)) - 1
        if 0 <= rank < self.ranks:
            return rank
        raise DecompositionError(f"cell {cell} not covered by any rank")


class ExchangePattern(NamedTuple):
    # one per (owner -> halo-holder) pair, sorted by (src, dst)
    messages: Tuple[Message, ...]


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
    base, rem = divmod(total, ranks)
    big = rem * (base + 1)
    return Decomposition(mesh=mesh, ranks=ranks, span_offsets=tuple(
        chain(range(0, big, base + 1), range(big, total + 1, base))))


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


def _overlaps(offsets: Sequence[int], a: int, b: int) -> Iterator[Tuple[int, int]]:
    """(block index, cells in common) of each block interval meeting [a, b)."""
    if a >= b:
        return
    k = bisect_right(offsets, a) - 1
    while offsets[k] < b:
        yield k, min(b, offsets[k + 1]) - max(a, offsets[k])
        k += 1


def _halo_cells(w: int, h: int, depth: int, gaps: Sequence[int] = ()) -> int:
    """H(depth) of a w x h rectangle at `gaps` (see `halo_counts`)."""
    lost = 0
    for g in gaps:
        if g < depth - 1:
            lost += (depth - 1 - g) * (depth - g) // 2
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


def _grid_counts(decomp: Decomposition, depth: int) -> Dict[int, int]:
    """Halo cells per (owner, holder) pair of a block grid, keyed
    owner * ranks + holder: one panel's table, which every panel repeats,
    from per-column and per-row overlap tables, and the `_edge_rects` of
    the blocks within `depth` of a panel edge."""
    mesh, ranks = decomp.mesh, decomp.ranks
    n = mesh.panel_size
    i_off, j_off = decomp.grid
    p, q = len(i_off) - 1, len(j_off) - 1
    # on the panel, the columns s < depth past a block's east and west
    # sides hold the cells within r = depth - 1 - s rows of its rows, and
    # the rows past its north and south sides the cells of its columns
    past = [[(bisect_right(i_off, i) - 1, depth - 1 - s)
             for s in range(depth) for i in (b + s, a - 1 - s) if 0 <= i < n]
            for a, b in zip(i_off, i_off[1:])]
    within = [[list(_overlaps(j_off, max(a - r, 0), min(b + r, n)))
               for r in range(depth)] for a, b in zip(j_off, j_off[1:])]
    strips = [list(_overlaps(j_off, b, min(b + depth, n)))
              + list(_overlaps(j_off, max(a - depth, 0), a))
              for a, b in zip(j_off, j_off[1:])]
    local: Dict[int, int] = {}
    for bj in range(q):
        for bi, (i0, i1) in enumerate(zip(i_off, i_off[1:])):
            dst = bj * p + bi
            for k, cells in strips[bj]:
                local[(k * p + bi) * ranks + dst] = cells * (i1 - i0)
            for ki, r in past[bi]:
                for kj, cells in within[bj][r]:
                    key = (kj * p + ki) * ranks + dst
                    local[key] = local.get(key, 0) + cells
    shift = p * q * (ranks + 1)
    counts = {key + panel * shift: cells for panel in range(PANELS)
              for key, cells in local.items()}
    # past the panel edges: every block of a grid row near an edge, and
    # in the other rows the blocks of the columns near an edge
    near = [bi for bi, (a, b) in enumerate(zip(i_off, i_off[1:]))
            if min(a, n - b) < depth]
    for panel in range(PANELS):
        for bj, (j0, j1) in enumerate(zip(j_off, j_off[1:])):
            for bi in range(p) if min(j0, n - j1) < depth else near:
                dst = (panel * q + bj) * p + bi
                rect = panel, i_off[bi], i_off[bi + 1], j0, j1
                for other, xa, xb, ya, yb in _edge_rects(mesh, rect, depth):
                    cols = list(_overlaps(i_off, xa, xb))
                    for kj, cj in _overlaps(j_off, ya, yb):
                        base = (other * q + kj) * p
                        for ki, ci in cols:
                            key = (base + ki) * ranks + dst
                            counts[key] = counts.get(key, 0) + ci * cj
    return counts


def _rectangle(n: int, dom: Union[Block, Span]) -> Optional[Rect]:
    """The domain as a rectangle when it is one on one panel: a block, or
    a span that is part of one row or whole rows."""
    if isinstance(dom, Block):
        return dom.panel, dom.i0, dom.i1, dom.j0, dom.j1
    panel, first = divmod(dom.start, n * n)
    last = dom.stop - 1 - panel * n * n
    if last >= n * n:
        return None
    j0, i0 = divmod(first, n)
    j1, i1 = divmod(last, n)
    if j0 == j1:
        return panel, i0, i1 + 1, j0, j0 + 1
    if i0 == 0 and i1 == n - 1:
        return panel, 0, n, j0, j1 + 1
    return None


def _rect_runs(mesh: CubedSphereMesh, rect: Rect, depth: int) -> Runs:
    """A rectangle's halo as row runs: on its panel, a row t rows off the
    rectangle holds the cells within depth - t columns of it, and past
    the edges each row of an `_edge_rects` rectangle is a run."""
    n = mesh.panel_size
    panel, i0, i1, j0, j1 = rect
    runs: Runs = {}
    for j in range(max(j0 - depth, 0), min(j1 + depth, n)):
        r = depth - max(j0 - j, j + 1 - j1, 0)
        a, b = max(i0 - r, 0), min(i1 + r, n)
        runs[panel, j] = [(a, i0), (i1, b)] if j0 <= j < j1 else [(a, b)]
    for other, xa, xb, ya, yb in _edge_rects(mesh, rect, depth):
        for y in range(ya, yb):
            runs.setdefault((other, y), []).append((xa, xb))
    return runs


def _span_runs(n: int, span: Span) -> Runs:
    """The span's cells as one run per row it touches."""
    runs: Runs = {}
    # the cell index is row * n + i, with row = panel * n + j
    for row in range(span.start // n, (span.stop - 1) // n + 1):
        runs[divmod(row, n)] = [(max(span.start - row * n, 0),
                                 min(span.stop - row * n, n))]
    return runs


def _merge(runs: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Sorted disjoint runs covering the same cells."""
    out: List[Tuple[int, int]] = []
    for a, b in sorted(runs):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(b, out[-1][1]))
        else:
            out.append((a, b))
    return out


def _subtract(runs: List[Tuple[int, int]],
              cut: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """The parts of sorted disjoint `runs` outside sorted disjoint `cut`."""
    out = []
    for a, b in runs:
        for c, d in cut:
            if c >= b:
                break
            if d > a:
                if c > a:
                    out.append((a, c))
                a = d
        if a < b:
            out.append((a, b))
    return out


def _span_rings(mesh: CubedSphereMesh, span: Span, depth: int) -> List[Runs]:
    """A span's halo rings up to `depth` as row runs, innermost first:
    the cells within k steps of the span are those within k steps of one
    of its rows, each a rectangle (`_rect_runs`), and ring k is what that
    adds to the cells within k - 1."""
    rows = inner = _span_runs(mesh.panel_size, span)
    rings = []
    for k in range(1, depth + 1):
        near = {key: list(runs) for key, runs in rows.items()}
        for (panel, j), [(a, b)] in rows.items():
            for key, runs in _rect_runs(mesh, (panel, a, b, j, j + 1),
                                        k).items():
                near.setdefault(key, []).extend(runs)
        near = {key: _merge(runs) for key, runs in near.items()}
        rings.append({key: ring for key, runs in near.items()
                      if (ring := _subtract(runs, inner.get(key, ())))})
        inner = near
    return rings


def _run_sizes(rings: List[Runs]) -> Tuple[int, ...]:
    return tuple(sum(b - a for runs in ring.values() for a, b in runs)
                 for ring in rings)


class HaloCounts(NamedTuple):
    """Halo rings of a decomposition up to `depth`."""

    decomp: Decomposition
    depth: int
    # the largest owned-plus-halo cell count of any rank
    worst_cells: int
    # every rank's frontier-expansion rings (compute_halos), else empty
    halos: List[Rings]
    # the row-run rings of the spans that are not one rectangle, by rank
    expanded: Dict[int, List[Runs]]

    def ring_sizes(self, rank: int) -> Tuple[int, ...]:
        """Cells in each halo ring of `rank`, innermost first."""
        if self.halos:
            return tuple(map(len, self.halos[rank]))
        if rank in self.expanded:
            return _run_sizes(self.expanded[rank])
        n = self.decomp.mesh.panel_size
        rect = _rectangle(n, self.decomp.domains[rank])
        totals = [_rect_halo(n, rect, k) for k in range(self.depth + 1)]
        return tuple(b - a for a, b in zip(totals, totals[1:]))

    def halo_count(self, rank: int) -> int:
        return sum(self.ring_sizes(rank))

    def work(self, redundant: bool) -> List[int]:
        """Every rank's owned cells, plus its halo cells when `redundant`,
        in rank order; a block grid's from one panel's table, which every
        panel repeats."""
        decomp, depth = self.decomp, self.depth if redundant else 0
        if decomp.grid is None:
            return [span.size + (self.halo_count(r) if redundant else 0)
                    for r, span in enumerate(decomp.domains)]
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
    worst = max(decomp.owned_count(rank) + sum(map(len, rings))
                for rank, rings in enumerate(halos))
    return HaloCounts(decomp, depth, worst, halos, {})


def _shape_counts(mesh: CubedSphereMesh, decomp: Decomposition,
                  depth: int) -> HaloCounts:
    """The worst rank's cells from shape classes: each (w, h) shape that
    a rectangle away from the cube corners has is sized once by the flat
    form.  The few other ranks are sized one by one: blocks near a corner
    on panel 0 only (every panel has the same grid), and spans near a
    corner or crossing a row, by `_halo_cells` when one rectangle, else by
    row runs, which are kept in `expanded`."""
    n = mesh.panel_size
    if decomp.grid is None:
        off = decomp.span_offsets
        base, rem = divmod(off[-1], decomp.ranks)
        # a span within one row is base + 1 or base cells wide
        shapes = Counter({(base + 1, 1): rem, (base, 1): decomp.ranks - rem})
        odd = set()
        for row in range(PANELS * n):
            x = row * n
            k = bisect_right(off, x) - 1
            if off[k] < x:  # the span holding cell x also holds x - 1
                odd.add(k)
            # the cells at each end of the row that are near a corner
            near = min(n, depth - 1 - min(row % n, n - 1 - row % n))
            if near > 0:
                odd.update(k for a in (x, x + n - near)
                           for k, _ in _overlaps(off, a, a + near))
    else:
        i_off, j_off = decomp.grid
        p = len(i_off) - 1
        # the shapes and the gaps to the nearest edges, on one panel
        widths = Counter(b - a for a, b in zip(i_off, i_off[1:]))
        heights = Counter(b - a for a, b in zip(j_off, j_off[1:]))
        shapes = Counter({(w, h): a * b for w, a in widths.items()
                          for h, b in heights.items()})
        gi = [min(a, n - b) for a, b in zip(i_off, i_off[1:])]
        gj = [min(a, n - b) for a, b in zip(j_off, j_off[1:])]
        odd = [bj * p + bi for bj in range(len(gj)) if gj[bj] + 2 <= depth
               for bi in range(p) if gi[bi] + gj[bj] + 2 <= depth]
    expanded: Dict[int, List[Runs]] = {}
    worst = 0
    for rank in odd:
        dom = decomp.domain(rank)
        rect = _rectangle(n, dom)
        shapes[dom.shape if isinstance(dom, Block) else (dom.size, 1)] -= 1
        if rect is None:
            expanded[rank] = rings = _span_rings(mesh, dom, depth)
            halo = sum(_run_sizes(rings))
        else:
            halo = _rect_halo(n, rect, depth)
        worst = max(worst, dom.size + halo)
    for (w, h), count in shapes.items():
        if count:
            worst = max(worst, w * h + _halo_cells(w, h, depth))
    return HaloCounts(decomp, depth, worst, [], expanded)


def halo_counts(mesh: CubedSphereMesh, decomp: Decomposition,
                depth: int = 1) -> HaloCounts:
    """Halo ring sizes per rank, and the worst rank's cells, with no
    table per rank (`_shape_counts`).  A w x h rectangle on one panel has
    H(d) = 2d(w+h+d-1) - sum of T(d-1-g) over the panel's corners halo
    cells within depth d, where g is its gap to the corner in columns plus
    rows and T(m) = m(m+1)/2 for m > 0, else 0; ring k has H(k) - H(k-1).
    Blocks and the spans that are one rectangle take this form, the other
    spans row runs, and span layouts up to C10 `compute_halos`."""
    check_halo_depth(mesh, depth)
    if decomp.grid is None and mesh.panel_size <= _SPAN_WALK_MAX_PANEL:
        return compute_halos(mesh, decomp, depth)
    return _shape_counts(mesh, decomp, depth)


def exchange_pattern(halos: HaloCounts,
                     bytes_per_cell: int) -> ExchangePattern:
    """One message per (owner -> halo-holder) pair with shared cells,
    counted under the key owner * ranks + holder."""
    if bytes_per_cell < 1:
        raise DecompositionError("bytes_per_cell must be positive")
    decomp, depth = halos.decomp, halos.depth
    ranks = decomp.ranks
    if halos.halos:
        counts = Counter(decomp.owner_of(cell) * ranks + rank
                         for rank, rings in enumerate(halos.halos)
                         for ring in rings for cell in ring)
    elif decomp.grid is not None:
        counts = _grid_counts(decomp, depth)
    else:
        counts = {}
        n = decomp.mesh.panel_size
        for rank, span in enumerate(decomp.domains):
            # the rings expanded in halo_counts, else the one rectangle's
            for ring in halos.expanded.get(rank) or [
                    _rect_runs(decomp.mesh, _rectangle(n, span), depth)]:
                for (panel, j), runs in ring.items():
                    row = (panel * n + j) * n
                    for a, b in runs:
                        for owner, cells in _overlaps(decomp.span_offsets,
                                                      row + a, row + b):
                            key = owner * ranks + rank
                            counts[key] = counts.get(key, 0) + cells
    keys = sorted(counts)
    cells = [counts[key] for key in keys]
    # tuple.__new__ builds each Message without a Python-level call
    return ExchangePattern(tuple(map(partial(tuple.__new__, Message), zip(
        [key // ranks for key in keys], [key % ranks for key in keys], cells,
        [c * bytes_per_cell for c in cells]))))
