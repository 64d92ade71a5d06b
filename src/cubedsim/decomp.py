"""Domain decomposition: rank partitions, halos and exchange patterns.

Ranks own contiguous rectangular blocks within panels.  When the rank
count is a multiple of six, each panel is split into an identical p x q
grid of blocks chosen to be as square as possible; otherwise ranks own
contiguous runs of the linearized cell ordering (a documented fallback
with imbalance at most one cell).

Halos are rings of non-owned cells reachable from the owned block by
edge adjacency.  `HaloCounts` is the one halo result: the worst rank's
owned-plus-halo cells, and the row runs of the spans it expanded.
`compute_halos` expands every rank cell by cell and is the reference.
`halo_counts` sizes every rectangle (each block, and each span that is
one rectangle on one panel) by one closed form, which knows that each
panel corner is a cube corner, where the flat unfolding loses a
quadrant; the worst rank is sized once per shape.  Only spans that are
not one rectangle are expanded, as row runs.  A span layout on a mesh of
at most C10 is expanded like `compute_halos`, whose cell counts
perfbench's halo counters read.

`exchange_pattern` builds one message per (owner -> halo-holder) pair
from either result.  `compute_halos` rings give each cell's owner.  A
span's ring runs, expanded once (in `halo_counts` or here), are
intervals of linear cell indices, and their per-owner counts are
overlaps with the span offsets.  A block's halo is four straight strips,
each split into rectangles on the block's own panel and on the panel
across an edge (reached through `mesh.fold`), plus d(d-1)/2 diagonal
cells per block corner at depth d, less those past a cube corner;
per-owner counts of a rectangle are overlaps with the block offsets.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import isqrt
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence, Set,
                    Tuple, Union)

from .errors import CubedsimError
from .mesh import PANELS, CellId, CubedSphereMesh


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

    def contains(self, cell: CellId) -> bool:
        return (cell.panel == self.panel
                and self.i0 <= cell.i < self.i1
                and self.j0 <= cell.j < self.j1)

    def cells(self) -> Iterator[CellId]:
        for j in range(self.j0, self.j1):
            for i in range(self.i0, self.i1):
                yield CellId(self.panel, i, j)

    def boundary_cells(self) -> Iterator[CellId]:
        """Cells on the block perimeter (the only ones with outside
        neighbours)."""
        for j in range(self.j0, self.j1):
            edge_row = j in (self.j0, self.j1 - 1)
            for i in range(self.i0, self.i1):
                if edge_row or i in (self.i0, self.i1 - 1):
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
        """Every rank's domain, built once for the per-rank passes that
        follow the memory guard."""
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
            i_offsets, j_offsets = self.grid
            p = len(i_offsets) - 1
            q = len(j_offsets) - 1
            bi = bisect_right(i_offsets, cell.i) - 1
            bj = bisect_right(j_offsets, cell.j) - 1
            return cell.panel * p * q + bj * p + bi
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
    dom = decomp.domain(rank)
    if isinstance(dom, Block):
        owned_test = dom.contains
        frontier: Set[CellId] = set(dom.boundary_cells())
    else:
        owned = decomp.owned_cells(rank)
        owned_test = owned.__contains__
        frontier = owned
    seen: Set[CellId] = set()
    rings: List[Tuple[CellId, ...]] = []
    for _ in range(depth):
        ring: Set[CellId] = set()
        for cell in frontier:
            for nb in mesh.neighbors(cell):
                if nb not in seen and not owned_test(nb):
                    ring.add(nb)
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


def _rect_halo(n: int, block: Block, depth: int) -> int:
    """H(depth) of a block; a corner's gap sums the gaps to its two edges."""
    gw, ge, gs, gn = block.i0, n - block.i1, block.j0, n - block.j1
    return _halo_cells(*block.shape, depth,
                       (gw + gs, gw + gn, ge + gs, ge + gn))


def _block_owners(decomp: Decomposition, rank: int,
                  depth: int) -> Dict[int, int]:
    """Halo cells per owner rank of a block: four strips of `depth` rows
    along the block sides, each split into its part on the block's panel
    and its part across the panel edge, plus the diagonal cells off the
    block corners counted one by one, none past a cube corner."""
    mesh = decomp.mesh
    n = mesh.panel_size
    i_off, j_off = decomp.grid
    p, q = len(i_off) - 1, len(j_off) - 1
    block = decomp.domains[rank]
    panel, i0, i1, j0, j1 = block.panel, block.i0, block.i1, block.j0, block.j1
    bj, bi = divmod(rank - panel * p * q, p)
    counts: Dict[int, int] = {}
    # on the block's panel the east and west strips meet only blocks of
    # its grid row, the north and south strips only blocks of its column
    row = (panel * q + bj) * p
    for a, b in ((i1, min(i1 + depth, n)), (max(i0 - depth, 0), i0)):
        for k, cells in _overlaps(i_off, a, b):
            counts[row + k] = cells * (j1 - j0)
    column = panel * p * q + bi
    for a, b in ((j1, min(j1 + depth, n)), (max(j0 - depth, 0), j0)):
        for k, cells in _overlaps(j_off, a, b):
            counts[column + k * p] = cells * (i1 - i0)
    # strip parts beyond a panel edge, as rectangles [ia, ib) x [ja, jb)
    # in the panel's coordinates extended past its edges
    for ia, ib, ja, jb in ((max(i1, n), i1 + depth, j0, j1),
                           (i0 - depth, min(i0, 0), j0, j1),
                           (i0, i1, max(j1, n), j1 + depth),
                           (i0, i1, j0 - depth, min(j0, 0))):
        if ia >= ib or ja >= jb:
            continue
        other, xa, ya = mesh.fold(panel, ia, ja)
        _, xb, yb = mesh.fold(panel, ib - 1, jb - 1)
        for kj, cj in _overlaps(j_off, min(ya, yb), max(ya, yb) + 1):
            base = (other * q + kj) * p
            for ki, ci in _overlaps(i_off, min(xa, xb), max(xa, xb) + 1):
                counts[base + ki] = counts.get(base + ki, 0) + ci * cj
    for dx in range(1, depth):
        for dy in range(1, depth - dx + 1):
            for i, j in ((i1 - 1 + dx, j1 - 1 + dy), (i0 - dx, j1 - 1 + dy),
                         (i0 - dx, j0 - dy), (i1 - 1 + dx, j0 - dy)):
                if 0 <= i < n or 0 <= j < n:
                    owner = decomp.owner_of(mesh.fold(panel, i, j))
                    counts[owner] = counts.get(owner, 0) + 1
    return counts


def _rectangle(n: int, dom: Union[Block, Span]) -> Optional[Block]:
    """The domain as a block when it is one rectangle on one panel: a
    block, or a span that is part of one row or whole rows."""
    if isinstance(dom, Block):
        return dom
    panel, first = divmod(dom.start, n * n)
    last = dom.stop - 1 - panel * n * n
    if last >= n * n:
        return None
    j0, i0 = divmod(first, n)
    j1, i1 = divmod(last, n)
    if j0 == j1:
        return Block(panel, i0, i1 + 1, j0, j0 + 1)
    if i0 == 0 and i1 == n - 1:
        return Block(panel, 0, n, j0, j1 + 1)
    return None


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
    """A span's halo rings up to `depth` as row runs, innermost first.

    A run's west and east ends and the rows above and below it cross a
    panel edge through `mesh.fold`; a folded row lands on the other panel
    as one row run or as a column of one-cell runs."""
    n = mesh.panel_size
    frontier = seen = _span_runs(n, span)
    rings = []
    for _ in range(depth):
        near: Runs = {}
        add = near.setdefault
        for (panel, j), runs in frontier.items():
            for a, b in runs:
                # the run is seen, so it may stand in the cells west and
                # east of it on its panel
                add((panel, j), []).append((max(a - 1, 0), min(b + 1, n)))
                for i in (a - 1, b):
                    if not 0 <= i < n:
                        cell = mesh.fold(panel, i, j)
                        add((cell.panel, cell.j), []).append(
                            (cell.i, cell.i + 1))
                for y in (j - 1, j + 1):
                    if 0 <= y < n:
                        add((panel, y), []).append((a, b))
                        continue
                    first = mesh.fold(panel, a, y)
                    last = mesh.fold(panel, b - 1, y)
                    if first.j == last.j:
                        add((first.panel, first.j), []).append(
                            (min(first.i, last.i), max(first.i, last.i) + 1))
                        continue
                    for row in range(min(first.j, last.j),
                                     max(first.j, last.j) + 1):
                        add((first.panel, row), []).append(
                            (first.i, first.i + 1))
        ring: Runs = {}
        for key, runs in near.items():
            new = _subtract(_merge(runs), seen.get(key, ()))
            if new:
                ring[key] = new
                seen[key] = _merge(seen.get(key, []) + new)
        rings.append(ring)
        frontier = ring
    return rings


def _run_sizes(rings: List[Runs]) -> Tuple[int, ...]:
    return tuple(sum(b - a for runs in ring.values() for a, b in runs)
                 for ring in rings)


def _span_owners(decomp: Decomposition, rings: List[Runs]) -> Counter:
    """Halo cells per owner rank of a span: each ring run is an interval
    of cell indices, which meets the owners' spans as overlaps."""
    n = decomp.mesh.panel_size
    counts: Counter = Counter()
    for ring in rings:
        for (panel, j), runs in ring.items():
            row = (panel * n + j) * n
            for a, b in runs:
                for owner, cells in _overlaps(decomp.span_offsets,
                                              row + a, row + b):
                    counts[owner] += cells
    return counts


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
        block = _rectangle(n, self.decomp.domains[rank])
        totals = [_rect_halo(n, block, k) for k in range(self.depth + 1)]
        return tuple(b - a for a, b in zip(totals, totals[1:]))

    def halo_count(self, rank: int) -> int:
        if self.halos or rank in self.expanded:
            return sum(self.ring_sizes(rank))
        n = self.decomp.mesh.panel_size
        return _rect_halo(n, _rectangle(n, self.decomp.domains[rank]),
                          self.depth)


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
        block = _rectangle(n, dom)
        shapes[dom.shape if isinstance(dom, Block) else (dom.size, 1)] -= 1
        if block is None:
            expanded[rank] = rings = _span_rings(mesh, dom, depth)
            halo = sum(_run_sizes(rings))
        else:
            halo = _rect_halo(n, block, depth)
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
    """One message per (owner -> halo-holder) pair with shared cells."""
    if bytes_per_cell < 1:
        raise DecompositionError("bytes_per_cell must be positive")
    decomp, depth = halos.decomp, halos.depth
    counts: Dict[Tuple[int, int], int] = {}
    for rank in range(decomp.ranks):
        if halos.halos:
            owners = Counter(decomp.owner_of(cell)
                             for ring in halos.halos[rank] for cell in ring)
        elif decomp.grid is None:
            # a span's row runs, expanded once: here or in halo_counts
            rings = (halos.expanded.get(rank)
                     or _span_rings(decomp.mesh, decomp.domains[rank], depth))
            owners = _span_owners(decomp, rings)
        else:
            owners = _block_owners(decomp, rank, depth)
        for owner, cells in owners.items():
            counts[(owner, rank)] = cells
    return ExchangePattern(tuple(
        Message(src, dst, c, c * bytes_per_cell)
        for (src, dst), c in sorted(counts.items())))
