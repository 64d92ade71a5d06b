"""Domain decomposition: rank partitions, halos and exchange patterns.

Ranks own contiguous rectangular blocks within panels.  When the rank
count is a multiple of six, each panel is split into an identical p x q
grid of blocks chosen to be as square as possible; otherwise ranks own
contiguous runs of the linearized cell ordering (a documented fallback
with imbalance at most one cell).

Halos are rings of non-owned cells reachable from the owned block by
edge adjacency.  `HaloCounts` is the one halo result: per rank, the
frontier-expansion rings, or None where a closed form gives their sizes.
`compute_halos` expands every rank and is the reference.  `halo_counts`
expands only where it must: away from the eight cube corners the surface
around a block unfolds flat, so ring k of a w x h block has
2(w+h) + 4(k-1) cells, and only blocks whose depth-d neighbourhood
reaches a cube corner, and every span decomposition, are expanded.

`exchange_pattern` builds one message per (owner -> halo-holder) pair
from either result.  Expanded rings give each cell's owner directly.  A
closed-form block's halo is four straight strips, each split into
rectangles on the block's own panel and on the panel across an edge
(reached through `mesh.fold`), plus d(d-1)/2 diagonal cells per block
corner at depth d; per-owner counts of a rectangle are overlaps with the
block-offset intervals.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

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


def _split_sizes(total: int, parts: int) -> List[int]:
    """Split `total` into `parts` sizes; the remainder is absorbed one
    per block starting from the last block."""
    base, rem = divmod(total, parts)
    sizes = [base] * parts
    for k in range(rem):
        sizes[parts - 1 - k] += 1
    return sizes


def _offsets(sizes: Sequence[int]) -> List[int]:
    out = [0]
    for s in sizes:
        out.append(out[-1] + s)
    return out


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
    mesh: CubedSphereMesh
    ranks: int
    domains: Tuple[object, ...]  # Block or Span per rank
    # block-grid metadata (None for span fallback)
    grid: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None

    def owned_cells(self, rank: int) -> Set[CellId]:
        dom = self.domains[rank]
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
        index = self.mesh.to_index(cell)
        rank = bisect_right(self._span_starts, index) - 1
        if rank >= 0 and index < self.domains[rank].stop:
            return rank
        raise DecompositionError(f"cell {cell} not covered by any rank")

    @cached_property
    def _span_starts(self) -> List[int]:
        return [dom.start for dom in self.domains]


class ExchangePattern(NamedTuple):
    # one per (owner -> halo-holder) pair, sorted by (src, dst)
    messages: Tuple[Message, ...]


def _squarest_factor_pair(m: int) -> Tuple[int, int]:
    """Factor m = p * q with the block aspect ratio closest to one;
    ties broken toward larger p."""
    best = None
    for p in range(1, m + 1):
        if m % p:
            continue
        q = m // p
        key = (abs(p - q), -p)
        if best is None or key < best[0]:
            best = (key, (p, q))
    return best[1]


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
        m = ranks // PANELS
        p, q = _squarest_factor_pair(m)
        if p <= n and q <= n:
            i_sizes = _split_sizes(n, p)
            j_sizes = _split_sizes(n, q)
            i_off = _offsets(i_sizes)
            j_off = _offsets(j_sizes)
            domains: List[Block] = []
            for panel in range(PANELS):
                for bj in range(q):
                    for bi in range(p):
                        domains.append(Block(panel,
                                             i_off[bi], i_off[bi + 1],
                                             j_off[bj], j_off[bj + 1]))
            return Decomposition(mesh=mesh, ranks=ranks,
                                 domains=tuple(domains),
                                 grid=(tuple(i_off), tuple(j_off)))
    sizes = _split_sizes(total, ranks)
    sizes.reverse()  # larger chunks first for a stable layout
    off = _offsets(sizes)
    spans = tuple(Span(off[k], off[k + 1]) for k in range(ranks))
    return Decomposition(mesh=mesh, ranks=ranks, domains=spans)


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
    dom = decomp.domains[rank]
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


def _near_corner(block: Block, n: int, depth: int) -> bool:
    """Whether the block's depth-`depth` neighbourhood reaches a cube
    corner: the cell diagonally beyond the nearest panel corner is at
    most `depth` steps away in the flat unfolding."""
    return min(block.i0, n - block.i1) + min(block.j0, n - block.j1) + 2 <= depth


def _block_owners(decomp: Decomposition, rank: int,
                  depth: int) -> Dict[int, int]:
    """Halo cells per owner rank of a block away from the cube corners:
    four strips of `depth` rows along the block sides, each split into
    its part on the block's panel and its part across the panel edge,
    plus the diagonal cells off the block corners counted one by one."""
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
                owner = decomp.owner_of(mesh.fold(panel, i, j))
                counts[owner] = counts.get(owner, 0) + 1
    return counts


class HaloCounts(NamedTuple):
    """Per-rank halo rings of a decomposition up to `depth`."""

    decomp: Decomposition
    depth: int
    # ring sizes of the blocks of one panel, None near a cube corner;
    # empty when every rank is expanded
    closed: List[Optional[Tuple[int, ...]]]
    # per rank: frontier-expansion rings, or None where `closed` gives
    # the ring sizes
    halos: List[Optional[Rings]]

    def ring_sizes(self, rank: int) -> Tuple[int, ...]:
        """Cells in each halo ring of `rank`, innermost first."""
        rings = self.halos[rank]
        if rings is None:
            return self.closed[rank % len(self.closed)]
        return tuple(map(len, rings))

    def halo_count(self, rank: int) -> int:
        return sum(self.ring_sizes(rank))


def compute_halos(mesh: CubedSphereMesh, decomp: Decomposition,
                  depth: int = 1) -> HaloCounts:
    """Every rank's halo rings up to `depth` by frontier expansion."""
    check_halo_depth(mesh, depth)
    return HaloCounts(decomp, depth, [],
                      [_rank_rings(mesh, decomp, rank, depth)
                       for rank in range(decomp.ranks)])


def halo_counts(mesh: CubedSphereMesh, decomp: Decomposition,
                depth: int = 1) -> HaloCounts:
    """Halo ring sizes per rank without building halo cell sets where the
    closed form holds: ring k of a w x h block away from the cube corners
    has 2(w+h) + 4(k-1) cells.  Blocks near a cube corner take the
    frontier expansion, and a decomposition without a block grid takes
    `compute_halos`."""
    check_halo_depth(mesh, depth)
    if decomp.grid is None:
        return compute_halos(mesh, decomp, depth)
    # every panel has the same block grid, and every panel corner is a
    # cube corner, so the closed form depends on the place in the panel
    per_panel = decomp.ranks // PANELS
    closed = [None if _near_corner(block, mesh.panel_size, depth) else
              tuple(2 * (block.i1 - block.i0 + block.j1 - block.j0) + 4 * k
                    for k in range(depth))
              for block in decomp.domains[:per_panel]]
    halos = [None if closed[rank % per_panel] is not None
             else _rank_rings(mesh, decomp, rank, depth)
             for rank in range(decomp.ranks)]
    return HaloCounts(decomp, depth, closed, halos)


def exchange_pattern(halos: HaloCounts,
                     bytes_per_cell: int) -> ExchangePattern:
    """One message per (owner -> halo-holder) pair with shared cells."""
    if bytes_per_cell < 1:
        raise DecompositionError("bytes_per_cell must be positive")
    decomp = halos.decomp
    counts: Dict[Tuple[int, int], int] = {}
    for rank, rings in enumerate(halos.halos):
        if rings is None:
            owners = _block_owners(decomp, rank, halos.depth)
        else:
            owners = Counter(decomp.owner_of(cell)
                             for ring in rings for cell in ring)
        for owner, cells in owners.items():
            counts[(owner, rank)] = cells
    return ExchangePattern(tuple(
        Message(src, dst, c, c * bytes_per_cell)
        for (src, dst), c in sorted(counts.items())))
