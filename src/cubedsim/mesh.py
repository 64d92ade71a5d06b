"""Cubed-sphere horizontal mesh as a cell-adjacency graph.

The sphere is modelled as the surface of a cube: six square panels of
N x N cells each, so 6*N^2 horizontal cells in total.  Horizontally the
mesh is unstructured (adjacency is an explicit graph); the vertical
dimension is structured and carried only as a level count.

Panel layout
------------
Panels 0..3 form an equatorial ring (east edge of panel p meets the west
edge of panel (p+1) % 4), panel 4 is the top cap and panel 5 the bottom
cap.  Within a panel, ``i`` increases eastward and ``j`` northward.
Cross-panel neighbours are derived by embedding each panel on a face of
the cube [0,N]^3 and matching panel edges geometrically, which fixes the
index orientation on every shared edge:

    panel 0 (front):  (i, j) -> (i,     0,     j)
    panel 1 (right):  (i, j) -> (N,     i,     j)
    panel 2 (back):   (i, j) -> (N - i, N,     j)
    panel 3 (left):   (i, j) -> (0,     N - i, j)
    panel 4 (top):    (i, j) -> (i,     j,     N)
    panel 5 (bottom): (i, j) -> (i,     N - j, 0)

Cells are linearized as ``panel * N^2 + j * N + i``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterator, NamedTuple, Tuple

from .errors import CubedsimError

PANELS = 6

# direction codes: east, west, north, south
EAST, WEST, NORTH, SOUTH = 0, 1, 2, 3


class MeshError(CubedsimError, ValueError):
    """Invalid mesh parameters."""


class CellId(NamedTuple):
    panel: int
    i: int
    j: int


def _corner(panel: int, i: int, j: int, n: int) -> Tuple[int, int, int]:
    """3-D lattice coordinates of a panel grid corner on the cube surface."""
    if panel == 0:
        return (i, 0, j)
    if panel == 1:
        return (n, i, j)
    if panel == 2:
        return (n - i, n, j)
    if panel == 3:
        return (0, n - i, j)
    if panel == 4:
        return (i, j, n)
    if panel == 5:
        return (i, n - j, 0)
    raise MeshError(f"panel index out of range: {panel}")


# per direction, the (i, j) corners where that edge of a panel starts and
# ends, the panel scaled to size one (the stitching does not depend on N);
# along an edge, j runs east and west, i north and south
_EDGE_ENDS = {EAST: ((1, 0), (1, 1)), WEST: ((0, 0), (0, 1)),
              NORTH: ((0, 1), (1, 1)), SOUTH: ((0, 0), (1, 0))}


class CubedSphereMesh:
    """Six-panel cubed-sphere mesh with 4-regular cell adjacency.

    Immutable after construction; safe to share between concurrently
    evaluated scenarios.  Only the panel-edge stitching is materialized up
    front, `edges`, one entry per panel edge (24 in all); every neighbour is
    computed arithmetically on demand.
    """

    def __init__(self, panel_size: int, levels: int):
        if panel_size < 1:
            raise MeshError(f"panel_size must be >= 1, got {panel_size}",
                            "panel_size")
        if levels < 1:
            raise MeshError(f"levels must be >= 1, got {levels}", "levels")
        self.panel_size = panel_size
        self.levels = levels
        self.edges = self._build_stitching()

    def _build_stitching(self) -> Dict[Tuple[int, int], Tuple[int, int, bool]]:
        """Per (panel, direction) of an edge: the panel across it, that
        panel's edge, and whether the two edges run the same way."""
        by_edge: Dict[frozenset, list] = {}
        for panel in range(PANELS):
            for direction, (a, b) in _EDGE_ENDS.items():
                start, end = _corner(panel, *a, 1), _corner(panel, *b, 1)
                by_edge.setdefault(frozenset((start, end)), []).append(
                    (panel, direction, start))
        edges = {}
        for key, holders in by_edge.items():
            if len(holders) != 2:
                raise MeshError(
                    f"panel stitching failed on edge {sorted(key)}")
            (pa, da, sa), (pb, db, sb) = holders
            edges[pa, da] = (pb, db, sa == sb)
            edges[pb, db] = (pa, da, sa == sb)
        return edges

    @property
    def total_horizontal_cells(self) -> int:
        return PANELS * self.panel_size * self.panel_size

    def cells(self) -> Iterator[CellId]:
        n = self.panel_size
        for panel in range(PANELS):
            for j in range(n):
                for i in range(n):
                    yield CellId(panel, i, j)

    def to_index(self, cell: CellId) -> int:
        n = self.panel_size
        return cell.panel * n * n + cell.j * n + cell.i

    def from_index(self, index: int) -> CellId:
        n = self.panel_size
        if not 0 <= index < self.total_horizontal_cells:
            raise MeshError(f"cell index out of range: {index}")
        panel, rest = divmod(index, n * n)
        j, i = divmod(rest, n)
        return CellId(panel, i, j)

    def neighbors(self, cell: CellId) -> Tuple[CellId, ...]:
        """The four edge-adjacent cells, in (E, W, N, S) order."""
        panel, i, j = cell
        if 0 < i < self.panel_size - 1 and 0 < j < self.panel_size - 1:
            return (CellId(panel, i + 1, j), CellId(panel, i - 1, j),
                    CellId(panel, i, j + 1), CellId(panel, i, j - 1))
        return (self.fold(panel, i + 1, j), self.fold(panel, i - 1, j),
                self.fold(panel, i, j + 1), self.fold(panel, i, j - 1))

    def fold(self, panel: int, i: int, j: int) -> CellId:
        """The cell at (i, j) in `panel`'s coordinates extended past its
        edges, which may lie beyond one edge, up to N cells deep."""
        n = self.panel_size
        if i >= n:
            direction, s, k = EAST, i - n, j
        elif i < 0:
            direction, s, k = WEST, -1 - i, j
        elif j >= n:
            direction, s, k = NORTH, j - n, i
        elif j < 0:
            direction, s, k = SOUTH, -1 - j, i
        else:
            return CellId(panel, i, j)
        if not (0 <= k < n and s < n):
            raise MeshError(
                f"({i}, {j}) is not within one edge of panel {panel}")
        other, edge, same = self.edges[panel, direction]
        if not same:
            k = n - 1 - k
        # s cells in from the edge of `other`, k along it
        return CellId(other, *((n - 1 - s, k), (s, k),
                               (k, n - 1 - s), (k, s))[edge])

    @cached_property
    def adjacency(self) -> Dict[CellId, Tuple[CellId, ...]]:
        """Full adjacency map.  Materializes all cells; intended for
        small meshes and verification, not for production-size runs."""
        return {cell: self.neighbors(cell) for cell in self.cells()}

    def __repr__(self) -> str:
        return f"CubedSphereMesh(panel_size={self.panel_size}, levels={self.levels})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, CubedSphereMesh)
                and self.panel_size == other.panel_size
                and self.levels == other.levels)

    def __hash__(self) -> int:
        return hash((self.panel_size, self.levels))


def build_mesh(panel_size: int, levels: int) -> CubedSphereMesh:
    """Construct a C<panel_size> mesh with the given number of levels."""
    return CubedSphereMesh(panel_size, levels)
