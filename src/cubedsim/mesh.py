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
the cube [0,N]^3 and matching cell edges geometrically, which fixes the
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


def _side_edge(panel: int, i: int, j: int, direction: int, n: int):
    """Geometric key (unordered corner pair) of one side of cell (i, j)."""
    if direction == EAST:
        a, b = _corner(panel, i + 1, j, n), _corner(panel, i + 1, j + 1, n)
    elif direction == WEST:
        a, b = _corner(panel, i, j, n), _corner(panel, i, j + 1, n)
    elif direction == NORTH:
        a, b = _corner(panel, i, j + 1, n), _corner(panel, i + 1, j + 1, n)
    else:
        a, b = _corner(panel, i, j, n), _corner(panel, i + 1, j, n)
    return (a, b) if a <= b else (b, a)


class CubedSphereMesh:
    """Six-panel cubed-sphere mesh with 4-regular cell adjacency.

    Immutable after construction; safe to share between concurrently
    evaluated scenarios.  Only the cross-panel boundary stitching is
    materialized up front (O(N) storage); panel-interior neighbours are
    computed arithmetically on demand.
    """

    def __init__(self, panel_size: int, levels: int):
        if panel_size < 1:
            raise MeshError(f"panel_size must be >= 1, got {panel_size}")
        if levels < 1:
            raise MeshError(f"levels must be >= 1, got {levels}")
        self.panel_size = panel_size
        self.levels = levels
        self._cross = self._build_cross_panel_map()

    def _build_cross_panel_map(self) -> Dict[Tuple[CellId, int], CellId]:
        n = self.panel_size
        by_edge: Dict[tuple, list] = {}
        for panel in range(PANELS):
            for k in range(n):
                for cell, direction in (
                    (CellId(panel, n - 1, k), EAST),
                    (CellId(panel, 0, k), WEST),
                    (CellId(panel, k, n - 1), NORTH),
                    (CellId(panel, k, 0), SOUTH),
                ):
                    key = _side_edge(cell.panel, cell.i, cell.j, direction, n)
                    by_edge.setdefault(key, []).append((cell, direction))
        cross: Dict[Tuple[CellId, int], CellId] = {}
        for key, holders in by_edge.items():
            if len(holders) != 2:
                raise MeshError(f"panel stitching failed on edge {key}")
            (ca, da), (cb, db) = holders
            cross[(ca, da)] = cb
            cross[(cb, db)] = ca
        return cross

    @property
    def total_horizontal_cells(self) -> int:
        return PANELS * self.panel_size * self.panel_size

    @property
    def total_edges(self) -> int:
        # 4-regular graph on 6N^2 nodes
        return 2 * PANELS * self.panel_size * self.panel_size

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
        n = self.panel_size
        panel, i, j = cell
        out = []
        for di, dj, direction in ((1, 0, EAST), (-1, 0, WEST),
                                  (0, 1, NORTH), (0, -1, SOUTH)):
            ni, nj = i + di, j + dj
            if 0 <= ni < n and 0 <= nj < n:
                out.append(CellId(panel, ni, nj))
            else:
                out.append(self._cross[(cell, direction)])
        return tuple(out)

    @cached_property
    def adjacency(self) -> Dict[CellId, Tuple[CellId, ...]]:
        """Full adjacency map.  Materializes all cells; intended for
        small meshes and verification, not for production-size runs."""
        return {cell: self.neighbors(cell) for cell in self.cells()}

    def summary(self) -> str:
        """Plain-text mesh report for debugging."""
        return (
            f"cubed-sphere mesh C{self.panel_size}\n"
            f"  panel size:       {self.panel_size} x {self.panel_size}\n"
            f"  vertical levels:  {self.levels}\n"
            f"  horizontal cells: {self.total_horizontal_cells}\n"
            f"  adjacency edges:  {self.total_edges}\n"
        )

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
