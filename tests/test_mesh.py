"""Mesh structure tests.

The cross-panel expectations below are derived by hand from the cube
unfolding (equatorial ring 0-3 west-to-east, panel 4 on top, panel 5 on
the bottom), or from the 3-D corner embedding the mesh module documents,
independently of the edge-matching code.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubedsim import mesh as mesh_module
from cubedsim.mesh import CellId, CubedSphereMesh, MeshError, build_mesh


def bfs_component_size(mesh):
    start = CellId(0, 0, 0)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for cell in frontier:
            for nb in mesh.neighbors(cell):
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
    return len(seen)


def test_cell_counts():
    assert build_mesh(4, 1).total_horizontal_cells == 96
    assert build_mesh(256, 120).total_horizontal_cells == 393_216
    assert build_mesh(512, 120).total_horizontal_cells == 1_572_864
    assert build_mesh(1024, 120).total_horizontal_cells == 6_291_456


def test_invalid_parameters():
    with pytest.raises(MeshError):
        build_mesh(0, 10)
    with pytest.raises(MeshError):
        build_mesh(4, 0)


@pytest.mark.parametrize("n", range(1, 17))
def test_structure_properties(n):
    mesh = build_mesh(n, 1)
    adjacency = mesh.adjacency
    assert len(adjacency) == 6 * n * n
    edge_count = 0
    for cell, neighbors in adjacency.items():
        assert len(neighbors) == 4
        assert len(set(neighbors)) == 4
        assert cell not in neighbors
        for nb in neighbors:
            assert cell in adjacency[nb]
        edge_count += 4
    assert edge_count // 2 == 2 * 6 * n * n
    assert bfs_component_size(mesh) == mesh.total_horizontal_cells


@pytest.mark.parametrize("n", [2, 3, 5])
def test_equatorial_ring_stitching(n):
    # east edge of ring panel p meets the west edge of panel (p+1) % 4
    # at the same j
    mesh = build_mesh(n, 1)
    for p in range(4):
        for j in range(n):
            east = mesh.neighbors(CellId(p, n - 1, j))[0]
            assert east == CellId((p + 1) % 4, 0, j)
            west = mesh.neighbors(CellId((p + 1) % 4, 0, j))[1]
            assert west == CellId(p, n - 1, j)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_cap_stitching_front_panel(n):
    # north edge of the front panel meets the south edge of the top cap
    # with i preserved; south edge meets the north edge of the bottom cap
    mesh = build_mesh(n, 1)
    for k in range(n):
        north = mesh.neighbors(CellId(0, k, n - 1))[2]
        assert north == CellId(4, k, 0)
        south = mesh.neighbors(CellId(0, k, 0))[3]
        assert south == CellId(5, k, n - 1)


def cube_corner(panel, i, j, n):
    """Where corner (i, j) of a panel grid lies on the cube [0, n]^3."""
    return ((i, 0, j), (n, i, j), (n - i, n, j), (0, n - i, j), (i, j, n),
            (i, n - j, 0))[panel]


def cube_sides(cell, n):
    """The sides of a cell on the cube in (E, W, N, S) order, each the
    set of its two end corners."""
    panel, i, j = cell

    def side(a, b):
        return frozenset((cube_corner(panel, *a, n),
                          cube_corner(panel, *b, n)))

    return (side((i + 1, j), (i + 1, j + 1)), side((i, j), (i, j + 1)),
            side((i, j + 1), (i + 1, j + 1)), side((i, j), (i + 1, j)))


@pytest.mark.parametrize("n", range(1, 17))
def test_neighbours_share_a_cell_side_on_the_cube(n):
    mesh = build_mesh(n, 1)
    crossings = 0
    for cell in mesh.cells():
        for side, nb in zip(cube_sides(cell, n), mesh.neighbors(cell)):
            assert nb != cell and side in cube_sides(nb, n)
            crossings += nb.panel != cell.panel
    assert crossings == 24 * n


@pytest.mark.parametrize("n", range(1, 17))
def test_fold_walks_straight_past_every_edge(n):
    mesh = build_mesh(n, 1)
    for panel in range(6):
        for k in range(n):
            # direction, edge cell, and the point s steps past that edge
            for direction, edge, past in (
                    (0, (n - 1, k), lambda s: (n + s, k)),
                    (1, (0, k), lambda s: (-1 - s, k)),
                    (2, (k, n - 1), lambda s: (k, n + s)),
                    (3, (k, 0), lambda s: (k, -1 - s))):
                walk = [CellId(panel, *edge)] + \
                    [mesh.fold(panel, *past(s)) for s in range(n)]
                assert walk[1] == mesh.neighbors(walk[0])[direction]
                assert len({cell.panel for cell in walk[1:]}) == 1
                for back, here, ahead in zip(walk, walk[1:], walk[2:]):
                    around = mesh.neighbors(here)
                    # one step on, in the direction opposite the last one
                    assert ahead in around
                    assert around.index(ahead) == around.index(back) ^ 1


def test_fold_rejects_points_beyond_one_edge():
    mesh = build_mesh(4, 1)
    assert mesh.fold(2, 1, 3) == CellId(2, 1, 3)
    for i, j in ((4, 4), (-1, -1), (8, 0), (0, -5)):
        with pytest.raises(MeshError):
            mesh.fold(0, i, j)


def test_stitching_rejects_an_embedding_with_unpaired_edges(monkeypatch):
    corner = mesh_module._corner
    # the bottom cap laid onto the top cap: its edges find three holders
    monkeypatch.setattr(mesh_module, "_corner", lambda panel, i, j, n:
                        corner(4 if panel == 5 else panel, i, j, n))
    with pytest.raises(MeshError, match="stitching"):
        build_mesh(3, 1)


def test_n1_is_octahedron_like():
    # with one cell per panel every cell touches four of the other five
    mesh = build_mesh(1, 1)
    for cell, neighbors in mesh.adjacency.items():
        assert len(set(neighbors)) == 4
        opposite = {0: 2, 1: 3, 2: 0, 3: 1, 4: 5, 5: 4}[cell.panel]
        assert all(nb.panel != opposite for nb in neighbors)


@given(n=st.integers(1, 12), index=st.integers(0, 6 * 12 * 12 - 1))
@settings(max_examples=200, deadline=None)
def test_linearization_round_trip(n, index):
    mesh = build_mesh(n, 1)
    index %= mesh.total_horizontal_cells
    cell = mesh.from_index(index)
    assert mesh.to_index(cell) == index
    assert 0 <= cell.panel < 6
    assert 0 <= cell.i < n and 0 <= cell.j < n


def test_index_out_of_range():
    mesh = build_mesh(3, 1)
    with pytest.raises(MeshError):
        mesh.from_index(-1)
    with pytest.raises(MeshError):
        mesh.from_index(mesh.total_horizontal_cells)


def test_interior_neighbors_are_arithmetic():
    mesh = build_mesh(6, 1)
    e, w, n, s = mesh.neighbors(CellId(2, 3, 3))
    assert e == CellId(2, 4, 3)
    assert w == CellId(2, 2, 3)
    assert n == CellId(2, 3, 4)
    assert s == CellId(2, 3, 2)


def test_large_mesh_builds_quickly():
    import time
    start = time.perf_counter()
    mesh = build_mesh(512, 120)
    assert mesh.total_horizontal_cells == 1_572_864
    assert time.perf_counter() - start < 1.0


def test_equality_and_summary():
    assert build_mesh(8, 3) == build_mesh(8, 3)
    assert build_mesh(8, 3) != build_mesh(8, 4)
