"""Decomposition, halo and exchange-pattern tests.

Halo and message expectations come from an independent breadth-first
expansion over the fully materialized adjacency map, not from the
frontier walk used by the implementation.  Both halo results, the
frontier walk of `compute_halos` and the corner-aware closed form and
span row runs of `halo_counts` (called directly as `_shape_counts` where
`halo_counts` walks the cells of a span layout up to C10), are checked
against it, ring sizes and `exchange_pattern` messages, which count
either result the same way, by rank class and panel-edge owner lines.
The oracle takes a cell's owner from `owner_of`, a one-cell call of
`Decomposition.owners`; both are checked against each rank's domain.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cubedsim import decomp as dc
from cubedsim.mesh import CellId, build_mesh


def bfs_halo(mesh, owned, depth):
    """Oracle: rings of non-owned cells reachable in <= depth steps."""
    seen = set(owned)
    frontier = set(owned)
    rings = []
    for _ in range(depth):
        ring = set()
        for cell in frontier:
            for nb in mesh.adjacency[cell]:
                if nb not in seen:
                    ring.add(nb)
        seen |= ring
        rings.append(ring)
        frontier = ring
    return rings


def row_run_cells(runs):
    """The cells of a table of row runs."""
    return {CellId(panel, i, j) for (panel, j), row in runs.items()
            for a, b in row for i in range(a, b)}


def bfs_messages(mesh, decomposition, depth, bytes_per_cell):
    """Oracle: one message per (owner, holder) pair, counted over the
    `bfs_halo` rings of every rank."""
    counts = Counter()
    for rank in range(decomposition.ranks):
        for ring in bfs_halo(mesh, decomposition.owned_cells(rank), depth):
            counts.update((decomposition.owner_of(cell), rank)
                          for cell in ring)
    return tuple(dc.Message(src, dst, c, c * bytes_per_cell)
                 for (src, dst), c in sorted(counts.items()))


@pytest.mark.parametrize("n,ranks,expected_owned", [
    (8, 6, 64), (8, 24, 16), (8, 96, 4), (16, 24, 64), (12, 54, 16),
])
def test_block_partition_sizes(n, ranks, expected_owned):
    mesh = build_mesh(n, 1)
    decomposition = dc.partition(mesh, ranks)
    assert decomposition.grid is not None
    for rank in range(ranks):
        assert decomposition.owned_count(rank) == expected_owned


def test_partition_conservation_blocks():
    mesh = build_mesh(8, 1)
    decomposition = dc.partition(mesh, 24)
    union = set()
    total = 0
    for rank in range(24):
        owned = decomposition.owned_cells(rank)
        assert not (union & owned)
        union |= owned
        total += len(owned)
    assert total == mesh.total_horizontal_cells
    assert union == set(mesh.cells())


def test_partition_conservation_spans():
    mesh = build_mesh(6, 1)
    decomposition = dc.partition(mesh, 7)  # not a multiple of six
    assert decomposition.grid is None
    union = set()
    for rank in range(7):
        union |= decomposition.owned_cells(rank)
    assert union == set(mesh.cells())
    sizes = [decomposition.owned_count(rank) for rank in range(7)]
    assert max(sizes) - min(sizes) <= 1


def test_owner_of_agrees_with_owned_cells():
    mesh = build_mesh(8, 1)
    for ranks in (24, 7):
        decomposition = dc.partition(mesh, ranks)
        for rank in range(ranks):
            for cell in decomposition.owned_cells(rank):
                assert decomposition.owner_of(cell) == rank


def test_owners_along_rows_and_columns_match_the_domains():
    # every row and column of every panel, whole and in part, on even and
    # uneven block grids and on span layouts
    for n, ranks in ((8, 24), (7, 54), (10, 72), (8, 7), (6, 50)):
        mesh = build_mesh(n, 1)
        decomposition = dc.partition(mesh, ranks)
        owner = {cell: rank for rank in range(ranks)
                 for cell in decomposition.owned_cells(rank)}
        for panel in range(6):
            for x in range(n):
                row = range((panel * n + x) * n, (panel * n + x + 1) * n)
                column = range(panel * n * n + x, (panel + 1) * n * n, n)
                for cells in (row, column, row[1:-1], column[2:]):
                    assert decomposition.owners(cells) == [
                        owner[mesh.from_index(k)] for k in cells]


def test_span_owner_of_rejects_uncovered_cells():
    mesh = build_mesh(6, 1)
    decomposition = dc.partition(mesh, 7)
    for cell in (CellId(0, -1, 0), CellId(6, 0, 0)):  # indices -1 and 216
        with pytest.raises(dc.DecompositionError):
            decomposition.owner_of(cell)


def test_squarest_factor_pair_matches_brute_force():
    # the closest aspect ratio, then the larger p, over every factor pair
    for m in range(1, 2001):
        pairs = [(p, m // p) for p in range(1, m + 1) if m % p == 0]
        assert dc._squarest_factor_pair(m) == min(
            pairs, key=lambda pq: (abs(pq[0] - pq[1]), -pq[0]))


def test_partition_errors():
    mesh = build_mesh(4, 1)
    with pytest.raises(dc.DecompositionError):
        dc.partition(mesh, 0)
    with pytest.raises(dc.DecompositionError):
        dc.partition(mesh, mesh.total_horizontal_cells + 1)


def test_local_area_is_exact():
    assert dc.local_area(build_mesh(512, 120), 48 * 128) == 256
    assert dc.local_area(build_mesh(512, 120), 96 * 128) == 128
    assert dc.local_area(build_mesh(8, 1), 36) == Fraction(384, 36)
    with pytest.raises(dc.DecompositionError):
        dc.local_area(build_mesh(8, 1), 0)


@pytest.mark.parametrize("n,ranks,depth", [
    (8, 6, 1), (8, 6, 2), (8, 24, 1), (8, 24, 3), (6, 5, 1), (6, 5, 2),
])
def test_halos_match_bfs_oracle(n, ranks, depth):
    mesh = build_mesh(n, 1)
    decomposition = dc.partition(mesh, ranks)
    halos = dc.compute_halos(mesh, decomposition, depth=depth)
    for rank in range(ranks):
        expected = bfs_halo(mesh, decomposition.owned_cells(rank), depth)
        for d in range(depth):
            assert set(halos.halos[rank][d]) == expected[d]
        assert halos.halo_count(rank) == sum(map(len, expected))


def test_whole_panel_halo_is_its_perimeter():
    # one rank per panel: the depth-1 halo is the 4n cells ringing the
    # panel on the four adjacent panels
    mesh = build_mesh(8, 1)
    halos = dc.compute_halos(mesh, dc.partition(mesh, 6), depth=1)
    for rank in range(6):
        assert halos.halo_count(rank) == 4 * 8


def test_halo_depth_errors():
    mesh = build_mesh(4, 1)
    decomposition = dc.partition(mesh, 6)
    with pytest.raises(dc.DecompositionError):
        dc.compute_halos(mesh, decomposition, depth=0)
    with pytest.raises(dc.HaloDepthError):
        dc.compute_halos(mesh, decomposition, depth=5)


def test_exchange_pattern_counts_match_halos():
    mesh = build_mesh(8, 1)
    halos = dc.compute_halos(mesh, dc.partition(mesh, 24), depth=1)
    messages = dc.exchange_pattern(halos, bytes_per_cell=10).messages
    total_halo = sum(halos.halo_count(r) for r in range(24))
    assert sum(m.cells for m in messages) == total_halo
    assert sum(m.bytes for m in messages) == 10 * total_halo
    for message in messages:
        assert message.src != message.dst
        assert message.bytes == message.cells * 10
    # every rank both sends and receives in a symmetric block layout
    for rank in range(24):
        sent = [m for m in messages if m.src == rank]
        assert sum(m.bytes for m in sent) > 0
        assert sum(m.bytes for m in messages if m.dst == rank) > 0
        assert len({m.dst for m in sent}) >= 4


def test_message_cells_are_owner_boundary():
    mesh = build_mesh(8, 1)
    decomposition = dc.partition(mesh, 6)
    halos = dc.compute_halos(mesh, decomposition, depth=1)
    pattern = dc.exchange_pattern(halos, dc.default_bytes_per_cell(mesh))
    for message in pattern.messages:
        owned = decomposition.owned_cells(message.src)
        halo = set(halos.halos[message.dst][0])
        assert message.cells == len(owned & halo)


def test_default_bytes_per_cell():
    mesh = build_mesh(8, 120)
    assert dc.default_bytes_per_cell(mesh) == 120 * 8 * 3 == 2880


def test_redundant_mode_trades_messages_for_cells():
    # the cells a rank receives when it exchanges halos are exactly the
    # halo cells it computes instead in redundant-compute mode
    mesh = build_mesh(8, 1)
    halos = dc.compute_halos(mesh, dc.partition(mesh, 24), depth=1)
    pattern = dc.exchange_pattern(halos, dc.default_bytes_per_cell(mesh))
    received = Counter()
    for m in pattern.messages:
        received[m.dst] += m.cells
    for rank in range(24):
        assert received[rank] == halos.halo_count(rank) > 0


def test_halo_factor_law_on_c64():
    # quadrupling per-rank area doubles the per-rank halo and halves the
    # total halo volume; exactly 4x fewer ranks participate
    mesh = build_mesh(64, 1)
    per_rank = {}
    total = {}
    for ranks in (24, 96, 384):
        halos = dc.compute_halos(mesh, dc.partition(mesh, ranks), depth=1)
        counts = [halos.halo_count(r) for r in range(ranks)]
        assert len(set(counts)) == 1  # square blocks, identical halos
        per_rank[ranks] = counts[0]
        total[ranks] = sum(counts)
    assert per_rank[24] == 2 * per_rank[96] == 4 * per_rank[384]
    assert total[384] == 2 * total[96] == 4 * total[24]


@given(n=st.integers(1, 24), p=st.integers(1, 24), q=st.integers(1, 24),
       depth=st.integers(1, 4), bytes_per_cell=st.integers(1, 5760))
@example(n=8, p=8, q=8, depth=4, bytes_per_cell=1)   # 1 x 1 blocks at depth 4
@example(n=10, p=4, q=3, depth=3, bytes_per_cell=1)  # uneven 2-3 x 3-4 blocks
@example(n=24, p=1, q=1, depth=4, bytes_per_cell=1)  # whole panels: corners
@example(n=6, p=1, q=1, depth=6, bytes_per_cell=1)   # ... at depth N
@example(n=5, p=5, q=5, depth=5, bytes_per_cell=1)   # 1 x 1 blocks at depth N
@example(n=7, p=3, q=2, depth=7, bytes_per_cell=1)   # uneven grid at depth N
@settings(max_examples=60, deadline=None, derandomize=True)
def test_halo_counts_match_bfs_oracle(n, p, q, depth, bytes_per_cell):
    # the corner-aware closed form and the cross-edge maps against
    # compute_halos and the BFS messages, including blocks thinner than
    # the depth whose strips span several neighbour blocks
    p, q, depth = min(p, n), min(q, n), min(depth, n)
    mesh = build_mesh(n, 1)
    decomposition = dc.partition(mesh, 6 * p * q)
    assert decomposition.grid is not None
    fast = dc.halo_counts(mesh, decomposition, depth=depth)
    oracle = dc.compute_halos(mesh, decomposition, depth=depth)
    assert [fast.ring_sizes(r) for r in range(decomposition.ranks)] \
        == [tuple(len(ring) for ring in rings) for rings in oracle.halos]
    assert [fast.halo_count(r) for r in range(decomposition.ranks)] \
        == [oracle.halo_count(r) for r in range(decomposition.ranks)]
    expected = bfs_messages(mesh, decomposition, depth, bytes_per_cell)
    for halos in (fast, oracle):
        assert dc.exchange_pattern(halos, bytes_per_cell).messages == expected


@given(n=st.integers(1, 12), ranks=st.integers(1, 80),
       depth=st.integers(1, 12), bytes_per_cell=st.integers(1, 5760))
@example(n=6, ranks=7, depth=3, bytes_per_cell=1)    # spans crossing panels
@example(n=6, ranks=50, depth=2, bytes_per_cell=1)   # one row at a corner
@example(n=6, ranks=9, depth=1, bytes_per_cell=1)    # bands of whole rows
@example(n=6, ranks=9, depth=2, bytes_per_cell=1)    # ... near the corners
@example(n=5, ranks=4, depth=2, bytes_per_cell=1)    # across two panel edges
@example(n=2, ranks=18, depth=2, bytes_per_cell=1)   # 6 * 3 ranks, depth N
@settings(max_examples=40, deadline=None, derandomize=True)
def test_span_halos_match_bfs_oracle(n, ranks, depth, bytes_per_cell):
    # span decompositions: _shape_counts takes the corner-aware closed
    # form for one rectangle and row runs for the rest, and the messages
    # are counted over the owners of the ring runs or cells; halo_counts
    # walks the cells of the meshes up to C10
    ranks, depth = min(ranks, 6 * n * n), min(depth, n)
    mesh = build_mesh(n, 1)
    decomposition = dc.partition(mesh, ranks)
    assume(decomposition.grid is None)
    expected_rings = [bfs_halo(mesh, decomposition.owned_cells(r), depth)
                      for r in range(ranks)]
    expected = bfs_messages(mesh, decomposition, depth, bytes_per_cell)
    for halos in (dc.halo_counts(mesh, decomposition, depth=depth),
                  dc._shape_counts(mesh, decomposition, depth=depth),
                  dc.compute_halos(mesh, decomposition, depth=depth)):
        assert [halos.ring_sizes(r) for r in range(ranks)] \
            == [tuple(map(len, rings)) for rings in expected_rings]
        assert dc.exchange_pattern(halos, bytes_per_cell).messages == expected


def test_every_small_block_grid_exchanges_the_bfs_messages():
    # every partition block grid of C1-C6 at every depth 1..N: the
    # layout-wide strip tables, the edge blocks' rectangles past the
    # panel edges and the diagonal tables against the BFS messages
    for n in range(1, 7):
        mesh = build_mesh(n, 1)
        for m in range(1, n * n + 1):
            decomposition = dc.partition(mesh, 6 * m)
            if decomposition.grid is None:
                continue
            for depth in range(1, n + 1):
                halos = dc.halo_counts(mesh, decomposition, depth=depth)
                assert dc.exchange_pattern(halos, 1).messages == \
                    bfs_messages(mesh, decomposition, depth, 1), (n, m, depth)


@pytest.mark.parametrize("n,deepest", [(1, 1), (2, 2), (3, 3), (4, 4), (5, 3),
                                       (6, 3)])
def test_every_small_span_layout_exchanges_the_bfs_messages(n, deepest):
    # every span layout partition makes on C1-C6, at every depth on C1-C4
    # and to depth 3 on C5-C6 (every depth there takes about 30 s more),
    # through the class path past the C10 switch: ring sizes, the worst
    # rank and the messages against one bfs_halo expansion per rank, whose
    # first d rings are those at depth d (bfs_messages, summed ring by
    # ring); the messages also from the walked halos halo_counts gives
    # these small meshes (compute_halos), to depth 6 // n (about 3 s)
    mesh = build_mesh(n, 1)
    for ranks in range(1, 6 * n * n + 1):
        decomposition = dc.partition(mesh, ranks)
        if decomposition.grid is not None:
            continue
        owner = {cell: decomposition.owner_of(cell) for cell in mesh.cells()}
        rings = [bfs_halo(mesh, decomposition.owned_cells(rank), deepest)
                 for rank in range(ranks)]
        counts = Counter()
        for depth in range(1, deepest + 1):
            for dst, rank_rings in enumerate(rings):
                counts.update((owner[cell], dst)
                              for cell in rank_rings[depth - 1])
            halos = dc._shape_counts(mesh, decomposition, depth)
            sizes = [tuple(map(len, rank_rings[:depth]))
                     for rank_rings in rings]
            assert [halos.ring_sizes(r) for r in range(ranks)] == sizes
            assert halos.worst_cells == max(
                decomposition.owned_count(r) + sum(sizes[r])
                for r in range(ranks))
            expected = tuple(dc.Message(src, dst, c, c)
                             for (src, dst), c in sorted(counts.items()))
            found = [halos]
            if depth * n <= 6:
                found.append(dc.halo_counts(mesh, decomposition, depth))
            for each in found:
                assert dc.exchange_pattern(each, 1).messages == expected, (
                    ranks, depth)


def test_rectangle_halo_matches_bfs_at_every_depth():
    # every rectangle on one panel, up to C6, ring by ring to depth N:
    # also the row segments and whole-row bands at a corner that spans
    # take and no block grid produces; the closed form counts the rings,
    # and the row runs of `_span_near` hold the cells within each depth
    for n in range(1, 7):
        mesh = build_mesh(n, 1)
        for i0 in range(n):
            for i1 in range(i0 + 1, n + 1):
                for j0 in range(n):
                    for j1 in range(j0 + 1, n + 1):
                        rect = (0, i0, i1, j0, j1)
                        cells = {CellId(0, i, j) for i in range(i0, i1)
                                 for j in range(j0, j1)}
                        totals = [dc._rect_halo(n, rect, k)
                                  for k in range(n + 1)]
                        rings = bfs_halo(mesh, cells, n)
                        assert [b - a for a, b in zip(totals, totals[1:])] \
                            == [len(ring) for ring in rings], rect
                        for k, ring in enumerate(rings, 1):
                            cells |= ring
                            assert row_run_cells(dc._span_near(
                                mesh, [rect], k)) == cells, (rect, k)


def test_rectangles_walk_no_cells_at_the_corners(monkeypatch):
    # C12 at depth 12, where every rank is near a cube corner: 1 x 1
    # blocks, and one- and two-cell spans; then a block grid's messages
    # at depth 2, with its corner blocks near a corner
    mesh = build_mesh(12, 1)
    layouts = [dc.partition(mesh, ranks) for ranks in (864, 863)]
    oracles = [dc.compute_halos(mesh, decomposition, depth=12)
               for decomposition in layouts]
    small = build_mesh(7, 1)
    grid = dc.partition(small, 54)
    expected = bfs_messages(small, grid, 2, 1)

    def no_cells(*_args, **_kwargs):
        raise AssertionError("a rectangle's halo must not walk cells")

    for name in ("compute_halos", "_rank_rings", "_span_near"):
        monkeypatch.setattr(dc, name, no_cells)
    for decomposition, oracle in zip(layouts, oracles):
        halos = dc.halo_counts(mesh, decomposition, depth=12)
        assert halos.worst_cells == oracle.worst_cells == 312
        assert [halos.ring_sizes(r) for r in range(decomposition.ranks)] \
            == [oracle.ring_sizes(r) for r in range(decomposition.ranks)]
        assert not halos.expanded
    halos = dc.halo_counts(small, grid, depth=2)
    assert dc.exchange_pattern(halos, 1).messages == expected


def test_crossing_spans_take_owners_column_by_column(monkeypatch):
    # C128 on 128 ranks at depth 1: spans of six rows, four of them
    # crossing a panel, whose halo past a rotated edge is a column of
    # one-cell rows; each column takes one owners call, not one per cell
    mesh = build_mesh(128, 1)
    decomposition = dc.partition(mesh, 128)
    halos = dc.halo_counts(mesh, decomposition, depth=1)
    calls = []
    owners = dc.Decomposition.owners

    def counted(self, cells):
        calls.append(cells)
        return owners(self, cells)

    monkeypatch.setattr(dc.Decomposition, "owners", counted)
    messages = dc.exchange_pattern(halos, 1).messages
    assert len(calls) <= 150, len(calls)
    monkeypatch.undo()
    assert messages == bfs_messages(mesh, decomposition, 1, 1)


def test_rects_tile_the_mesh():
    # every layout partition makes on C1-C8, block grids and spans: every
    # cell lies in exactly one rank's rectangles, a span's are its run of
    # linear cells in at most three per panel, and a rank's areas sum to
    # owned_count
    for n in range(1, 9):
        mesh = build_mesh(n, 1)
        for ranks in range(1, 6 * n * n + 1):
            decomposition = dc.partition(mesh, ranks)
            covered = Counter()
            for rank in range(ranks):
                rects = decomposition.rects(rank)
                assert all(0 <= i0 < i1 <= n and 0 <= j0 < j1 <= n
                           for _, i0, i1, j0, j1 in rects), rects
                cells = [mesh.to_index(CellId(panel, i, j))
                         for panel, i0, i1, j0, j1 in rects
                         for j in range(j0, j1) for i in range(i0, i1)]
                covered.update(cells)
                assert sum((i1 - i0) * (j1 - j0)
                           for _, i0, i1, j0, j1 in rects) \
                    == decomposition.owned_count(rank) == len(cells)
                if decomposition.grid is None:
                    assert sorted(cells) == list(range(
                        decomposition.span_start(rank),
                        decomposition.span_start(rank + 1)))
                    assert max(Counter(rect[0] for rect in rects).values()) \
                        <= 3, rects
                else:
                    assert len(rects) == 1
            assert covered == Counter(range(6 * n * n)), (n, ranks)


def test_halo_counts_errors():
    mesh = build_mesh(4, 1)
    for ranks in (24, 7):
        decomposition = dc.partition(mesh, ranks)
        with pytest.raises(dc.DecompositionError):
            dc.halo_counts(mesh, decomposition, depth=0)
        with pytest.raises(dc.HaloDepthError):
            dc.halo_counts(mesh, decomposition, depth=5)
        with pytest.raises(dc.DecompositionError):
            dc.exchange_pattern(
                dc.halo_counts(mesh, decomposition, depth=1), 0)
