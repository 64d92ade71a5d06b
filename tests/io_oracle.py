"""The per-chunk I/O stages: the exact reference for `cubedsim.iosim`.

These are the stage functions `iosim` used before it stepped over runs,
kept verbatim.  Each chunk is one event: stage one pops one (time,
client) event at a time and pushes or blocks one chunk at a time, and
stage two merges every level-1 stream chunk by chunk and sorts all of
its staging events at once.  `iosim`'s stages must give the same floats,
from the same operations in the same order.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import List, Sequence, Tuple

_EPS = 1e-6  # bytes; absorbs float rounding in buffer bookkeeping


@dataclass
class StageOneResult:
    waits: List[float]              # per client
    busy_s: float                   # server busy seconds
    last_done: float                # completion of the last chunk
    arrivals: List[Tuple[float, float]]  # (completion, bytes) in FIFO order


def simulate_stage_one(chunks: Sequence[Tuple[float, float]], n_clients: int,
                       rate: float, cap: float, compute_rate: float,
                       collect_arrivals: bool) -> StageOneResult:
    """One server draining n identical clients.

    `chunks` is the per-client emission list of (model_hour, bytes).  At
    equal times clients act in id order, each pushing as many chunks as
    fit before yielding.
    """
    waits = [0.0] * n_clients
    if not chunks:
        return StageOneResult(waits=waits, busy_s=0.0, last_done=0.0,
                              arrivals=[])
    n_chunks = len(chunks)
    ptr = [0] * n_clients
    fill = [0.0] * n_clients
    pending: List[deque] = [deque() for _ in range(n_clients)]
    arrivals: List[Tuple[float, float]] = []
    srv_free = 0.0
    busy = 0.0
    first_t = chunks[0][0] * compute_rate
    heap = [(first_t, c) for c in range(n_clients)]
    # already sorted by client id; heapify is a no-op ordering-wise
    while heap:
        t, c = heapq.heappop(heap)
        pend = pending[c]
        f = fill[c]
        while pend and pend[0][0] <= t:
            f -= pend.popleft()[1]
        k = ptr[c]
        hour = chunks[k][0]
        blocked = False
        while k < n_chunks:
            nxt_hour, share = chunks[k]
            if nxt_hour != hour:
                break
            if f + share <= cap + _EPS:
                start = srv_free if srv_free > t else t
                dur = share / rate
                done = start + dur
                srv_free = done
                busy += dur
                pend.append((done, share))
                if collect_arrivals:
                    arrivals.append((done, share))
                f += share
                k += 1
            else:
                # blocked: resume when enough of our queued chunks drain
                freed = 0.0
                resume = t
                for done, b in pend:
                    freed += b
                    resume = done
                    if f - freed + share <= cap + _EPS:
                        break
                waits[c] += resume - t
                heapq.heappush(heap, (resume, c))
                blocked = True
                break
        fill[c] = f
        ptr[c] = k
        if blocked:
            continue
        if k < n_chunks:
            heapq.heappush(heap, (t + (chunks[k][0] - hour) * compute_rate, c))
    return StageOneResult(waits=waits, busy_s=busy, last_done=srv_free,
                          arrivals=arrivals)


def stage_two(arrival_streams: Sequence[Sequence[Tuple[float, float]]],
              n_writers: int, rate: float,
              track_staging: bool) -> Tuple[float, float, float]:
    """Forwarded chunks from each level-1 stream are written by the
    pool's level-2 servers, round-robin per stream.  Returns (busy_s,
    last_done, peak_staging_bytes)."""
    merged = heapq.merge(*[
        ((t, l1, seq, b) for seq, (t, b) in enumerate(stream))
        for l1, stream in enumerate(arrival_streams)])
    free = [0.0] * n_writers
    busy = 0.0
    staging_events: List[Tuple[float, float]] = []
    for t, _l1, seq, b in merged:
        w = seq % n_writers
        start = free[w] if free[w] > t else t
        dur = b / rate
        done = start + dur
        free[w] = done
        busy += dur
        if track_staging:
            staging_events.append((t, b))
            staging_events.append((done, -b))
    peak = 0.0
    if track_staging:
        staging_events.sort()
        level = 0.0
        for _t, delta in staging_events:
            level += delta
            if level > peak:
                peak = level
    return busy, max(free), peak
