"""Discrete-event simulation of a client/server I/O offload system.

Simulation clients advance through compute intervals and emit their
share of each diagnostic field into a fixed-size local buffer.  An
emission is an instant copy when buffer space exists; otherwise the
client blocks until its server drains enough space, and the blocked
time accrues to the buffer-wait metric.

Every client writes to one of the `servers_level1 >= 1` level-1
servers, assigned round-robin by client id.  In a flat layout
(`servers_level2` is 0) they also write the files, at an effective rate.
With `servers_level2 > 0` the layout has two levels: level-1 servers
gather from clients at a fast internal transfer rate and forward to the
level-2 servers of their pool, and only level-2 servers pay the write
cost; gathered-but-unwritten data occupies server-side staging memory.

The effective write rate of a server in a pool with S servers and F
assigned files (files are distributed round-robin over pools) is

    base_write_rate * min(striping_factor, stripe_cap)
                    * min(1, F / S) / (1 + pool_penalty * (S - 1))

so striping multiplies bandwidth, a pool cannot keep more writers busy
than it has files, and collective writing by many servers of one pool
scales poorly.  All of this is calibration, not a file-system model.

The event loop is deterministic: ties are broken by (time, client id,
event order), and identical scenarios produce identical metrics.
Independent subsystems (a server and its clients; a pool) are simulated
independently and identical ones are deduplicated, which is exact
because nothing couples them.  A sweep point is a whole scenario, built
by `config.vary` and simulated like any other.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from . import workload
from .errors import CubedsimError
from .workload import DiagnosticSchedule

MIB = 1024.0 * 1024.0
_EPS = 1e-6  # bytes; absorbs float rounding in buffer bookkeeping


class IoConfigError(CubedsimError, ValueError):
    """Invalid I/O scenario."""


class UnwritableFieldError(IoConfigError):
    """UNWRITABLE_FIELD: a single field share exceeds the client buffer."""


class ServerMemoryError(CubedsimError, RuntimeError):
    """OUT_OF_MEMORY: aggregate server-side staging exceeds the limit."""


@dataclass(frozen=True)
class IoScenario:
    clients: int
    servers_level1: int
    servers_level2: int
    pools: int
    buffer_bytes: int
    base_write_rate: float      # bytes/s nominal per server
    striping_factor: float
    files: int
    schedule: DiagnosticSchedule
    compute_rate: float         # simulated seconds of compute per model hour
    gather_rate_factor: float = 4.0
    pool_penalty: float = 0.25
    stripe_cap: float = 8.0
    server_memory_bytes: Optional[int] = None

    def __post_init__(self):
        if self.clients < 1:
            raise IoConfigError(f"clients must be >= 1, got {self.clients}")
        if self.servers_level1 < 1:
            raise IoConfigError(
                f"servers_level1 must be >= 1, got {self.servers_level1}")
        if self.servers_level2 < 0:
            raise IoConfigError(
                f"servers_level2 must be >= 0, got {self.servers_level2}")
        if self.pools < 1:
            raise IoConfigError(f"pools must be >= 1, got {self.pools}")
        if self.writer_count % self.pools:
            raise IoConfigError(
                f"writing servers ({self.writer_count}) not divisible by "
                f"pools ({self.pools})")
        if self.pools > self.files:
            raise IoConfigError(
                f"pools ({self.pools}) exceed files ({self.files}); every "
                f"pool needs at least one file")
        if self.buffer_bytes < 1:
            raise IoConfigError("buffer_bytes must be positive")
        if self.base_write_rate <= 0:
            raise IoConfigError("base_write_rate must be positive")
        if self.striping_factor < 1:
            raise IoConfigError("striping_factor must be >= 1")
        if self.compute_rate < 0:
            raise IoConfigError("compute_rate must be >= 0")
        if self.gather_rate_factor <= 0 or self.stripe_cap < 1:
            raise IoConfigError("invalid transfer/striping parameters")
        if self.pool_penalty < 0:
            raise IoConfigError("pool_penalty must be >= 0")

    @property
    def two_level(self) -> bool:
        return self.servers_level2 > 0

    @property
    def writer_count(self) -> int:
        return self.servers_level2 or self.servers_level1

    @property
    def striping_mult(self) -> float:
        return min(self.striping_factor, self.stripe_cap)

    def files_in_pool(self, pool: int) -> int:
        base, rem = divmod(self.files, self.pools)
        return base + (1 if pool < rem else 0)

    def writer_rate(self, pool: int) -> float:
        """Effective bytes/s of one writing server in the given pool."""
        s_pool = self.writer_count // self.pools
        f_pool = self.files_in_pool(pool)
        return (self.base_write_rate * self.striping_mult
                * min(1.0, f_pool / s_pool)
                / (1.0 + self.pool_penalty * (s_pool - 1)))

    @property
    def gather_rate(self) -> float:
        return self.base_write_rate * self.gather_rate_factor

    @property
    def aggregate_write_rate(self) -> float:
        """Sum of effective rates over all writing servers."""
        s_pool = self.writer_count // self.pools
        return sum(self.writer_rate(p) * s_pool for p in range(self.pools))


@dataclass(frozen=True)
class IoMetrics:
    wall_clock_s: float
    client_wait_s: float        # mean blocked seconds per client
    client_wait_pct: float
    server_write_rate: float    # MiB/s over total server busy time
    bytes_written: int


@dataclass
class _StageOneResult:
    waits: List[float]              # per client
    busy_s: float                   # server busy seconds
    last_done: float                # completion of the last chunk
    arrivals: List[Tuple[float, float]]  # (completion, bytes) in FIFO order


def _simulate_stage_one(chunks: Sequence[Tuple[float, float]], n_clients: int,
                        rate: float, cap: float, compute_rate: float,
                        collect_arrivals: bool) -> _StageOneResult:
    """One server draining n identical clients.

    `chunks` is the per-client emission list of (model_hour, bytes).  At
    equal times clients act in id order, each pushing as many chunks as
    fit before yielding.
    """
    waits = [0.0] * n_clients
    if not chunks:
        return _StageOneResult(waits=waits, busy_s=0.0, last_done=0.0,
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
    return _StageOneResult(waits=waits, busy_s=busy, last_done=srv_free,
                           arrivals=arrivals)


def _stage_two(arrival_streams: Sequence[Sequence[Tuple[float, float]]],
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


def simulate_io(scenario: IoScenario) -> IoMetrics:
    """Run the scenario to completion and report the key measures."""
    sched = scenario.schedule
    events = workload.emission_events(sched)
    total_bytes = workload.total_bytes(sched)
    share_of = 1.0 / scenario.clients
    chunks = [(ev.time_hours, ev.bytes * share_of) for ev in events]
    cap = float(scenario.buffer_bytes)
    if chunks:
        biggest = max(b for _t, b in chunks)
        if biggest > cap + _EPS:
            raise UnwritableFieldError(
                f"field share of {biggest:.0f} bytes exceeds the "
                f"{scenario.buffer_bytes}-byte client buffer")

    compute_s = sched.run_hours * scenario.compute_rate
    two_level = scenario.two_level
    pools = scenario.pools
    n_gather = scenario.servers_level1
    # per level-1 server: its clients, round-robin by client id, and its
    # stage-one rate (gathering, or in a flat layout writing)
    keys = [(scenario.clients // n_gather
             + (1 if s < scenario.clients % n_gather else 0),
             scenario.gather_rate if two_level
             else scenario.writer_rate(s % pools))
            for s in range(n_gather)]

    # deduplicate identical stage-one subsystems, in server order
    multiplicity = Counter(key for key in keys if key[0])
    classes = {key: _simulate_stage_one(chunks, key[0], key[1], cap,
                                        scenario.compute_rate,
                                        collect_arrivals=two_level)
               for key in multiplicity}

    wait_total = 0.0
    for key, res in classes.items():
        wait_total += multiplicity[key] * sum(res.waits)
    wait_mean = wait_total / scenario.clients

    last_client_end = compute_s + max(
        (max(res.waits) for res in classes.values()), default=0.0)

    busy_write = 0.0
    last_done = 0.0
    if two_level:
        track = scenario.server_memory_bytes is not None
        writers_per_pool = scenario.servers_level2 // pools
        staging_total = 0.0
        pool_cache: Dict[tuple, Tuple[float, float, float]] = {}
        for p in range(pools):
            # level-1 servers go round-robin to pools; every pool has the
            # same writer count, so its members and rate identify it
            members = tuple(key for key in keys[p::pools] if key[0])
            sig = (members, scenario.writer_rate(p))
            if sig not in pool_cache:
                pool_cache[sig] = _stage_two(
                    [classes[key].arrivals for key in members],
                    writers_per_pool, sig[1], track)
            busy, done, peak = pool_cache[sig]
            busy_write += busy
            staging_total += peak
            if done > last_done:
                last_done = done
        if track and staging_total > scenario.server_memory_bytes:
            raise ServerMemoryError(
                f"peak server staging {staging_total / MIB:.1f} MiB exceeds "
                f"limit {scenario.server_memory_bytes / MIB:.1f} MiB")
    else:
        for key, res in classes.items():
            busy_write += multiplicity[key] * res.busy_s
            if res.last_done > last_done:
                last_done = res.last_done

    wall = max(compute_s, last_client_end, last_done)
    active = compute_s + wait_mean
    wait_pct = 100.0 * wait_mean / active if active > 0 else 0.0
    rate_mib = (total_bytes / busy_write) / MIB if busy_write > 0 else 0.0
    return IoMetrics(wall_clock_s=wall, client_wait_s=wait_mean,
                     client_wait_pct=wait_pct, server_write_rate=rate_mib,
                     bytes_written=total_bytes)


def metrics_row(metrics: IoMetrics) -> Dict[str, object]:
    return {
        "wall_clock_s": metrics.wall_clock_s,
        "wait_pct": metrics.client_wait_pct,
        "write_rate_mib_s": metrics.server_write_rate,
        "bytes_written": metrics.bytes_written,
    }


def striping_compare(scenario: IoScenario):
    """Metrics with striping off (factor forced to 1) and on."""
    off = simulate_io(replace(scenario, striping_factor=1.0))
    on = simulate_io(scenario)
    summary = {
        "write_rate_ratio": (on.server_write_rate / off.server_write_rate
                             if off.server_write_rate else float("inf")),
        "wall_ratio": (off.wall_clock_s / on.wall_clock_s
                       if on.wall_clock_s else float("inf")),
        "wait_pct_off": off.client_wait_pct,
        "wait_pct_on": on.client_wait_pct,
    }
    return off, on, summary
