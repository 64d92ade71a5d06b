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

Both stages step over runs, not single chunks.  Stage one takes each
client's emissions as groups of one hour and size, and runs a blocked
client's drain-one/push-one cycles as one chain.  A FIFO server that stays
backlogged runs the Lindley recursion `free = max(free, t) + d` as a
plain running sum, so its output is held as runs of chunks each done
one duration after the last.  Exact means the same IEEE-754 operations
in the same order as the per-chunk code kept in `tests/io_oracle.py`, so
every output is the same float and no running sum is a `sum`.  A sum of
one duration n times is `_add_n`: below the top of a binade each such
addition adds the same whole number of ulps, so it steps once per binade,
not once per chunk copy.  Stage one folds its busy time once per run of
equal durations, and stage two's busy time and each writer's backlogged
stretch are one `_add_n`.  A writer finds the arrivals a stretch takes
by a search of the stream's runs that starts at its estimate.  Pools of
mixed classes, and streams of short runs, are merged chunk by chunk.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, fields, replace
from functools import partial, reduce
from heapq import heappop, heappushpop, merge
from itertools import accumulate, chain, groupby, islice, repeat
from math import inf, isfinite, nextafter, ulp
from operator import add, itemgetter, lt, sub
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from . import workload
from .errors import CubedsimError
from .workload import DiagnosticSchedule

MIB = 1024.0 * 1024.0
_EPS = 1e-6  # bytes; absorbs float rounding in buffer bookkeeping
_PIECE = 1 << 14  # chunks per stage-two step; bounds its working memory
_WINDOW = 1 << 12  # staging events per stream in one step of the replay
# runs shorter than this cost more to step over than their chunks one
# by one: stage one batches and chains only when a buffer holds this many
# of the largest chunks, and stage two steps over a stream's runs only
# when they average this many chunks
_RUNS_FROM = 16
_BINADE = 1 << 53  # the top of a binade, in its ulps counted from 0


class IoConfigError(CubedsimError, ValueError):
    """Invalid I/O scenario."""


class UnwritableFieldError(IoConfigError):
    """UNWRITABLE_FIELD: a single field share exceeds the client buffer."""


class ServerMemoryError(CubedsimError, RuntimeError):
    """OUT_OF_MEMORY: aggregate server-side staging exceeds the limit."""


class IoSimulationError(CubedsimError, ValueError):
    """A metric left the floats: chunk times or their sums overflow."""


@dataclass(frozen=True)
class IoScenario:
    """An I/O layout and its output schedule.  `server_memory_bytes`, if
    set, limits the summed peak staging of the level-2 pools; a flat
    layout stages nothing, so it ignores the limit."""

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
        for attr, least in (("clients", 1), ("servers_level1", 1),
                            ("servers_level2", 0), ("pools", 1)):
            if getattr(self, attr) < least:
                raise IoConfigError(f"{attr} must be >= {least}, got "
                                    f"{getattr(self, attr)}", attr)
        if self.writer_count % self.pools:
            raise IoConfigError(
                f"writing servers ({self.writer_count}) not divisible by "
                f"pools ({self.pools})")
        if self.pools > self.files:
            raise IoConfigError(
                f"pools ({self.pools}) exceed files ({self.files}); every "
                f"pool needs at least one file")
        for attr in ("buffer_bytes", "base_write_rate", "gather_rate_factor"):
            if not getattr(self, attr) > 0:
                raise IoConfigError(f"{attr} must be positive", attr)
        for attr in ("striping_factor", "stripe_cap"):
            if getattr(self, attr) < 1:
                raise IoConfigError(f"{attr} must be >= 1", attr)
        for attr in ("compute_rate", "pool_penalty"):
            if getattr(self, attr) < 0:
                raise IoConfigError(f"{attr} must be >= 0", attr)
        if self.server_memory_bytes is not None \
                and self.server_memory_bytes < 1:
            raise IoConfigError(f"server_memory_bytes must be >= 1, got "
                                f"{self.server_memory_bytes}",
                                "server_memory_bytes")
        # a rate that leaves the floats writes in no time or never; pool 0
        # holds the most files per writer and the last pool the fewest
        rates = [(self.writer_rate(p), "base_write_rate")
                 for p in (0, self.pools - 1)]
        if self.two_level:
            rates.append((self.gather_rate, "gather_rate_factor"))
        for rate, attr in rates:
            if not 0 < rate < inf:
                raise IoConfigError(f"{attr} gives a rate of {rate!r} "
                                    f"bytes/s, not positive and finite", attr)
        if not isfinite(self.schedule.run_hours * self.compute_rate):
            raise IoConfigError("compute_rate times run_hours is not finite",
                                "compute_rate")

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


class _Arrivals:
    """A FIFO server's output, held as backlogged runs: a stage-one
    server's arrivals at level 2, or a writer's done times.

    A run `(first_done, dur, count, bytes)` is `count` chunks of `bytes`:
    the first done at `first_done` and each later one `dur` after the one
    before, by one float addition per chunk, as the server computed them.
    `len()` is the number of chunks, which stage one sets when done.
    """

    __slots__ = ("runs", "count")

    def __init__(self):
        self.runs: List[list] = []     # [first_done, dur, count, bytes]
        self.count = 0

    def __len__(self) -> int:
        return self.count

    def add(self, backlogged: bool, first: float, dur: float, n: int,
            size: float):
        """Append n chunks of one size; `backlogged` when the first one
        started as the server came free."""
        runs = self.runs
        if backlogged and runs and runs[-1][3] == size:    # so dur is too
            runs[-1][2] += n
        else:
            runs.append([first, dur, n, size])

    def pieces(self, size: int) -> Iterator[Tuple[List[float], float]]:
        """(done times, bytes) of consecutive chunks of one size, at most
        `size` at a time."""
        for b, group in groupby(self.runs, key=itemgetter(3)):
            times = chain.from_iterable(
                accumulate(repeat(dur, n - 1), add, initial=first)
                for first, dur, n, _b in group)
            while True:
                ts = list(islice(times, size))
                if not ts:
                    break
                yield ts, b

    def tagged(self) -> Iterator[Tuple[float, int, float]]:
        """(done, position, bytes) of every chunk, for a merge."""
        seq = 0
        for first, dur, n, b in self.runs:
            if n == 1:
                yield first, seq, b
                seq += 1
            else:
                for t in accumulate(repeat(dur, n - 1), add, initial=first):
                    yield t, seq, b
                    seq += 1


class _Chunks:
    """One client's emissions as groups `(model_hour, count, bytes)` of
    consecutive chunks, no two neighbours of one hour and size.  `len()`
    is the number of chunks, as it is for `_Arrivals`."""

    __slots__ = ("groups", "count")

    def __init__(self, groups: Iterable[Tuple[float, int, float]]):
        self.groups = [(t, sum(map(itemgetter(1), run)), b) for (t, b), run
                       in groupby(groups, key=itemgetter(0, 2))]
        self.count = sum(map(itemgetter(1), self.groups))

    def __len__(self) -> int:
        return self.count


def _expand(values: Iterable, counts: Iterable[int]) -> list:
    """Each value repeated its count of times, in order."""
    return list(chain.from_iterable(map(repeat, values, counts)))


@dataclass
class _StageOneResult:
    waits: List[float]              # per client
    busy_s: float                   # server busy seconds
    last_done: float                # completion of the last chunk
    arrivals: _Arrivals             # completions in FIFO order


def _simulate_stage_one(chunks: _Chunks, n_clients: int, rate: float,
                        cap: float, compute_rate: float,
                        collect_arrivals: bool) -> _StageOneResult:
    """One server draining n identical clients.

    `chunks` holds each client's emissions in groups of one hour and
    size.  At equal times clients act in id order, each pushing as many
    chunks as fit before yielding; a client's next event that comes
    before every other's is taken at once, as the heap would hand it
    back.  When a buffer holds `_RUNS_FROM` of the largest chunks, a
    client's pushes at one instant go as one batch, and a blocked client
    whose drain-one/push-one cycle keeps its fill is chained: its resume
    runs `_cycles` up to the next other event or the last chunk of its
    stretch, which the per-event step pushes before it goes on.
    """
    waits = [0.0] * n_clients
    arrivals = _Arrivals()
    runs = arrivals.runs
    if not chunks:
        return _StageOneResult(waits=waits, busy_s=0.0, last_done=0.0,
                               arrivals=arrivals)
    n_chunks = len(chunks)
    groups = chunks.groups
    counts = list(map(itemgetter(1), groups))
    hours = _expand(map(itemgetter(0), groups), counts)
    sizes = _expand(map(itemgetter(2), groups), counts)
    limit = cap + _EPS
    shortcuts = limit >= _RUNS_FROM * max(map(itemgetter(2), groups))
    if shortcuts:
        # per chunk, the end of its stretch and of its run of one size
        stops = _expand(accumulate(counts), counts)
        spans = [sum(map(itemgetter(1), run))
                 for _b, run in groupby(groups, key=itemgetter(2))]
        size_ends = _expand(accumulate(spans), spans)
    ptr = [0] * n_clients
    fill = [0.0] * n_clients
    # per client, the done times of its queued chunks: the last ones it
    # pushed, so their sizes are sizes[ptr - len(queue):ptr]
    pend: List[List[float]] = [[] for _ in range(n_clients)]
    chained = [False] * n_clients
    srv_free = 0.0
    # the busy time is `busy` and then bn more additions of bdur, pending
    busy = 0.0
    bdur, bn = sizes[0] / rate, 0
    heap = [(hours[0] * compute_rate, c) for c in range(n_clients)]
    # already sorted by client id; heapify is a no-op ordering-wise
    t, c = heappop(heap)
    while True:
        pt = pend[c]
        k = ptr[c]
        if chained[c]:
            # blocked on chunk k, resuming at t == pt[0]
            share = sizes[k]
            dur = share / rate
            if dur != bdur:
                busy, bdur, bn = _add_n(busy, bdur, bn), dur, 0
            n, srv_free, waits[c], chained[c] = _cycles(
                pt, size_ends, k, stops[k], heap, c, share, dur, srv_free,
                waits[c], arrivals if collect_arrivals else None)
            ptr[c] = k + n
            bn += n
            t, c = heappushpop(heap, (pt[0], c))
            continue
        f = fill[c]
        if pt and pt[0] <= t:
            if len(pt) == 1 or pt[1] > t:
                f -= sizes[k - len(pt)]
                del pt[0]
            else:
                j = bisect_right(pt, t)
                lo = k - len(pt)
                f = reduce(sub, sizes[lo:lo + j], f)
                del pt[:j]
        hour = hours[k]
        blocked = False
        while k < n_chunks and hours[k] == hour:
            share = sizes[k]
            grown = f + share
            if grown > limit:
                blocked = True
                break
            dur = share / rate
            if dur != bdur:
                busy, bdur, bn = _add_n(busy, bdur, bn), dur, 0
            start = srv_free if srv_free > t else t
            if shortcuts and grown + 3 * share <= limit and \
                    (same := stops[k] - k) > 3:
                # four or more of this size fit: push them as one batch
                fills = _running(f, repeat(share, min(
                    same, int((limit - f) / share) + 2)))
                n = bisect_right(fills, limit, 1) - 1   # as many as fit
                f = fills[n]
                first = start + dur
                bn += n
                if collect_arrivals:
                    arrivals.add(start == srv_free, first, dur, n, share)
                pt += accumulate(repeat(dur, n - 1), add, initial=first)
                srv_free = pt[-1]
                k += n
            else:
                done = start + dur
                bn += 1
                if collect_arrivals:
                    # `arrivals.add` inline: a call per chunk costs more
                    if start == srv_free and runs and runs[-1][3] == share:
                        runs[-1][2] += 1
                    else:
                        runs.append([done, dur, 1, share])
                srv_free = done
                pt.append(done)
                f = grown
                k += 1
        fill[c] = f
        ptr[c] = k
        if blocked:
            # resume when enough of our queued chunks drain
            lo = i = k - len(pt)
            freed = 0.0
            resume = t
            for resume in pt:
                freed += sizes[i]
                if f - freed + share <= limit:
                    break
                i += 1
            waits[c] += resume - t
            chained[c] = (shortcuts and len(pt) > 1 and sizes[lo] == share
                          and f - share + share == f)
            t, c = heappushpop(heap, (resume, c))
        elif k < n_chunks:
            t, c = heappushpop(heap, (t + (hours[k] - hour) * compute_rate, c))
        elif heap:
            t, c = heappop(heap)
        else:
            break
    if collect_arrivals:
        arrivals.count = n_chunks * n_clients
    return _StageOneResult(waits=waits, busy_s=_add_n(busy, bdur, bn),
                           last_done=srv_free, arrivals=arrivals)


def _cycles(pt: List[float], size_ends: List[int], k: int, stop: int,
            heap: list, c: int, share: float, dur: float, srv_free: float,
            wait: float, arrivals: Optional[_Arrivals]
            ) -> Tuple[int, float, float, bool]:
    """Run the drain-one/push-one cycles of chained client `c`, blocked on
    chunk k, from its resume at pt[0], the first of its queued chunks'
    done times, while each resume comes before the first event in `heap`
    (ties go to the lower id).  Chunks k to `stop` - 1 are of size
    `share`, and chunk i's run of one size ends at `size_ends[i]`.

    Chained means that two or more chunks are queued, the first of size
    `share`, and that f - share + share == f for the fill f.  Then the
    per-event step at t = pt[0] makes exactly one cycle when pt[1] > t,
    chunk k + 1 is in the stretch and the second queued chunk is of size
    `share`: it drains pt[0] alone, pushes chunk k, which fits (the fill
    is f again) and goes singly (f + share does not fit), at the server's
    free time >= pt[-1] > t; chunk k + 1 blocks at fill f until pt[1],
    the wait grows by pt[1] - pt[0], and the client is chained again.
    n cycles take the queued done times up to pt[n], which must increase
    strictly: that is proven when `dur` >= ulp(pt[n]), since each queued
    done is at least fl(the one before + dur).

    Returns the number of chunks pushed, the server's free time and the
    client wait, and whether the heap's first event cut the chain, so
    that the client resumes at pt[0] still chained."""
    pushed = 0
    while True:
        lo = k - len(pt)
        most = min(len(pt) - 1, stop - 1 - k, size_ends[lo] - 1 - lo)
        n = most
        if heap:
            top_t, top_c = heap[0]
            n = (bisect_right if c < top_c else bisect_left)(pt, top_t,
                                                             hi=most)
        if not n or dur < ulp(pt[n]) and not all(map(lt, pt, pt[1:n + 1])):
            return pushed, srv_free, wait, not n and most > 0
        wait = reduce(add, map(sub, pt[1:n + 1], pt), wait)
        first = srv_free + dur
        pt += accumulate(repeat(dur, n - 1), add, initial=first)
        srv_free = pt[-1]
        if arrivals is not None:
            arrivals.add(True, first, dur, n, share)
        del pt[:n]
        k += n
        pushed += n
        if n < most:
            return pushed, srv_free, wait, True


def _running(first: float, steps: Iterable[float]) -> List[float]:
    """`first` and the running total after each step, one addition per
    step in order."""
    return list(accumulate(steps, add, initial=first))


def _add_n(x: float, d: float, n: int) -> float:
    """`reduce(add, repeat(d, n), x)` for x, d >= 0, bit for bit, in time
    that grows with the binades crossed, not with n.  Up to the top of the
    binade of x, 2**53 of its ulps, each step adds d rounded to whole ulps:
    the same count every time, once a half-ulp tie starts from an even
    count, where rounding to even keeps it.  Those steps are one exact
    jump, and the step across the top is a plain addition.  Below 32
    additions, adding one by one is cheaper."""
    if n < 32:
        return reduce(add, repeat(d, n), x)
    while n and x < inf:
        u = ulp(x)
        q = d / u                       # exact while below 2**53
        if q < _BINADE and not (q % 1 == 0.5 and x / u % 2):
            step = round(q)             # ulps per step; a tie rounds to even
            if not step:
                return x
            k = min(n - 1, int(_BINADE - x / u) // step)
            x += k * step * u
            n -= k
        x += d
        n -= 1
    return x


class _Timeline:
    """Runs of one size as a sequence of done times, never expanded."""

    def __init__(self, runs: List[list]):
        self.runs = runs
        self.starts = list(accumulate(map(itemgetter(2), runs), initial=0))

    def __len__(self) -> int:
        return self.starts[-1]

    def __getitem__(self, i: int) -> float:
        r = bisect_right(self.starts, i) - 1
        return _add_n(self.runs[r][0], self.runs[r][1], i - self.starts[r])

    def upto(self, t: float, lo: int, hi: int) -> int:
        """The first i in [lo, hi) whose time is after t, or hi."""
        r = max(bisect_right(self.runs, t, key=itemgetter(0)) - 1, 0)
        k = _search(bisect_right, self.runs[r], t)
        return min(max(self.starts[r] + k, lo), hi)


def _search(side: Callable, run: list, t: float) -> int:
    """`side(times, t)`, `side` being `bisect_left` or `bisect_right`, over
    the done times of the run `[first_done, dur, count, bytes]`, expanding
    none.  It checks the estimate i = (t - first_done) / dur, then bisects
    the side of i the answer is on, out to steps that double away from i."""
    first, dur, n, _b = run
    time = partial(_add_n, first, dur)
    guess = (t - first) / dur if dur else 0.0
    i = int(guess) if 0 <= guess < n else n if guess >= n else 0
    past = i < n and side((time(i),), t)    # the answer is past i
    j = i + 1 if past else i - 1
    while 0 <= j < n and side((time(j),), t) == past:
        i, j = j, j + 2 * (j - i)
    lo, hi = (i + 1, min(j, n)) if past else (max(j + 1, 0), i)
    return side(range(n), t, lo, hi, key=time)


def _write(ts: Sequence[float], upto: Callable[[float, int, int], int],
           i: int, step: int, copies: int, dur: float, free: float,
           held: Optional[_Arrivals], size: float) -> float:
    """One writer's recursion `free = max(free, t) + dur` over arrivals
    `ts[i]`, `ts[i + step]`, ... of the sorted `ts`, each `copies` times
    in a row; `upto(t, lo, hi)` is the first index in [lo, hi) after t,
    or hi.  A backlogged writer takes all its arrivals at or before `free`
    as one `_add_n`.  Adds each backlogged stretch of completions of
    chunks of `size` to `held` as one run unless it is None, and returns
    the writer's new free time."""
    stop = len(ts)
    while i < stop:
        t = ts[i]
        start = done = free if free > t else t
        taken = 0
        while i < stop and (m := -(-(upto(done, i, stop) - i) // step)) > 0:
            done = _add_n(done, dur, m * copies)
            taken += m
            i += m * step
        if held is not None:
            # only the first stretch can start as the writer comes free
            held.add(start == free, start + dur, dur, taken * copies, size)
        free = done
    return free


def _take(run: list, cut: float) -> List[float]:
    """Take the done times before `cut` off the front of the run
    `[first_done, dur, count, bytes]`, expanding only those."""
    first, dur, n, _b = run
    k = _search(bisect_left, run, cut)
    run[0] = _add_n(first, dur, k)
    run[2] = n - k
    return _running(first, repeat(dur, k - 1)) if k else []


def _nth(runs: List[list], k: int) -> float:
    """About the time of the k-th done in `runs`, by estimate."""
    for first, dur, n, _b in runs:
        if n > k:
            return first + dur * k
        k -= n
    return inf


class _Staging:
    """Peak of the bytes staged at level 2: each chunk adds its size when
    it arrives and takes it off when written.  Arrival times are held per
    size and each writer's done times as its runs, all in time order, and
    the (time, +-bytes) events are replayed in sorted order about
    `_WINDOW` per stream at a time, carrying the level."""

    def __init__(self, copies: int, n_writers: int):
        self.copies = copies    # each held arrival comes this many times
        self.arrived: Dict[float, List[float]] = defaultdict(list)
        self.written = [_Arrivals() for _ in range(n_writers)]
        self.last = -inf        # the latest arrival
        self.level = 0.0
        self.peak = 0.0

    def replay(self, cut: float):
        """Replay the held events before time `cut`; later ones wait."""
        while True:
            # a window ends near each stream's `_WINDOW`-th event, or sooner:
            # any end keeps the (time, delta) order, since the events at one
            # time all fall on one side of it, but it must pass the first
            firsts = [ts[0] for ts in self.arrived.values()]
            firsts += [out.runs[0][0] for out in self.written if out.runs]
            first = min(firsts, default=inf)
            if first >= cut:
                return
            k = max(1, _WINDOW // self.copies)  # each arrival is `copies`
            ends = [ts[k] for ts in self.arrived.values() if len(ts) > k]
            ends += [_nth(out.runs, _WINDOW) for out in self.written]
            end = max(min(cut, *ends), nextafter(first, inf))
            gone: Dict[float, List[float]] = {}
            for out in self.written:
                spent = 0
                for run in out.runs:
                    if run[0] >= end:
                        break
                    gone.setdefault(run[3], []).extend(_take(run, end))
                    if run[2]:
                        break
                    spent += 1
                del out.runs[:spent]
            # list the events by delta, then sort them stably by time: that
            # is the (time, delta) order of the per-chunk replay
            times: List[float] = []
            deltas: List[float] = []
            for size in sorted(gone, reverse=True):
                times += gone[size]
                deltas += repeat(-size, len(gone[size]))
            for size in sorted(self.arrived):
                ts = self.arrived[size]
                i = bisect_left(ts, end)
                times += ts[:i] * self.copies
                deltas += repeat(size, i * self.copies)
                del ts[:i]
                if not ts:
                    del self.arrived[size]
            order = sorted(range(len(times)), key=times.__getitem__)
            path = _running(self.level, map(deltas.__getitem__, order))
            top = max(path)
            if top > self.peak:
                self.peak = top
            self.level = path[-1]


def _stage_two(arrival_streams: Sequence[_Arrivals], n_writers: int,
               rate: float, track_staging: bool) -> Tuple[float, float, float]:
    """Forwarded chunks from each level-1 stream are written by the
    pool's level-2 servers, round-robin per stream, in the order of the
    merged streams: by time, then position in the stream, then size,
    then stream.  Returns (busy_s, last_done, peak_staging_bytes)."""
    free = [0.0] * n_writers
    busy = 0.0
    copies = len(arrival_streams)
    first = arrival_streams[0] if copies else _Arrivals()
    if all(s is first for s in arrival_streams) and \
            len(first) >= _RUNS_FROM * len(first.runs):
        # identical members, in runs long enough to pay for themselves:
        # the merge repeats each chunk once per member.  Tracked staging
        # takes the arrival times a piece at a time.
        staging = _Staging(copies, n_writers) if track_staging else None
        held = repeat(None) if staging is None else staging.written
        seq = 0
        for ts, b in (first.pieces(_PIECE) if staging is not None else
                      ((_Timeline(list(group)), b) for b, group in
                       groupby(first.runs, key=itemgetter(3)))):
            dur = b / rate
            busy = _add_n(busy, dur, len(ts) * copies)
            upto = ts.upto if staging is None else partial(bisect_right, ts)
            if staging is not None:
                staging.replay(ts[0])
                staging.arrived[b].extend(ts)
                staging.last = ts[-1]
            for w, out in zip(range(n_writers), held):
                free[w] = _write(ts, upto, (w - seq) % n_writers, n_writers,
                                 copies, dur, free[w], out, b)
            seq += len(ts)
    else:
        # members of different classes, or short runs: merge chunk by chunk
        staging = _Staging(1, n_writers) if track_staging else None
        merged = merge(*[stream.tagged() for stream in arrival_streams])
        while block := list(islice(merged, _PIECE)):
            if staging is not None:
                staging.replay(block[0][0])
                staging.last = block[-1][0]
            for t, seq, b in block:
                w = seq % n_writers
                dur = b / rate
                f = free[w]
                done = (f if f > t else t) + dur
                free[w] = done
                busy += dur
                if staging is not None:
                    staging.arrived[b].append(t)
                    staging.written[w].add(f >= t, done, dur, 1, b)
    peak = 0.0
    if staging is not None:
        # the dones after the last arrival only lower the level
        staging.replay(nextafter(staging.last, inf))
        peak = staging.peak
    return busy, max(free), peak


def simulate_io(scenario: IoScenario,
                shared: Optional[Dict[tuple, object]] = None) -> IoMetrics:
    """Run the scenario to completion and report the key measures;
    `shared` keeps chunks and stage-one results by their inputs for the
    calls given it, such as a sweep's points, and nothing changes them.

    A two-level layout with `server_memory_bytes` set raises
    ServerMemoryError when the summed peak staging of its pools exceeds
    the limit.  The guard first tries a bound that needs no replay: with
    T = `total_bytes`, n chunk arrivals at level 2 (one per client and
    chunk), P pools, u = 2**-53 and m = n + P + 3 <= 2**53, the staging
    total is at most B = T * (1 + 2*m*u).  When the limit is at least
    ceil(B), compared in integers, stage two tracks nothing.  Otherwise
    the exact replay runs, and it alone decides and gives the number.

    Why B bounds it.  A chunk's size is fl(fl(bytes) * fl(1/clients)),
    three roundings to nearest, each within a factor (1 + u), so a
    field's shares over all clients sum to at most bytes * (1+u)**3.  A
    pool's level is a float running sum of its +size and -size events,
    in any order.  Rounding is monotone and a -size step never raises a
    float, so by induction the level never exceeds the float running sum
    of the arrivals so far.  That sum never falls, so the pool's peak,
    which starts at 0, is at most its final value, a float sum of the
    pool's n_p arrivals, which is at most their exact sum times
    (1+u)**n_p (Higham, "Accuracy and Stability of Numerical Algorithms",
    2002, section 4.2).  Each chunk reaches exactly one pool, and the
    pools' peaks are summed with P more roundings.  So the total is at
    most T * (1+u)**m <= T * exp(m*u) <= T * (1 + 2*m*u), as m*u <= 1.
    This takes no sum to overflow, which needs T near 2**1024; a
    config's schedule holds at most 2**73 bytes.  The bound is loose
    when the writers keep up: io-c192-tuned.json's exact peak is 0.026
    of its B, so its limit still takes the replay."""
    sched = scenario.schedule
    shared = {} if shared is None else shared
    emitted = (sched, scenario.clients)
    if emitted not in shared:
        share_of = 1.0 / scenario.clients
        shared[emitted] = _Chunks(
            (t, n, b * share_of)
            for t, n, b in workload.emission_groups(sched))
    chunks = shared[emitted]
    total_bytes = workload.total_bytes(sched)
    cap = float(scenario.buffer_bytes)
    if chunks:
        biggest = max(map(itemgetter(2), chunks.groups))
        if biggest > cap + _EPS:
            raise UnwritableFieldError(
                f"field share of {biggest:.0f} bytes exceeds the "
                f"{scenario.buffer_bytes}-byte client buffer")

    compute_s = sched.run_hours * scenario.compute_rate
    two_level = scenario.two_level
    pools = scenario.pools
    n_gather = scenario.servers_level1
    rates = [scenario.writer_rate(p) for p in range(pools)]
    # per level-1 server: its clients, round-robin by client id, and its
    # stage-one rate (gathering, or in a flat layout writing)
    keys = [(scenario.clients // n_gather
             + (1 if s < scenario.clients % n_gather else 0),
             scenario.gather_rate if two_level else rates[s % pools])
            for s in range(n_gather)]

    # deduplicate identical stage-one subsystems, in server order
    multiplicity = Counter(key for key in keys if key[0])
    classes = {}
    for key in multiplicity:
        inputs = (emitted, *key, cap, scenario.compute_rate, two_level)
        if inputs not in shared:
            shared[inputs] = _simulate_stage_one(chunks, *inputs[1:])
        classes[key] = shared[inputs]

    wait_total = 0.0
    for key, res in classes.items():
        wait_total += multiplicity[key] * sum(res.waits)
    wait_mean = wait_total / scenario.clients

    last_client_end = compute_s + max(
        (max(res.waits) for res in classes.values()), default=0.0)

    busy_write = 0.0
    last_done = 0.0
    if two_level:
        limit = scenario.server_memory_bytes
        m = scenario.clients * len(chunks) + pools + 3
        # at or above ceil(B) (see the docstring) the guard cannot fire
        track = limit is not None and not (
            m <= _BINADE
            and limit >= -(-total_bytes * (_BINADE + 2 * m) // _BINADE))
        writers_per_pool = scenario.servers_level2 // pools
        staging_total = 0.0
        pool_cache: Dict[tuple, Tuple[float, float, float]] = {}
        for p in range(pools):
            # level-1 servers go round-robin to pools; every pool has the
            # same writer count, so its members and rate identify it
            members = tuple(key for key in keys[p::pools] if key[0])
            sig = (members, rates[p])
            if sig not in pool_cache:
                pool_cache[sig] = _stage_two(
                    [classes[key].arrivals for key in members],
                    writers_per_pool, sig[1], track)
            busy, done, peak = pool_cache[sig]
            busy_write += busy
            staging_total += peak
            if done > last_done:
                last_done = done
        if track and staging_total > limit:
            raise ServerMemoryError(
                f"peak server staging of {staging_total!r} bytes "
                f"({staging_total / MIB:.1f} MiB) exceeds the "
                f"server_memory_bytes limit of {limit!r} bytes "
                f"({limit / MIB:.1f} MiB)")
    else:
        for key, res in classes.items():
            busy_write += multiplicity[key] * res.busy_s
            if res.last_done > last_done:
                last_done = res.last_done

    wall = max(compute_s, last_client_end, last_done)
    active = compute_s + wait_mean
    wait_pct = 100.0 * wait_mean / active if active > 0 else 0.0
    rate_mib = (total_bytes / busy_write) / MIB if busy_write > 0 else 0.0
    metrics = IoMetrics(wall_clock_s=wall, client_wait_s=wait_mean,
                        client_wait_pct=wait_pct, server_write_rate=rate_mib,
                        bytes_written=total_bytes)
    for term in fields(metrics):
        value = getattr(metrics, term.name)
        if not isfinite(value):
            raise IoSimulationError(
                f"{term.name} is {value}: the chunk times overflow")
    return metrics


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
