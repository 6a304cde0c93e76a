"""A fixed probe of how fast this host runs planner-like Python right now.

The probe is a best-first search over a time-expanded grid (dicts, sets,
heaps and tuples, as in `lowlevel.plan`) that shares no code with the
package, so no change to the package can move it. The benchmark runs it
between cells and scales each cell's times by REFERENCE_S over the median
of the probes around the cell.

On a host shared with other tenants, identical work runs 15-25% slower or
faster from one minute to the next, and the probe slows down with the
planner. On 2 virtual cores of a shared Intel Xeon host, the spread
(interquartile range over median) of grid-oracle-w1's suite time over ten
runs was 0.24 unscaled and 0.044 scaled, and of its median cell time 0.22
unscaled and 0.028 scaled.
"""

from __future__ import annotations

import gc
import heapq
import time

# Median probe time measured when the benchmark was defined. Scaled times
# read as seconds on a host that runs the probe in REFERENCE_S.
REFERENCE_S = 0.005

_SIZE = 14
_BLOCKED = frozenset(
    (x, y) for x in range(_SIZE) for y in range(_SIZE) if (7 * x + 13 * y) % 11 == 0 and (x, y) != (0, 0)
)


def _search() -> int:
    goal = (_SIZE - 1, _SIZE - 2)
    start = (0, 0, 0)
    g = {start: 0}
    parent = {start: None}  # back-pointers, kept as the planner keeps them
    heap = [(0, 0, start)]
    closed = set()
    while heap:
        f, _, state = heapq.heappop(heap)
        if state in closed:
            continue
        closed.add(state)
        x, y, t = state
        if (x, y) == goal:
            return len(closed)
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < _SIZE and 0 <= ny < _SIZE and (nx, ny) not in _BLOCKED:
                nxt = (nx, ny, t + 1)
                if nxt not in g:
                    g[nxt] = t + 1
                    parent[nxt] = state
                    h = (abs(nx - goal[0]) + abs(ny - goal[1])) // 2
                    heapq.heappush(heap, (t + 1 + h, -(t + 1), nxt))
    return len(closed)


def probe() -> float:
    """Seconds one probe search takes. The garbage collector is paused, so
    the probe does not pay for collecting the planner's objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _search()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
