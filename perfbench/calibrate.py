"""A fixed, simulator-like pure-Python workload that gauges host speed.

The benchmark host is shared, and its speed drifts with other tenants'
load.  :func:`probe` does the same work every time — an event queue on
``heapq``, method calls on slotted objects, dict and list updates —
using only the standard library, so no change to the program can move
it.  Its host time, taken next to the program's, says how fast the host
ran simulator-like code at that moment.
"""

from __future__ import annotations

import heapq
import time

#: Events one probe processes.
PROBE_EVENTS = 20_000


class _Node:
    __slots__ = ("index", "busy_until", "sent", "log")

    def __init__(self, index: int):
        self.index = index
        self.busy_until = 0.0
        self.sent = 0
        self.log: list[tuple[float, float]] = []

    def send(self, now: float, size: float, queue: list, seq: int) -> None:
        start = max(now, self.busy_until)
        self.busy_until = start + size * 1e-9 + 1e-5
        self.sent += 1
        self.log.append((start, self.busy_until))
        heapq.heappush(queue, (self.busy_until, seq, self))


def probe() -> float:
    """Run the fixed workload once; returns its host seconds."""
    start = time.perf_counter()
    nodes = [_Node(i) for i in range(16)]
    queue: list = []
    volume: dict[tuple[int, int], float] = {}
    for seq, node in enumerate(nodes):
        node.send(0.0, 1000.0, queue, seq)
    for seq in range(len(nodes), PROBE_EVENTS):
        now, _, node = heapq.heappop(queue)
        peer = nodes[(seq * 7) % len(nodes)]
        key = (node.index, peer.index)
        volume[key] = volume.get(key, 0.0) + 1.5
        peer.send(now, 1000.0 + (seq % 97) * 50.0, queue, seq)
    return time.perf_counter() - start
