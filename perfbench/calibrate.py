"""A fixed piece of pure-Python work that gauges how fast the host runs the
interpreter at this moment.

The machines this benchmark runs on are shared, and their speed drifts: a
seq_loop instance took from 61 to 83 ms of CPU time in successive 30 s
stretches of one process, and its wall time drifted more. A calibration
chunk run right after each instance drifted with it, so CPU time is
scaled to a reference speed: an operation's CPU time is multiplied by
REFERENCE_CHUNK_MS over the CPU time of one chunk measured just after that
operation. Over the same stretches the spread of the scaled figure was a
third of the raw one. The chunk runs no wee code, so a change
to wee moves the scaled figure and a change of the host's speed does not.
"""

from __future__ import annotations

import json
import statistics
import time

# CPU time of one chunk on the reference host; the unit of the scale
REFERENCE_CHUNK_MS = 1.0
# chunks run after each operation; their median is that operation's gauge
CHUNKS_PER_OP = 8

_BASE = {f"k{i}": i for i in range(40)}


def chunk() -> int:
    """The reference work: dict copies, sorted JSON, iteration, formatting."""
    out = 0
    for r in range(30):
        d = dict(_BASE)
        d["k3"] = r
        text = json.dumps(d, sort_keys=True)
        out += len(text) + sum(v for v in d.values() if v % 3 == 0)
        out += len("%s-%d" % (text[:10], r))
    return out


def chunk_cpu_ms(count: int = CHUNKS_PER_OP) -> float:
    """Median CPU time of one chunk, in ms, over `count` chunks run now."""
    times = []
    for _ in range(count):
        started = time.process_time()
        chunk()
        times.append((time.process_time() - started) * 1000)
    return statistics.median(times)


def scaled_cpu_seconds(cpu_seconds: float, chunk_ms: float) -> float:
    """CPU time an operation would have taken on the reference host."""
    return cpu_seconds * REFERENCE_CHUNK_MS / chunk_ms


def reference_seconds(wall_seconds: float, cpu_seconds: float, chunk_ms: float) -> float:
    """Wall time an operation would have taken on the reference host: its
    time off the CPU (scripted waits, hand-offs) as measured, plus its CPU
    time scaled to the reference speed."""
    off_cpu = max(wall_seconds - cpu_seconds, 0.0)
    return off_cpu + scaled_cpu_seconds(cpu_seconds, chunk_ms)
