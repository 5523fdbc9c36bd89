"""Summaries of timed samples, and process memory."""

from __future__ import annotations

import math
import time
from statistics import fmean


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def latency_summary(seconds: list[float], tail: float) -> dict[str, float]:
    """Median and ``tail``-th percentile of per-request latencies, in ms."""
    return {
        "p50_ms": percentile(seconds, 50.0) * 1e3,
        "tail_ms": percentile(seconds, tail) * 1e3,
        "tail_percentile": tail,
        "samples": len(seconds),
    }


def peak_rss_mb() -> float:
    """Peak resident set size (``VmHWM``) of this process, in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


#: the host-speed probe is sampled after at least this much timed work.
PROBE_EVERY_S = 0.02
#: the probe's time on the reference host speed (2-vCPU host, quiet).
PROBE_REFERENCE_S = 1.0e-3


def _probe_loop() -> None:
    counts: dict[int, int] = {}
    for i in range(8000):
        counts[i & 255] = counts.get(i & 255, 0) + i


class HostSpeed:
    """Samples of a fixed pure-Python loop interleaved with the timed work.

    A shared host changes speed by up to 1.7x within seconds and stays
    slowed for minutes, for the probe and the program alike.  Sampled
    every ``PROBE_EVERY_S`` of timed work, the probe's mean time tracks
    that speed over the same stretch, and ``slowdown`` divides it out: a
    time divided by ``slowdown`` is the time at the reference speed.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._since = math.inf

    def after(self, busy_s: float) -> None:
        """Note ``busy_s`` of timed work; probe the host once enough has passed."""
        self._since += busy_s
        if self._since >= PROBE_EVERY_S:
            self._since = 0.0
            self.probe()

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            started = time.perf_counter()
            _probe_loop()
            self.samples.append(time.perf_counter() - started)

    def slowdown(self) -> float:
        """Mean probe time over its reference: above 1 on a slowed host."""
        return fmean(self.samples) / PROBE_REFERENCE_S
