"""The served deployment: a ``repro serve`` child and a load generator.

:class:`ServerProcess` runs ``python -m repro serve --gateway-port 0`` on
a published deployment and stops it by closing its stdin (the serve
loop reads queries from stdin and exits at end of input).  The
generator holds one :class:`~repro.gateway.GatewayClient` connection
and does the client's own work inline per request: ``prepare_query``,
the gateway round trip, then ``process_answer``.
"""

from __future__ import annotations

import asyncio
import os
import re
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.query_client import QueryClient
from repro.exceptions import GatewayError, GatewayRejected, ResultBudgetExceeded
from repro.gateway import GatewayClient
from repro.graph.attributed import AttributedGraph

#: star-cache capacity of the served cloud (``repro serve``'s default).
STAR_CACHE = 256
START_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 30.0


class ServerProcess:
    """One ``repro serve`` child with the gateway and telemetry ports."""

    def __init__(self, src: Path, deployment: Path, graph_file: Path, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self._gateway_file = workdir / "gateway.port"
        self._telemetry_file = workdir / "telemetry.port"
        for path in (self._gateway_file, self._telemetry_file):
            path.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=str(src))
        self._log = open(workdir / "serve.log", "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(deployment), str(graph_file),
                "--port", "0", "--port-file", str(self._telemetry_file),
                "--gateway-port", "0", "--gateway-port-file", str(self._gateway_file),
                "--star-cache", str(STAR_CACHE),
            ],
            stdin=subprocess.PIPE,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=env,
        )
        self.gateway_port = 0
        self.telemetry_port = 0

    def wait_ready(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while not self._gateway_file.exists() or not self._gateway_file.read_text():
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with code {self.proc.returncode}")
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve did not open its gateway port")
            time.sleep(0.005)
        self.gateway_port = int(self._gateway_file.read_text())
        self.telemetry_port = int(self._telemetry_file.read_text())

    def scrape(self) -> dict[str, float]:
        """The unlabelled and ``direction``-labelled series of ``/metrics``."""
        url = f"http://127.0.0.1:{self.telemetry_port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            text = response.read().decode("utf-8")
        series: dict[str, float] = {}
        for line in text.splitlines():
            match = re.match(r"^([a-zA-Z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$", line)
            if match:
                name, labels, value = match.groups()
                series[name + (labels or "")] = float(value)
        return series

    def stop(self) -> None:
        try:
            if self.proc.stdin is not None:
                self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self._log.close()


@dataclass
class Request:
    """One request's outcome; times are ``perf_counter`` seconds."""

    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    rtt: float = 0.0
    matches: list | None = None
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class LoadResult:
    requests: list[Request] = field(default_factory=list)
    wall: float = 0.0

    @property
    def failures(self) -> int:
        return sum(1 for r in self.requests if r.error is not None)


async def _one(
    gateway: GatewayClient, client: QueryClient, query: AttributedGraph, request: Request
) -> None:
    request.sent = time.perf_counter()
    try:
        anonymized = client.prepare_query(query)
        started = time.perf_counter()
        table, expanded = await asyncio.wait_for(
            gateway.query(anonymized), REQUEST_TIMEOUT_S
        )
        request.rtt = time.perf_counter() - started
        outcome = client.process_answer(query, table, expanded)
        request.matches = outcome.matches
    except GatewayRejected as exc:
        request.error = f"reject:{exc.code}"
    except (GatewayError, ResultBudgetExceeded, asyncio.TimeoutError) as exc:
        request.error = type(exc).__name__
    request.done = time.perf_counter()


async def closed_loop(
    gateway: GatewayClient,
    client: QueryClient,
    queries: list[AttributedGraph],
    stream: list[int],
) -> LoadResult:
    """One request at a time over ``stream``."""
    result = LoadResult()
    started = time.perf_counter()
    for index in stream:
        request = Request(index=index, due=time.perf_counter())
        await _one(gateway, client, queries[index], request)
        result.requests.append(request)
    result.wall = time.perf_counter() - started
    return result


async def open_loop(
    gateway: GatewayClient,
    client: QueryClient,
    queries: list[AttributedGraph],
    stream: list[int],
    rate: float,
) -> LoadResult:
    """Send ``stream`` at a fixed ``rate``, each request timed from its due time."""
    result = LoadResult()
    tasks: list[asyncio.Task] = []
    started = time.perf_counter()
    for i, index in enumerate(stream):
        due = started + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        request = Request(index=index, due=due)
        result.requests.append(request)
        tasks.append(asyncio.create_task(_one(gateway, client, queries[index], request)))
    for task in tasks:
        await task
    result.wall = time.perf_counter() - started
    return result


async def batch(
    gateway: GatewayClient,
    client: QueryClient,
    queries: list[AttributedGraph],
) -> list[list]:
    """``queries`` in one request frame; returns each query's matches."""
    anonymized = [client.prepare_query(query) for query in queries]
    answers = await asyncio.wait_for(gateway.submit(anonymized), REQUEST_TIMEOUT_S)
    return [
        client.process_answer(query, table, expanded).matches
        for query, (table, expanded) in zip(queries, answers)
    ]
