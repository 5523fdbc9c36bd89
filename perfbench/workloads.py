"""The workloads, ``selective`` and ``dense``, and how a run measures them.

An end-to-end run sets the deployment up ``SETUPS`` times.  After each
set-up it times that round's closed-loop queries with the system's own
tracing off, so every metric samples the host over the whole run.  Its
timings are expressed at a reference host speed: a fixed probe loop runs
between the queries and around each set-up (see
:class:`stats.HostSpeed`).  Every answer is checked against the VF2
oracle outside the timed region.  A traced run instead records spans
around each layer's entry points (see :mod:`spans`) and, on
``selective``, serves the deployment through the TCP gateway (see
:mod:`gateway`).
"""

from __future__ import annotations

import asyncio
import gc
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from repro.core.options import QueryOptions
from repro.core.storage import save_published
from repro.core.system import PrivacyPreservingSystem
from repro.exceptions import ReproError
from repro.gateway import GatewayClient
from repro.graph.attributed import AttributedGraph
from repro.graph.io import save_graph
from repro.matching.isomorphism import find_subgraph_matches

import gateway as served
from inputs import (
    DENSE_QUERIES,
    SELECTIVE_QUERIES,
    FixedStream,
    QuerySpec,
    canonical,
    dataset,
    reference_queries,
    repeat_fractions,
    sample_workload,
    system_config,
    zipf_pool,
)
from spans import ROOT, LayerTracer
from stats import HostSpeed, latency_summary, peak_rss_mb, percentile

SETUPS = 3
#: probe samples taken right before and right after each timed set-up.
SETUP_PROBES = 50
UNTRACED = QueryOptions(trace=False)
#: ``max_qps_at_slo`` holds this percentile of latency to the workload's limit.
SLO_PERCENTILE = 90.0


@dataclass(frozen=True)
class Workload:
    """One workload's inputs and how a run divides them.

    The sizes were set on a 2-core host, where at ``--seconds 10`` a round
    of ``selective``'s closed loop takes about 1.5 s and one of ``dense``'s
    about 8 s.
    """

    name: str
    #: ``dbpedia_like`` scale of the data graph (2,000 vertices per unit).
    scale: float
    queries: QuerySpec
    #: distinct closed-loop queries per second of ``--seconds``: a fixed
    #: amount of work per run.
    per_second: float
    #: share of the reference list that the batch pass re-runs.
    batch_share: float
    #: queries per chunk of a traced run (each chunk runs untraced and
    #: traced); also the fewest closed-loop queries a run asks.
    chunk: int
    #: the latency limit ``max_qps_at_slo`` holds the 90th percentile to.
    limit_ms: float
    #: the percentile ``query_tail_ms`` reports: the highest with at least
    #: ten samples beyond it at this workload's size.
    tail: float
    #: every round answers the whole list (``dense``: each class's time is
    #: the median of its rounds) or its own third of it (``selective``).
    whole_list_each_round: bool
    #: the traced run also serves the deployment through the gateway.
    served: bool

    def closed_count(self, seconds: float) -> int:
        return max(self.chunk, round(self.per_second * seconds))


SELECTIVE = Workload(
    "selective", 8.0, SELECTIVE_QUERIES, per_second=180.0, batch_share=1.0, chunk=100,
    limit_ms=20.0, tail=99.0, whole_list_each_round=False, served=True,
)
DENSE = Workload(
    "dense", 4.0, DENSE_QUERIES, per_second=12.0, batch_share=0.3, chunk=10,
    limit_ms=500.0, tail=90.0, whole_list_each_round=True, served=False,
)
WORKLOADS = {w.name: w for w in (SELECTIVE, DENSE)}

#: served pass: distinct queries in the Zipf-popular pool.
POOL = 512
#: served pass: queries per request frame of the batch pass.
BATCH_FRAME = 64
#: served pass: the nominal open-loop rate the latency figures are taken
#: at, and the share of its time spent at it.
NOMINAL_QPS = 100.0
NOMINAL_SHARE = 0.3
#: served pass: the rate ladder ``gateway.max_qps_at_slo`` climbs; a step
#: sends at least ``LADDER_STEP_REQUESTS`` requests and lasts at least
#: ``LADDER_STEP_S``.
LADDER_QPS = (100.0, 200.0, 300.0, 400.0, 450.0, 500.0, 550.0, 600.0, 700.0, 800.0)
LADDER_STEP_REQUESTS = 120
LADDER_STEP_S = 0.5
#: served pass: its closed loop, per second of its share of ``--seconds``.
SERVED_PER_SECOND = 60.0
#: served pass: the latency limit of ``gateway.max_qps_at_slo``.
SERVED_LIMIT_MS = 20.0


@dataclass
class Run:
    """What a run hands back to ``run.py`` for printing."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    correct: bool
    details: dict


class Oracle:
    """``R(Q, G)`` by VF2, computed once per distinct query."""

    def __init__(self, graph: AttributedGraph) -> None:
        self._graph = graph
        self._known: dict[int, frozenset] = {}

    def expected(self, query: AttributedGraph) -> frozenset:
        key = id(query)
        if key not in self._known:
            self._known[key] = canonical(find_subgraph_matches(query, self._graph))
        return self._known[key]

    def mismatches(self, queries: list[AttributedGraph], answers: list) -> int:
        """Answers that differ from the oracle; ``None`` answers are failures, not mismatches."""
        return sum(
            1
            for query, answer in zip(queries, answers)
            if answer is not None and canonical(answer) != self.expected(query)
        )


def _setup_system(graph, schema, sample, config) -> tuple[PrivacyPreservingSystem, float]:
    started = time.perf_counter()
    system = PrivacyPreservingSystem.setup(graph, schema, config, sample_workload=sample)
    return system, time.perf_counter() - started


def _answer(system: PrivacyPreservingSystem, query: AttributedGraph):
    try:
        return system.query(query, options=UNTRACED).matches
    except ReproError:
        return None


def _max_rate_at_limit(service: list[float], limit_s: float) -> float:
    """Highest arrival rate a FIFO replay of ``service`` keeps within ``limit_s``.

    Arrivals come at a fixed rate in the measured order; each waits for
    the one before it.  The rate passes on the gateway ladder's terms:
    the 90th percentile latency and the median latency of the last
    quarter, the backlog check, are both within the limit.
    """

    def passes(rate: float) -> bool:
        finish = 0.0
        latencies = []
        for i, seconds in enumerate(service):
            due = i / rate
            finish = max(finish, due) + seconds
            latencies.append(finish - due)
        last = latencies[3 * len(latencies) // 4:]
        return percentile(latencies, SLO_PERCENTILE) <= limit_s and percentile(last, 50.0) <= limit_s

    low, high = 0.0, len(service) / sum(service)
    if passes(high):
        return high
    for _ in range(40):
        mid = (low + high) / 2
        if mid > 0 and passes(mid):
            low = mid
        else:
            high = mid
    return low


def _publish_layers(tracer: LayerTracer, spans) -> dict[str, tuple[float, str]]:
    self_s = tracer.self_seconds(spans)
    return {
        f"{name}_s": (self_s.get(name, 0.0), "s")
        for name in (
            "publish.lct",
            "kauto.partition",
            "kauto.alignment",
            "kauto.edge_copy",
            "outsource.build",
            "protocol.upload",
            "cloud.index_build",
        )
    }


def _query_layers(tracer: LayerTracer, spans, queries: int) -> dict[str, tuple[float, str]]:
    self_s = tracer.self_seconds(spans)
    counts = tracer.counts(spans)
    per = max(1, queries)

    def ms(name: str) -> tuple[float, str]:
        return (self_s.get(name, 0.0) * 1e3 / per, "ms")

    def mean(name: str, key: str, unit: str) -> tuple[float, str]:
        return (counts.get(name, {}).get(key, 0.0) / per, unit)

    filtered = counts.get("client.filter", {})
    return {
        "client.anonymize_ms": ms("client.anonymize"),
        "protocol.query_ms": ms("protocol.query"),
        "protocol.query_bytes": mean("protocol.query", "bytes", "bytes"),
        "cloud.decompose_ms": ms("cloud.decompose"),
        "cloud.stars_per_query": mean("cloud.decompose", "stars", "count"),
        "cloud.star_match_ms": ms("cloud.star_match"),
        "cloud.star_calls": mean("cloud.star_match", "calls", "count"),
        "cloud.star_rows": mean("cloud.star_match", "rows", "count"),
        "cloud.join_ms": ms("cloud.join"),
        "cloud.rin_rows": mean("cloud.join", "rows", "count"),
        "protocol.answer_ms": ms("protocol.answer"),
        "protocol.answer_bytes": mean("protocol.answer", "bytes", "bytes"),
        "client.expand_ms": ms("client.expand"),
        "client.candidates": mean("client.filter", "candidates", "count"),
        "client.filter_ms": ms("client.filter"),
        "client.useful_frac": (
            filtered.get("results", 0.0) / filtered["candidates"]
            if filtered.get("candidates")
            else 1.0,
            "ratio",
        ),
    }


# ----------------------------------------------------------------------
# end-to-end runs
# ----------------------------------------------------------------------
@dataclass
class _Inputs:
    graph: AttributedGraph
    schema: object
    sample: list[AttributedGraph]
    oracle: Oracle
    warmup: list[AttributedGraph]
    #: the closed-loop list, and each query's index in the reference list
    queries: list[AttributedGraph]
    origin: list[int]


def run(
    workload: Workload, seed: int, seconds: float, scale: float, trace: bool, src: Path, out: Path
) -> Run:
    """One run of ``workload``: end-to-end figures, or per-layer ones with ``trace``."""
    graph, schema = dataset(workload.scale * scale)
    sample = sample_workload(graph)
    count = workload.closed_count(seconds)
    reference = reference_queries(graph, workload.queries, count + 1)
    warmup = reference[-1:]  # answered first after each set-up, never timed
    stream = FixedStream(reference[:-1], seed)
    queries = stream.take(count)
    origin = [stream.origin[id(q)] for q in queries]
    inputs = _Inputs(graph, schema, sample, Oracle(graph), warmup, queries, origin)
    if trace:
        return _traced(workload, inputs, seed, seconds, src, out)
    return _untraced(workload, inputs)


def _untraced(workload: Workload, inputs: _Inputs) -> Run:
    queries = inputs.queries
    config = system_config()
    setup_times: list[float] = []
    times: list[list[float]] = [[] for _ in queries]
    checked: list[AttributedGraph] = []
    answers: list = []
    setup_slowdowns: list[float] = []
    closed_runs = 0
    closed_busy = 0.0
    answer_sizes: list[int] = []
    host = HostSpeed()
    for part in range(SETUPS):
        around = HostSpeed()
        around.probe(SETUP_PROBES)
        system, elapsed = _setup_system(inputs.graph, inputs.schema, inputs.sample, config)
        around.probe(SETUP_PROBES)
        setup_times.append(elapsed)
        setup_slowdowns.append(around.slowdown())
        checked += inputs.warmup
        answers += [_answer(system, q) for q in inputs.warmup]
        positions = range(len(queries))
        if not workload.whole_list_each_round:
            positions = _share(positions, part)
        transfers_before = len(system.channel.transfers)
        for position in positions:
            query_started = time.perf_counter()
            answers.append(_answer(system, queries[position]))
            busy = time.perf_counter() - query_started
            times[position].append(busy)
            closed_busy += busy
            host.after(busy)
        closed_runs += len(positions)
        checked += [queries[p] for p in positions]
        answer_sizes += [
            t.payload_bytes
            for t in system.channel.transfers[transfers_before:]
            if t.direction == "answer"
        ]
        upload = system.channel.total_bytes("upload")
        system.cloud.close()
        # the next set-up starts from the heap the first one did
        del system
        gc.collect()
    rss = peak_rss_mb()

    failed = sum(1 for a in answers if a is None)
    mismatched = inputs.oracle.mismatches(checked, answers)
    service = [median(t) for t in times]
    metrics = {
        "setup_s": (median(t / h for t, h in zip(setup_times, setup_slowdowns)), "s"),
        "queries_per_s": (closed_runs / closed_busy * host.slowdown(), "1/s"),
        "answer_bytes_per_query": (sum(answer_sizes) / len(answer_sizes), "bytes"),
        "upload_bytes": (float(upload), "bytes"),
        "peak_rss_mb": (rss, "MiB"),
    }
    details = {
        "setup_s_raw_each": setup_times,
        "setup_host_slowdown_each": setup_slowdowns,
        "queries_per_s_raw": closed_runs / closed_busy,
        "query_host_slowdown": host.slowdown(),
        "query_p50_ms": percentile(service, 50.0) * 1e3,
        "latency_samples": len(service),
        "closed_runs": closed_runs,
        "mismatched": mismatched,
        "fail_frac": (failed + mismatched) / len(answers),
        **repeat_fractions(queries),
    }
    return Run(metrics, len(answers), failed + mismatched, mismatched == 0, details)


def _share(items, part: int):
    """The ``part``-th of ``SETUPS`` contiguous slices of ``items``."""
    size = len(items)
    return items[part * size // SETUPS: (part + 1) * size // SETUPS]


# ----------------------------------------------------------------------
# per-layer runs
# ----------------------------------------------------------------------
def _traced(workload: Workload, inputs: _Inputs, seed: int, seconds: float, src, out) -> Run:
    """A traced set-up, then half the list in chunks, each run untraced and traced.

    The order of the two passes swaps from chunk to chunk, so
    ``trace.overhead_frac`` compares the same queries.  Per-layer figures
    come from the traced passes only.
    """
    tracer = LayerTracer()
    tracer.install()
    try:
        system, _ = _setup_system(inputs.graph, inputs.schema, inputs.sample, system_config())
    finally:
        tracer.restore()
    setup_spans = len(tracer.spans)
    metrics = _publish_layers(tracer, tracer.spans)

    started = time.perf_counter()
    answers = [_answer(system, q) for q in inputs.warmup]
    metrics["cloud.first_query_ms"] = ((time.perf_counter() - started) * 1e3, "ms")

    queries = inputs.queries[: max(1, len(inputs.queries) // 2)]
    checked = list(inputs.warmup)  # the queries behind ``answers``, in order
    plain_seconds: list[float] = []
    walls = {False: 0.0, True: 0.0}
    for first, at in enumerate(range(0, len(queries), workload.chunk)):
        chunk = queries[at: at + workload.chunk]
        for traced in (first % 2 == 1, first % 2 == 0):
            checked += chunk
            if traced:
                tracer.install()
            started = time.perf_counter()
            try:
                for offset, query in enumerate(chunk):
                    if traced:
                        with tracer.record(ROOT, query_id=at + offset):
                            answers.append(_answer(system, query))
                    else:
                        query_started = time.perf_counter()
                        answers.append(_answer(system, query))
                        plain_seconds.append(time.perf_counter() - query_started)
            finally:
                walls[traced] += time.perf_counter() - started
                tracer.restore()

    spans = tracer.spans[setup_spans:]
    metrics.update(_query_layers(tracer, spans, len(queries)))
    layer_self = sum(s for name, s in tracer.self_seconds(spans).items() if name != ROOT)
    metrics["trace.unattributed_frac"] = ((walls[True] - layer_self) / walls[True], "ratio")
    metrics["trace.overhead_frac"] = (walls[True] / walls[False] - 1.0, "ratio")

    # end-to-end figures too noisy on a shared host to bound, from the untraced passes
    summary = latency_summary(plain_seconds, workload.tail)
    metrics["query_p50_ms"] = (summary["p50_ms"], "ms")
    metrics["query_tail_ms"] = (summary["tail_ms"], "ms")
    order = sorted(range(len(queries)), key=inputs.origin.__getitem__)
    metrics["max_qps_at_slo"] = (
        _max_rate_at_limit([plain_seconds[i] for i in order], workload.limit_ms / 1e3),
        "1/s",
    )
    # the batch: the traced queries from the first ``batch_share`` of the
    # reference list, so its mix is the same for every seed
    cut = max(1, round(len(inputs.queries) * workload.batch_share))
    positions = [i for i in range(len(queries)) if inputs.origin[i] < cut] or [0]
    batch_list = [queries[i] for i in positions]
    started = time.perf_counter()
    answers += system.submit(batch_list, options=UNTRACED).matches
    batch_wall = time.perf_counter() - started
    checked += batch_list
    metrics["batch_queries_per_s"] = (len(batch_list) / batch_wall, "1/s")
    metrics["parallel.wall_over_serial"] = (
        batch_wall / sum(plain_seconds[i] for i in positions),
        "ratio",
    )
    tracer.write(out / f"spans-{workload.name}.json")

    candidates = tracer.per_query("client.filter", "candidates")
    metrics.update({k: (v, "ratio") for k, v in repeat_fractions(queries).items()})
    metrics["workload.median_candidates"] = (median(candidates), "count")

    mismatched = inputs.oracle.mismatches(checked, answers)
    failures = sum(1 for a in answers if a is None) + mismatched
    attempted = len(answers)
    correct = mismatched == 0
    details: dict = {"traced_queries": len(queries), "mismatched": mismatched}
    if workload.served:
        served_run = _served_pass(system, inputs.graph, seed, seconds / 2, src, out)
        metrics.update(served_run.metrics)
        attempted += served_run.attempted
        failures += served_run.failed
        correct = correct and served_run.correct
        details["served"] = served_run.details
    else:
        metrics.update(_NOT_SERVED)
    system.cloud.close()
    return Run(metrics, attempted, failures, correct, details)


#: the served-pass figures of a workload that is not served (``dense``).
_NOT_SERVED = {
    "cloud.star_cache_hit_frac": (0.0, "ratio"),
    "gateway.query_p50_ms": (0.0, "ms"),
    "gateway.query_tail_ms": (0.0, "ms"),
    "gateway.queries_per_s": (0.0, "1/s"),
    "gateway.max_qps_at_slo": (0.0, "1/s"),
    "gateway.rtt_ms": (0.0, "ms"),
    "gateway.rejects": (0.0, "count"),
    "gateway.coalesced": (0.0, "count"),
    "gateway.server_p99_ms": (0.0, "ms"),
    "loadgen.late_p99_ms": (0.0, "ms"),
    "workload.served_exact_repeat_frac": (0.0, "ratio"),
}


# ----------------------------------------------------------------------
# the served pass
# ----------------------------------------------------------------------
def _served_pass(system, graph, seed: int, seconds: float, src: Path, out: Path) -> Run:
    """Serve ``system``'s deployment from a ``repro serve`` child and load it over TCP.

    Requests are drawn with Zipf popularity from a pool of distinct
    selective queries, so some repeat while in flight (coalescing) and
    the served star cache hits.
    """
    pool, stream = zipf_pool(graph, SELECTIVE_QUERIES, POOL, seed, 100_000)
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out, prefix="served-") as tmp:
        root = Path(tmp)
        save_graph(graph, root / "graph.json")
        save_published(system.published, root / "deployment")
        server = served.ServerProcess(src, root / "deployment", root / "graph.json", root)
        try:
            server.wait_ready()
            measured = asyncio.run(_drive(server, system.client, pool, iter(stream), seconds))
        finally:
            server.stop()

    requests = measured["requests"]
    nominal = measured["nominal"]
    answered = [q for q in requests if q.error is None]
    oracle = Oracle(graph)
    mismatched = sum(
        1 for q in answered if canonical(q.matches) != oracle.expected(pool[q.index])
    ) + oracle.mismatches(measured["batch_queries"], measured["batch_matches"])
    failed = len(requests) - len(answered)
    summary = latency_summary([q.latency for q in nominal], 95.0)
    hits, misses = measured["cache_hits"], measured["cache_misses"]
    metrics = {
        "cloud.star_cache_hit_frac": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "gateway.query_p50_ms": (summary["p50_ms"], "ms"),
        "gateway.query_tail_ms": (summary["tail_ms"], "ms"),
        "gateway.queries_per_s": (len(measured["closed"]) / measured["closed_wall"], "1/s"),
        "gateway.max_qps_at_slo": (measured["max_qps_at_slo"], "1/s"),
        "gateway.rtt_ms": (median([q.rtt for q in nominal if q.error is None]) * 1e3, "ms"),
        "gateway.rejects": (
            measured["shed"] + sum(1 for q in requests if (q.error or "").startswith("reject")),
            "count",
        ),
        "gateway.coalesced": (measured["coalesced"], "count"),
        "gateway.server_p99_ms": (measured["server_p99"] * 1e3, "ms"),
        "loadgen.late_p99_ms": (
            percentile([max(0.0, q.sent - q.due) for q in nominal], 99.0) * 1e3,
            "ms",
        ),
        "workload.served_exact_repeat_frac": (
            repeat_fractions([pool[q.index] for q in requests])["workload.exact_repeat_frac"],
            "ratio",
        ),
    }
    details = {
        "tail_percentile": summary["tail_percentile"],
        "samples": summary["samples"],
        "ladder_p90_ms": measured["ladder"],
        "mismatched": mismatched,
    }
    attempted = len(requests) + len(measured["batch_queries"])
    return Run(metrics, attempted, failed + mismatched, mismatched == 0, details)


async def _drive(server, client, pool, draws, seconds: float) -> dict:
    """The served passes: closed loop, one batch frame, nominal rate, then the ladder."""
    limit_s = SERVED_LIMIT_MS / 1e3

    def take(count: int) -> list[int]:
        return [next(draws) for _ in range(count)]

    async with GatewayClient("127.0.0.1", server.gateway_port, client_id="perfbench") as gw:
        before = server.scrape()
        warm = await served.closed_loop(gw, client, pool, take(10))
        closed = await served.closed_loop(
            gw, client, pool, take(max(1, round(SERVED_PER_SECOND * seconds)))
        )
        batch_queries = [pool[i] for i in take(BATCH_FRAME)]
        batch_matches = await served.batch(gw, client, batch_queries)
        nominal = await served.open_loop(
            gw, client, pool, take(max(1, round(NOMINAL_QPS * seconds * NOMINAL_SHARE))),
            NOMINAL_QPS,
        )
        after_nominal = server.scrape()
        steps = []
        for rate in LADDER_QPS:
            count = max(LADDER_STEP_REQUESTS, int(rate * LADDER_STEP_S))
            step = await served.open_loop(gw, client, pool, take(count), rate)
            steps.append((rate, step))
            if not _step_passes(step, limit_s):
                break
        after = server.scrape()

    passes = (warm, closed, nominal, *(step for _, step in steps))
    return {
        "requests": [q for p in passes for q in p.requests],
        "closed": closed.requests,
        "closed_wall": closed.wall,
        "nominal": nominal.requests,
        "batch_queries": batch_queries,
        "batch_matches": batch_matches,
        "max_qps_at_slo": _ladder_rate(steps, limit_s),
        "shed": _delta(before, after, "repro_gateway_shed_total"),
        "coalesced": _delta(before, after, "repro_gateway_coalesced_total"),
        "cache_hits": _delta(before, after, "repro_star_cache_hits_total"),
        "cache_misses": _delta(before, after, "repro_star_cache_misses_total"),
        "server_p99": after_nominal.get("repro_gateway_seconds_window_p99", 0.0),
        "ladder": [
            (rate, round(percentile([q.latency for q in s.requests], SLO_PERCENTILE) * 1e3, 2))
            for rate, s in steps
        ],
    }


def _delta(before: dict, after: dict, series: str) -> float:
    """Growth of ``series``, summed over its label sets unless it names some."""

    def total(scrape: dict) -> float:
        return sum(
            value
            for key, value in scrape.items()
            if key == series or ("{" not in series and key.startswith(series + "{"))
        )

    return total(after) - total(before)


def _step_passes(step: "served.LoadResult", limit_s: float) -> bool:
    """No failures, p90 within the limit, and no backlog left at the end."""
    latencies = [q.latency for q in step.requests]
    last = latencies[3 * len(latencies) // 4:]
    return (
        step.failures == 0
        and percentile(latencies, SLO_PERCENTILE) <= limit_s
        and percentile(last, 50.0) <= limit_s
    )


def _ladder_rate(steps, limit_s: float) -> float:
    """The highest passing ladder rate, interpolated toward the first failing one.

    When the first failing step failed on latency alone, the rate is
    interpolated linearly in p90 latency between it and the last
    passing step; otherwise it is the last passing rate.
    """
    passed = [(rate, step) for rate, step in steps if _step_passes(step, limit_s)]
    if not passed:
        return 0.0
    rate, step = passed[-1]
    failing = steps[len(passed)] if len(passed) < len(steps) else None
    if failing is None or failing[1].failures:
        return rate
    low = percentile([q.latency for q in step.requests], SLO_PERCENTILE)
    high = percentile([q.latency for q in failing[1].requests], SLO_PERCENTILE)
    if high <= low:
        return rate
    share = min(1.0, max(0.0, (limit_s - low) / (high - low)))
    return rate + (failing[0] - rate) * share
