"""Workload inputs: the fixed data graphs and the seeded query streams.

Each workload publishes one fixed dataset analogue (the generator's own
default graph seed, so the deployment and its set-up cost are the same
for every ``--seed``), and asks a fixed reference list of distinct
queries drawn once from ``REFERENCE_SEED``.  The ``--seed`` renumbers
every query's vertices and orders the list (and, on ``gateway``, draws
the Zipf-popular request sequence); the program receives only these
generated inputs.

Query cost is heavy-tailed: one labelled 8-edge query in about two
thousand takes 200 times the median, and type-only query classes differ
by a factor of a hundred.  Drawing the queries independently per seed
made a run's total work swing by a third or more between seeds, so the
list is fixed and every run carries the same share of such queries.
"""

from __future__ import annotations

import itertools
import random
import warnings
from dataclasses import dataclass

import networkx as nx

from repro.core.config import SystemConfig
from repro.exceptions import QueryError
from repro.graph.attributed import AttributedGraph
from repro.graph.schema import GraphSchema
from repro.workloads.datasets import dbpedia_like
from repro.workloads.queries import random_walk_query

#: dataset seed of every workload: ``dbpedia_like``'s own default.
GRAPH_SEED = 1
#: the EFF grouping's sample workload is drawn from this seed.
SAMPLE_SEED = 7
SAMPLE_QUERIES = 10
#: the stream every workload's reference queries are drawn from.
REFERENCE_SEED = 11


def system_config() -> SystemConfig:
    """The deployment every workload serves (Section 6's EFF, k=3)."""
    return SystemConfig(k=3, method="EFF", theta=2)


@dataclass(frozen=True)
class QuerySpec:
    """How a workload draws its queries from the data graph."""

    edge_counts: tuple[int, ...]
    keep_label_probability: float
    #: distinct up to isomorphism (type-only queries), not just as graphs.
    by_class: bool = False


SELECTIVE_QUERIES = QuerySpec(edge_counts=(4, 6, 8), keep_label_probability=1.0)
DENSE_QUERIES = QuerySpec(edge_counts=(3,), keep_label_probability=0.0, by_class=True)


class _SortedEdgesView:
    """The data graph with its edge list sorted once.

    ``random_walk_query`` sorts ``graph.edges()`` on every call; over a
    32,000-edge graph that dominates query generation.  Handing it a
    pre-sorted list yields the identical query for the same seed.
    """

    def __init__(self, graph: AttributedGraph) -> None:
        self._graph = graph
        self._edges = sorted(graph.edges())
        self.edge_count = graph.edge_count

    def edges(self) -> list[tuple[int, int]]:
        return self._edges

    def __getattr__(self, name: str):
        return getattr(self._graph, name)


def exact_key(query: AttributedGraph) -> tuple:
    """Identity of a query graph: vertices with type and labels, edges."""
    vertices = tuple(
        (
            vid,
            query.vertex(vid).vertex_type,
            tuple(sorted((a, tuple(sorted(v))) for a, v in query.vertex(vid).labels.items())),
        )
        for vid in sorted(query.vertex_ids())
    )
    return vertices, tuple(sorted(query.edges()))


class QueryStream:
    """Distinct random-walk queries, drawn lazily from one seed."""

    def __init__(self, graph: AttributedGraph, spec: QuerySpec, seed: int) -> None:
        self._view = _SortedEdgesView(graph)
        self._spec = spec
        self._rng = random.Random(seed)
        self._seen: set[tuple] = set()
        self._drawn = 0

    def take(self, count: int) -> list[AttributedGraph]:
        out: list[AttributedGraph] = []
        while len(out) < count:
            edges = self._spec.edge_counts[self._drawn % len(self._spec.edge_counts)]
            try:
                query = random_walk_query(
                    self._view,
                    edges,
                    seed=self._rng.randrange(1 << 31),
                    keep_label_probability=self._spec.keep_label_probability,
                )
            except QueryError:
                continue
            key = exact_key(query)
            if key in self._seen:
                continue
            self._seen.add(key)
            self._drawn += 1
            out.append(query)
        return out


def class_key(query: AttributedGraph) -> tuple:
    """Canonical form of a type-only query: structure and types up to isomorphism."""
    vertices = sorted(query.vertex_ids())
    best = None
    for order in itertools.permutations(range(len(vertices))):
        position = {vid: order[i] for i, vid in enumerate(vertices)}
        types = [""] * len(vertices)
        for vid in vertices:
            types[position[vid]] = query.vertex(vid).vertex_type
        edges = sorted(tuple(sorted((position[u], position[v]))) for u, v in query.edges())
        key = (tuple(types), tuple(edges))
        if best is None or key < best:
            best = key
    return best


def renumbered(query: AttributedGraph, rng: random.Random) -> AttributedGraph:
    """An isomorphic copy of ``query`` with its vertex ids permuted."""
    vertices = sorted(query.vertex_ids())
    shuffled = vertices[:]
    rng.shuffle(shuffled)
    return query.relabeled(dict(zip(vertices, shuffled)), name=query.name)


def reference_queries(graph: AttributedGraph, spec: QuerySpec, count: int) -> list[AttributedGraph]:
    """The first ``count`` distinct queries of the ``REFERENCE_SEED`` stream."""
    stream = QueryStream(graph, spec, REFERENCE_SEED)
    if not spec.by_class:
        return stream.take(count)
    classes: dict[tuple, AttributedGraph] = {}
    while len(classes) < count:
        for query in stream.take(count - len(classes)):
            classes.setdefault(class_key(query), query)
    return list(classes.values())


class FixedStream:
    """The reference queries, renumbered and shuffled by ``seed`` each round.

    ``origin`` maps each copy handed out (by ``id``) to its reference index.
    """

    def __init__(self, reference: list[AttributedGraph], seed: int) -> None:
        self._reference = reference
        self._rng = random.Random(seed)
        self._pending: list[tuple[int, AttributedGraph]] = []
        self.origin: dict[int, int] = {}

    def take(self, count: int) -> list[AttributedGraph]:
        out: list[AttributedGraph] = []
        while len(out) < count:
            if not self._pending:
                self._pending = [
                    (i, renumbered(q, self._rng)) for i, q in enumerate(self._reference)
                ]
                self._rng.shuffle(self._pending)
            index, query = self._pending.pop()
            self.origin[id(query)] = index
            out.append(query)
        return out


def sample_workload(graph: AttributedGraph) -> list[AttributedGraph]:
    return QueryStream(graph, SELECTIVE_QUERIES, SAMPLE_SEED).take(SAMPLE_QUERIES)


def dataset(scale: float) -> tuple[AttributedGraph, GraphSchema]:
    data = dbpedia_like(scale=scale, seed=GRAPH_SEED)
    return data.graph, data.schema


def zipf_pool(
    graph: AttributedGraph, spec: QuerySpec, size: int, seed: int, count: int, skew: float = 0.8
) -> tuple[list[AttributedGraph], list[int]]:
    """The reference queries renumbered by ``seed``, and ``count`` draws of them.

    The ``i``-th reference query has popularity rank ``i``: Zipf(``skew``).
    """
    rng = random.Random(seed)
    pool = [renumbered(q, rng) for q in reference_queries(graph, spec, size)]
    weights = [1.0 / (rank + 1) ** skew for rank in range(len(pool))]
    return pool, rng.choices(range(len(pool)), weights=weights, k=count)


def repeat_fractions(queries: list[AttributedGraph]) -> dict[str, float]:
    """Share of queries that repeat an earlier one, exactly and by shape.

    The shape is the unlabelled query structure up to isomorphism (what
    a plan cache would key on): a Weisfeiler-Lehman hash buckets the
    candidates and ``networkx.is_isomorphic`` confirms each repeat.
    """
    exact: set[tuple] = set()
    shapes: dict[str, list[nx.Graph]] = {}
    exact_repeats = shape_repeats = 0
    for query in queries:
        key = exact_key(query)
        if key in exact:
            exact_repeats += 1
        exact.add(key)
        shape = nx.Graph(list(query.edges()))
        with warnings.catch_warnings():
            # networkx 3.5 changed these hashes; only equality within a run matters
            warnings.simplefilter("ignore", UserWarning)
            digest = nx.weisfeiler_lehman_graph_hash(shape)
        bucket = shapes.setdefault(digest, [])
        if any(nx.is_isomorphic(shape, seen) for seen in bucket):
            shape_repeats += 1
        else:
            bucket.append(shape)
    total = max(1, len(queries))
    return {
        "workload.exact_repeat_frac": exact_repeats / total,
        "workload.shape_repeat_frac": shape_repeats / total,
    }


def canonical(matches) -> frozenset:
    """A match list as a set of sorted ``(query vertex, data vertex)`` tuples."""
    return frozenset(tuple(sorted(match.items())) for match in matches)
