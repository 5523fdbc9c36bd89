"""The client's per-``G`` filter index: shared across queries, never stale.

A :class:`~repro.core.query_client.QueryClient` builds the filter's
structures over ``G`` (its vertex-id set and the CSR behind the bulk
kernel) once and reuses them for every query.  These tests pin the
three properties that reuse must keep:

* an in-place update of ``G`` — through any :class:`AttributedGraph`
  mutator or through :class:`~repro.kauto.dynamic.DynamicRelease` — is
  seen by the very next query (answers equal the VF2 oracle on the
  mutated ``G``);
* the per-``G`` work runs once per client per version of ``G``
  (counted calls, no timing);
* once the CSR exists, mid-size tables (64-255 rows) take the bulk
  kernel and keep exactly the rows and counters of the tuple loop.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.anonymize import build_lct, cost_based_grouping
from repro.client.filtering import ClientFilter, FilterIndex
from repro.cloud import CloudServer
from repro.cloud.index import GraphCSR
from repro.core.query_client import QueryClient
from repro.graph import (
    AttributedGraph,
    compute_statistics,
    make_schema,
    random_attributed_graph,
)
from repro.kauto import build_k_automorphic_graph
from repro.kauto.dynamic import DynamicRelease
from repro.matching import MatchTable, find_subgraph_matches, match_key, vec

#: ``numpy`` forces the bulk kernel (and so the CSR) on every table;
#: ``flat`` keeps the tuple loop, the only arm of the no-numpy CI leg.
ARMS = ("flat",) + (("numpy",) if vec.HAVE_NUMPY else ())


def oracle(query: AttributedGraph, graph: AttributedGraph) -> list[tuple]:
    return sorted(match_key(m) for m in find_subgraph_matches(query, graph))


def one_label(graph: AttributedGraph, vid: int) -> dict[str, list[str]]:
    """One (attribute, label) pair of ``vid``, as a label map."""
    attr, label = min(graph.vertex(vid).label_items())
    return {attr: [label]}


def path_query(graph: AttributedGraph, a: int, b: int, c: int) -> AttributedGraph:
    """``q0 - q1 - q2`` shaped like the path ``a - b - c`` of ``graph``.

    The end points ask for one of their data vertex's labels, the
    middle for its type only.
    """
    query = AttributedGraph("path")
    query.add_vertex(0, graph.vertex(a).vertex_type, one_label(graph, a))
    query.add_vertex(1, graph.vertex(b).vertex_type)
    query.add_vertex(2, graph.vertex(c).vertex_type, one_label(graph, c))
    query.add_edge(0, 1)
    query.add_edge(1, 2)
    return query


def some_path(graph: AttributedGraph) -> tuple[int, int, int]:
    for b in sorted(graph.vertex_ids()):
        nbrs = sorted(graph.neighbors(b))
        if len(nbrs) >= 2:
            return nbrs[0], b, nbrs[1]
    raise AssertionError("graph has no 2-path")


def client_answer(
    client: QueryClient, query: AttributedGraph, candidates: list[tuple]
) -> list[tuple]:
    """The client's exact answer for an already-expanded candidate set."""
    table = MatchTable.from_matches([dict(key) for key in candidates], (0, 1, 2))
    outcome = client.process_answer(query, table, already_expanded=True)
    return sorted(match_key(m) for m in outcome.matches)


# ----------------------------------------------------------------------
# staleness: every in-place mutation is seen by the next query
# ----------------------------------------------------------------------
def filter_only_client(graph: AttributedGraph) -> QueryClient:
    """A client fed already-expanded candidates: it never touches the
    LCT (no query anonymization) or the AVT (no expansion)."""
    return QueryClient(graph, lct=None, avt=None)  # type: ignore[arg-type]


@pytest.mark.parametrize("arm", ARMS)
def test_in_place_mutations_are_seen_by_the_next_query(small_graph, arm):
    """One client across four mutations of ``G``.

    Each step's candidates are the oracle before *and* after the
    mutation: a stale vertex set or CSR keeps a match the mutation
    killed or drops one it created.
    """
    graph = small_graph.copy()
    a, b, c = some_path(graph)
    query = path_query(graph, a, b, c)
    client = filter_only_client(graph)

    def step(mutate) -> list[tuple]:
        before = oracle(query, graph)
        mutate()
        after = oracle(query, graph)
        candidates = sorted(set(before) | set(after))
        assert client_answer(client, query, candidates) == after
        return after

    with vec.override(arm):
        current = oracle(query, graph)
        assert client_answer(client, query, current) == current

        # remove_edge: the first match loses its q0-q1 edge
        first = dict(current[0])
        after = step(lambda: graph.remove_edge(first[0], first[1]))
        assert current[0] not in after
        assert after, "no match survives to extend"

        # add_vertex + add_edge: a twin of a surviving match's q2 end
        # hangs off its q1
        x, y, z = (dict(after[0])[q] for q in (0, 1, 2))
        twin = max(graph.vertex_ids()) + 1

        def add_twin() -> None:
            data = graph.vertex(z)
            graph.add_vertex(twin, data.vertex_type, data.labels)
            graph.add_edge(y, twin)

        after = step(add_twin)
        assert match_key({0: x, 1: y, 2: twin}) in after

        # set_vertex_labels: every q0 end of a match loses the label
        # the query asks for
        [(wanted_attr, wanted)] = query.vertex(0).label_items()
        ends = sorted({dict(key)[0] for key in after})

        def drop_labels() -> None:
            for vid in ends:
                kept = {
                    attr: values - {wanted} if attr == wanted_attr else values
                    for attr, values in graph.vertex(vid).labels.items()
                }
                graph.set_vertex_labels(vid, kept)

        assert step(drop_labels) == []

        # ids past the dense-LUT bound make G ineligible for a CSR: the
        # index must notice and fall back to the tuple loop
        far = vec.DENSE_LUT_LIMIT
        q0, q2 = query.vertex(0), query.vertex(2)

        def add_far_path() -> None:
            graph.add_vertex(far, q0.vertex_type, q0.labels)
            graph.add_vertex(far + 1, q2.vertex_type, q2.labels)
            graph.add_edge(far, y)
            graph.add_edge(y, far + 1)

        after = step(add_far_path)
        assert match_key({0: far, 1: y, 2: far + 1}) in after


def _release(seed: int) -> DynamicRelease:
    schema = make_schema(3, 2, 6)
    graph = random_attributed_graph(schema, 48, edges_per_vertex=2, seed=seed)
    lct = build_lct(
        schema, 2, cost_based_grouping, graph_stats=compute_statistics(graph), seed=2
    )
    transform = build_k_automorphic_graph(lct.apply_to_graph(graph), 2, seed=1)
    return DynamicRelease(graph, transform, lct)


def _released_answer(
    release: DynamicRelease, client: QueryClient, query: AttributedGraph
) -> list[tuple]:
    """Full round trip against a cloud serving the current ``Go``."""
    outsourced = release.refresh_outsourced()
    cloud = CloudServer(outsourced.graph, release.avt, outsourced.block_vertices)
    answer = cloud.answer(client.prepare_query(query))
    outcome = client.process_answer(query, answer.results, answer.expanded)
    return sorted(match_key(m) for m in outcome.matches)


@pytest.mark.parametrize("arm", ARMS)
def test_dynamic_release_updates_are_seen_by_the_next_query(arm):
    """``DynamicRelease`` mutates the client's ``G`` in place."""
    release = _release(seed=5)
    graph = release.original
    client = QueryClient(graph, release.lct, release.avt)
    # a non-edge (u, v): a one-edge query shaped like it has no match
    # through that pair until insert_edge adds it
    u, v = next(
        (u, v)
        for u in sorted(graph.vertex_ids())
        for v in sorted(graph.vertex_ids())
        if u < v and not graph.has_edge(u, v)
    )
    query = AttributedGraph("edge")
    query.add_vertex(0, graph.vertex(u).vertex_type, one_label(graph, u))
    query.add_vertex(1, graph.vertex(v).vertex_type, one_label(graph, v))
    query.add_edge(0, 1)

    with vec.override(arm):
        assert _released_answer(release, client, query) == oracle(query, graph)

        release.insert_edge(u, v)
        after = oracle(query, graph)
        assert match_key({0: u, 1: v}) in after
        assert _released_answer(release, client, query) == after

        new = release.allocate_vertex_id()
        data = graph.vertex(v)
        release.insert_vertex(new, data.vertex_type, data.labels)
        release.insert_edge(u, new)
        # insert_vertex appends an AVT row (a new table object): hand
        # it to the client like it is handed to the cloud
        client.avt = release.avt
        after = oracle(query, graph)
        assert match_key({0: u, 1: new}) in after
        assert _released_answer(release, client, query) == after

        release.delete_edge(u, v)
        after = oracle(query, graph)
        assert match_key({0: u, 1: v}) not in after
        assert _released_answer(release, client, query) == after


# ----------------------------------------------------------------------
# amortization guard: per-G work once per client per version of G
# ----------------------------------------------------------------------
@pytest.mark.parametrize("arm", ARMS)
def test_per_graph_work_runs_once_per_version(small_graph, monkeypatch, arm):
    graph = small_graph.copy()
    a, b, c = some_path(graph)
    query = path_query(graph, a, b, c)
    candidates = oracle(query, graph)
    client = filter_only_client(graph)

    calls = {"build": 0, "vertex_id_set": 0}
    build = GraphCSR.build.__func__
    vertex_id_set = AttributedGraph.vertex_id_set

    def counting_build(cls, g):
        calls["build"] += 1
        return build(cls, g)

    def counting_vertex_id_set(self):
        calls["vertex_id_set"] += 1
        return vertex_id_set(self)

    monkeypatch.setattr(GraphCSR, "build", classmethod(counting_build))
    monkeypatch.setattr(AttributedGraph, "vertex_id_set", counting_vertex_id_set)
    builds = 1 if arm == "numpy" else 0

    with vec.override(arm):
        for _ in range(20):
            assert client_answer(client, query, candidates) == candidates
        assert calls == {"build": builds, "vertex_id_set": 1}

        graph.remove_edge(a, b)
        expected = oracle(query, graph)
        for _ in range(20):
            assert client_answer(client, query, candidates) == expected
        assert calls == {"build": 2 * builds, "vertex_id_set": 2}


def test_filter_index_is_bound_to_its_graph(small_graph):
    with pytest.raises(ValueError):
        ClientFilter(small_graph.copy(), small_graph, index=FilterIndex(small_graph))


# ----------------------------------------------------------------------
# mid-size tables take the bulk kernel once the CSR exists
# ----------------------------------------------------------------------
def _candidate_rows(
    graph: AttributedGraph, query: AttributedGraph, n_rows: int, seed: int
) -> list[tuple]:
    """Rows hitting every drop reason: label-only misses (matches of
    the type-only query), plus copies with one id swapped for a random
    (possibly unknown or negative) one."""
    relaxed = AttributedGraph("types")
    for q in query.vertex_ids():
        relaxed.add_vertex(q, query.vertex(q).vertex_type)
    for q1, q2 in query.edges():
        relaxed.add_edge(q1, q2)
    rng = random.Random(seed)
    base = [
        tuple(m[q] for q in (0, 1, 2))
        for m in find_subgraph_matches(relaxed, graph, limit=4 * n_rows)
    ]
    rng.shuffle(base)
    top = max(graph.vertex_ids())
    rows: list[tuple] = []
    while len(rows) < n_rows:
        if base and rng.random() < 0.6:
            rows.append(base[len(rows) % len(base)])
            continue
        row = list(base[rng.randrange(len(base))]) if base else [0, 0, 0]
        row[rng.randrange(3)] = rng.randint(-2, top + 3)
        rows.append(tuple(row))
    return rows


@pytest.mark.skipif(not vec.HAVE_NUMPY, reason="the bulk kernel needs numpy")
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(20, 120),
    n_rows=st.integers(64, 255),
    limit=st.sampled_from([None, 0, 1]) | st.integers(2, 300),
)
def test_mid_size_tables_take_the_bulk_kernel(seed, n, n_rows, limit):
    graph = random_attributed_graph(
        make_schema(2, 1, 4), n, edges_per_vertex=2, seed=seed
    )
    query = path_query(graph, *some_path(graph))
    table = MatchTable((0, 1, 2), _candidate_rows(graph, query, n_rows, seed))

    index = FilterIndex(graph)
    assert index.csr() is not None
    bulk_filter = ClientFilter(graph, query, index=index)
    bulk_calls = []
    kernel = bulk_filter._filter_columns

    def spy(*args):
        bulk_calls.append(1)
        return kernel(*args)

    bulk_filter._filter_columns = spy  # type: ignore[method-assign]
    got = bulk_filter.filter_table(table, limit=limit)
    assert bulk_calls, "a mid-size table skipped the bulk kernel"

    with vec.override("flat"):
        want = ClientFilter(graph, query).filter_table(table, limit=limit)
    assert got.table.rows == want.table.rows
    assert got.candidates == want.candidates == n_rows
    assert (got.dropped_vertex, got.dropped_edge, got.dropped_label) == (
        want.dropped_vertex,
        want.dropped_edge,
        want.dropped_label,
    )
