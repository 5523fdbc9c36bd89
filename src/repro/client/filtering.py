"""Client-side false-positive filtering (Lines 6-23 of Algorithm 3).

The candidate set ``R(Qo, Gk)`` over-approximates ``R(Q, G)`` in three
ways, each removed by one hash-backed check:

1. a match may use a noise vertex absent from ``G``;
2. a match may use a noise edge absent from ``G``;
3. a match may rely on generalized labels — the data vertex carries the
   right label *group* but not the exact label the original query ``Q``
   asked for.

All checks are O(1) per vertex/edge, so the client's work is linear in
the number of candidate matches — the property that makes outsourcing
worthwhile (Section 2.3).  The structures over ``G`` those checks need
(its vertex-id set, and the CSR behind the bulk kernel) live in a
:class:`FilterIndex` that a client builds once and shares across
queries, so no query pays work linear in ``|G|``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.analysis.markers import hot_path
from repro.cloud.index import GraphCSR
from repro.graph.attributed import AttributedGraph, VertexData
from repro.matching import vec
from repro.matching.match import Match
from repro.matching.table import MatchTable, Row


@dataclass
class FilterResult:
    matches: list[Match]
    seconds: float
    candidates: int
    dropped_vertex: int = 0
    dropped_edge: int = 0
    dropped_label: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_vertex + self.dropped_edge + self.dropped_label


@dataclass
class TableFilterResult:
    """Columnar counterpart of :class:`FilterResult`."""

    table: MatchTable
    seconds: float
    candidates: int
    dropped_vertex: int = 0
    dropped_edge: int = 0
    dropped_label: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_vertex + self.dropped_edge + self.dropped_label


#: ``_IndexState.csr`` before the first bulk scan asks for it.
_UNBUILT = object()


class _IndexState:
    """Filter structures for one version of ``G``."""

    __slots__ = ("version", "vertex_set", "csr")

    def __init__(self, graph: AttributedGraph) -> None:
        self.version = graph.version
        self.vertex_set = graph.vertex_id_set()
        # the CSR of G (None = ineligible), built on the first bulk
        # scan: written only under FilterIndex._lock
        self.csr: object = _UNBUILT


class FilterIndex:
    """The per-``G`` half of the client filter, shared across queries.

    Holds ``G``'s vertex-id set and the lazily built
    :class:`~repro.cloud.index.GraphCSR` of ``G`` (or the verdict that
    ``G`` is ineligible for one).  Both are rebuilt when
    :attr:`AttributedGraph.version` moves, so an in-place update of
    ``G`` is seen by the next query.  Thread-safe: concurrent queries
    of one client build the CSR at most once per version.
    """

    def __init__(self, graph: AttributedGraph) -> None:
        self.graph = graph
        self._lock = threading.Lock()
        self._state: _IndexState | None = None  #: guarded by _lock

    def _current(self) -> _IndexState:
        """The state for ``G`` as it is now (rebuilt if ``G`` changed)."""
        version = self.graph.version
        with self._lock:
            state = self._state
            if state is None or state.version != version:
                state = self._state = _IndexState(self.graph)
            return state

    def vertex_set(self) -> set[int]:
        """``V(G)`` as a set (shared: callers must not mutate it)."""
        return self._current().vertex_set

    def csr_built(self) -> bool:
        """Whether the CSR of the current ``G`` is already built."""
        return isinstance(self._current().csr, GraphCSR)

    def csr(self) -> GraphCSR | None:
        """The CSR of the current ``G`` (built on first use), or ``None``
        when ``G`` is ineligible for one."""
        state = self._current()
        csr = state.csr
        if csr is _UNBUILT:
            with self._lock:
                # double check: another query may have built it while
                # this one waited for the lock
                csr = state.csr
                if csr is _UNBUILT:
                    csr = state.csr = GraphCSR.build(self.graph)
        return csr if isinstance(csr, GraphCSR) else None


class ClientFilter:
    """Hash structures over the original ``G`` and ``Q`` for one query.

    ``index`` carries the per-``G`` structures; a client passes the
    same :class:`FilterIndex` to every query's filter.  Without one the
    filter builds a private index (the one-shot case).
    """

    def __init__(
        self,
        original_graph: AttributedGraph,
        original_query: AttributedGraph,
        index: FilterIndex | None = None,
    ) -> None:
        if index is None:
            index = FilterIndex(original_graph)
        elif index.graph is not original_graph:
            raise ValueError("filter index was built over a different graph")
        self.graph = original_graph
        self.query = original_query
        self.index = index
        self._query_edges = list(original_query.edges())

    def _bulk_pays_off(self, n_rows: int) -> bool:
        """Whether the bulk kernel amortizes its CSR build for ``n_rows``.

        The CSR of ``G`` lives in the shared :class:`FilterIndex`, so
        once any query of the client built it, every later vectorizable
        table takes the bulk kernel.  Before that, building the O(V+E)
        CSR only pays when the candidate table is large relative to the
        graph; a selective workload stays on the tuple scan and never
        builds it.  The pinned-numpy test mode skips the cost model.
        """
        if vec.mode() == "numpy" or self.index.csr_built():
            return True
        return n_rows >= 256 and n_rows * 4 >= self.graph.vertex_count

    def filter(self, candidates: list[Match], limit: int | None = None) -> FilterResult:
        """Keep exactly the candidates that are matches of Q over G.

        ``limit`` stops the scan once that many true matches are found
        (top-``limit`` queries pay for only part of the candidate set).
        """
        started = time.perf_counter()
        graph = self.graph
        query = self.query
        vertex_set = self.index.vertex_set()
        kept: list[Match] = []
        dropped_vertex = dropped_edge = dropped_label = 0

        for match in candidates:
            if limit is not None and len(kept) >= limit:
                break
            # Lines 9-12: every matched vertex must exist in G.
            if any(v not in vertex_set for v in match.values()):
                dropped_vertex += 1
                continue
            # Lines 15-18: every query edge must exist in G.
            if any(
                not graph.has_edge(match[q1], match[q2])
                for q1, q2 in self._query_edges
            ):
                dropped_edge += 1
                continue
            # Lines 21-22: exact (raw) label containment against Q.
            if any(
                not query.vertex(q).matches(graph.vertex(v))
                for q, v in match.items()
            ):
                dropped_label += 1
                continue
            kept.append(match)

        return FilterResult(
            matches=kept,
            seconds=time.perf_counter() - started,
            candidates=len(candidates),
            dropped_vertex=dropped_vertex,
            dropped_edge=dropped_edge,
            dropped_label=dropped_label,
        )

    @hot_path
    def filter_table(
        self, candidates: MatchTable, limit: int | None = None
    ) -> TableFilterResult:
        """Columnar Lines 6-23: scan rows with positional checks.

        The query's edges become precomputed ``(column, column)`` index
        pairs, and the exact-label containment per column is memoized
        across rows (label groups revisit the same data vertices), so
        the per-row work is a membership test per value, a ``has_edge``
        per query edge, and a dict hit per column.  Kept rows — and the
        three drop counters — are identical to :meth:`filter` on the
        dict form of the same table, with the same drop priority
        (vertex, then edge, then label).
        """
        started = time.perf_counter()
        graph = self.graph
        query = self.query
        vertex_set = self.index.vertex_set()
        has_edge = graph.has_edge
        data_vertex = graph.vertex
        column_of = candidates.column_of
        edge_pairs = [
            (column_of(q1), column_of(q2)) for q1, q2 in self._query_edges
        ]
        query_vertices = [query.vertex(q) for q in candidates.schema]

        if vec.vectorize(len(candidates)) and self._bulk_pays_off(
            len(candidates)
        ):
            bulk = self._filter_columns(
                candidates, edge_pairs, query_vertices, limit
            )
            if bulk is not None:
                table, dropped_vertex, dropped_edge, dropped_label = bulk
                return TableFilterResult(
                    table=table,
                    seconds=time.perf_counter() - started,
                    candidates=len(candidates),
                    dropped_vertex=dropped_vertex,
                    dropped_edge=dropped_edge,
                    dropped_label=dropped_label,
                )

        # (column, query vertex, memo) per schema column: the label
        # check depends only on (query vertex, data vertex), never on
        # the row, so it is cached across the whole scan.
        label_checks: list[tuple[int, VertexData, dict[int, bool]]] = [
            (i, qv, {}) for i, qv in enumerate(query_vertices)
        ]

        kept: list[Row] = []
        append = kept.append
        dropped_vertex = dropped_edge = dropped_label = 0

        candidate_rows = candidates.rows
        for row in candidate_rows:
            if limit is not None and len(kept) >= limit:
                break
            # Lines 9-12: every matched vertex must exist in G.
            ok = True
            for v in row:
                if v not in vertex_set:
                    ok = False
                    break
            if not ok:
                dropped_vertex += 1
                continue
            # Lines 15-18: every query edge must exist in G.
            for c1, c2 in edge_pairs:
                if not has_edge(row[c1], row[c2]):
                    ok = False
                    break
            if not ok:
                dropped_edge += 1
                continue
            # Lines 21-22: exact (raw) label containment against Q.
            for i, query_vertex, memo in label_checks:
                v = row[i]
                hit = memo.get(v)
                if hit is None:
                    hit = query_vertex.matches(data_vertex(v))
                    memo[v] = hit
                if not hit:
                    ok = False
                    break
            if not ok:
                dropped_label += 1
                continue
            append(row)

        return TableFilterResult(
            table=MatchTable(candidates.schema, kept),
            seconds=time.perf_counter() - started,
            candidates=len(candidates),
            dropped_vertex=dropped_vertex,
            dropped_edge=dropped_edge,
            dropped_label=dropped_label,
        )

    @hot_path
    def _filter_columns(
        self,
        candidates: MatchTable,
        edge_pairs: list[tuple[int, int]],
        query_vertices: list[VertexData],
        limit: int | None,
    ) -> tuple[MatchTable, int, int, int] | None:
        """The bulk column kernel behind :meth:`filter_table`.

        Each of the three checks becomes one boolean mask over all
        rows: vertex existence is a bounds-guarded flag gather, the
        edge checks are packed-key membership tests against the CSR's
        sorted edge array, and the exact-label check is a sorted-
        membership test against each query vertex's precomputed
        candidate-id array.  Drop counters come from priority-masked
        combinations (vertex, then edge, then label) and ``limit``
        truncates the scan at the row that produced the limit-th keep
        — exactly the rows the tuple loop would have visited.  Returns
        ``None`` when the CSR or the flat columns are unavailable.
        """
        csr = self.index.csr()
        if csr is None or not candidates.schema:
            return None
        cols_raw = candidates.as_columns()
        if cols_raw is None:
            return None
        np = vec.np
        cols = [vec.as_ndarray(col) for col in cols_raw]

        vflags = csr.vertex_flags()
        vert_ok = vec.bounded_flags(vflags, cols[0])
        for col in cols[1:]:
            vert_ok &= vec.bounded_flags(vflags, col)

        edge_ok = np.ones(len(candidates), dtype=bool)
        for c1, c2 in edge_pairs:
            edge_ok &= csr.edge_flags(cols[c1], cols[c2])

        label_ok = np.ones(len(candidates), dtype=bool)
        for col, query_vertex in zip(cols, query_vertices):
            label_ok &= vec.isin_sorted(
                col, csr.candidate_array(query_vertex)
            )

        passes = vert_ok & edge_ok & label_ok
        prefix = len(passes)
        if limit is not None:
            # the tuple loop stops *after* the row producing the
            # limit-th keep: rows past it contribute to no counter
            if limit <= 0:
                prefix = 0
            else:
                hits = np.flatnonzero(passes)
                if len(hits) >= limit:
                    prefix = int(hits[limit - 1]) + 1
        if prefix < len(passes):
            vert_ok = vert_ok[:prefix]
            edge_ok = edge_ok[:prefix]
            label_ok = label_ok[:prefix]
            passes = passes[:prefix]
        dropped_vertex = int((~vert_ok).sum())
        dropped_edge = int((vert_ok & ~edge_ok).sum())
        dropped_label = int((vert_ok & edge_ok & ~label_ok).sum())
        kept_cols = [col[:prefix][passes] for col in cols]
        table = MatchTable.from_columns(
            candidates.schema, kept_cols, int(passes.sum())
        )
        return table, dropped_vertex, dropped_edge, dropped_label


def filter_candidates(
    candidates: list[Match],
    original_graph: AttributedGraph,
    original_query: AttributedGraph,
) -> FilterResult:
    """One-shot convenience wrapper around :class:`ClientFilter`."""
    return ClientFilter(original_graph, original_query).filter(candidates)
