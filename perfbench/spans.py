"""Spans recorded around the calls into each layer, from outside ``src/``.

:class:`LayerTracer` replaces a layer's public entry function, at the
module or class its caller looks it up in, with a wrapper that records
one span per call (name, start, end, parent span, query id) plus a few
counts read off the arguments and result.  Spans stay in memory and are
written out once, at the end of the run.  :meth:`LayerTracer.restore`
puts every original back, so untraced passes run the program as is.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import repro.cloud.server as cloud_server
import repro.core.data_owner as data_owner
import repro.core.query_client as query_client
import repro.core.system as system
from repro.client.filtering import ClientFilter
from repro.cloud.index import CloudIndex
from repro.core.query_client import QueryClient
from repro.kauto import build_k_automorphic_graph

#: the module whose globals ``build_k_automorphic_graph`` calls its phases through
kauto = sys.modules[build_k_automorphic_graph.__module__]

Counts = Callable[[tuple, Any], dict[str, float]]


def _payload_bytes(args: tuple, result: Any) -> dict[str, float]:
    return {"bytes": len(result)}


def _stars(args: tuple, result: Any) -> dict[str, float]:
    return {"stars": len(result.stars)}


def _star_rows(args: tuple, result: Any) -> dict[str, float]:
    return {"calls": 1, "rows": len(result)}


def _rin_rows(args: tuple, result: Any) -> dict[str, float]:
    return {"rows": len(result[0])}


def _candidates(args: tuple, result: Any) -> dict[str, float]:
    return {"rows": len(result.table)}


def _filtered(args: tuple, result: Any) -> dict[str, float]:
    return {"candidates": len(args[1]), "results": len(result.table)}


#: (owner, attribute, span name, counts) for every traced entry point.
#: Owners are the modules and classes the callers look the names up in.
LAYERS: list[tuple[Any, str, str, Counts | None]] = [
    (data_owner.DataOwner, "build_lct", "publish.lct", None),
    (kauto, "partition_graph", "kauto.partition", None),
    (kauto, "validate_partition", "kauto.partition", None),
    (kauto, "balance_types", "kauto.partition", None),
    (kauto, "build_avt", "kauto.alignment", None),
    (kauto, "align_blocks", "kauto.alignment", None),
    (kauto, "copy_crossing_edges", "kauto.edge_copy", None),
    (data_owner, "build_outsourced_graph", "outsource.build", None),
    (system, "encode_upload", "protocol.upload", None),
    (system, "decode_upload", "protocol.upload", None),
    (CloudIndex, "build", "cloud.index_build", None),
    (QueryClient, "prepare_query", "client.anonymize", None),
    (system, "encode_query", "protocol.query", _payload_bytes),
    (system, "decode_query", "protocol.query", None),
    (cloud_server, "decompose_query", "cloud.decompose", _stars),
    (cloud_server, "match_star_table", "cloud.star_match", _star_rows),
    (cloud_server, "join_star_tables", "cloud.join", _rin_rows),
    (system, "encode_answer_table", "protocol.answer", _payload_bytes),
    (system, "decode_answer_table", "protocol.answer", None),
    (query_client, "expand_rin_table", "client.expand", _candidates),
    (ClientFilter, "filter_table", "client.filter", _filtered),
]

#: the benchmark's own span around one query; its self time is unattributed.
ROOT = "query"


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    query_id: int | None
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class LayerTracer:
    """Install, record and summarize the layer spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._originals: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def _state(self) -> tuple[list[Span], Any]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.query_id = None
        return local.stack, local

    @contextmanager
    def record(self, name: str, query_id: int | None = None) -> Iterator[Span]:
        """One span named ``name`` on this thread's stack.

        A ``query_id`` opens a query: every span beneath it carries the id.
        """
        stack, local = self._state()
        if query_id is not None:
            local.query_id = query_id
        span = Span(
            span_id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=stack[-1].span_id if stack else None,
            query_id=local.query_id,
        )
        self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if query_id is not None:
                local.query_id = None

    def _wrap(self, name: str, fn: Callable, counts: Counts | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.record(name) as span:
                result = fn(*args, **kwargs)
                if counts is not None:
                    span.counts.update(counts(args, result))
            return result

        return traced

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        if self._originals:
            return
        for owner, attr, name, counts in LAYERS:
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = staticmethod(self._wrap(name, getattr(owner, attr), counts))
            else:
                replacement = self._wrap(name, raw, counts)
            self._originals.append((owner, attr, raw))
            setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals.clear()

    # -- summaries -------------------------------------------------------
    def self_seconds(self, spans: list[Span] | None = None) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        spans = self.spans if spans is None else spans
        child_time: dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        totals: dict[str, float] = defaultdict(float)
        for span in spans:
            totals[span.name] += span.duration - child_time[span.span_id]
        return dict(totals)

    def counts(self, spans: list[Span] | None = None) -> dict[str, dict[str, float]]:
        spans = self.spans if spans is None else spans
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in spans:
            for key, value in span.counts.items():
                totals[span.name][key] += value
        return totals

    def per_query(self, name: str, key: str) -> list[float]:
        """One value per traced query: the sum of ``key`` over its ``name`` spans."""
        by_query: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.query_id is not None and span.name == name:
                by_query[span.query_id] += span.counts.get(key, 0.0)
        return list(by_query.values())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "id": s.span_id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "query": s.query_id,
                **({"counts": s.counts} if s.counts else {}),
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(rows, separators=(",", ":")), encoding="utf-8")
