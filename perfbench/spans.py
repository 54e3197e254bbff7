"""Outside-in layer tracing for the traced benchmark run.

The benchmark wraps each layer's public function from its own files —
replacing the class attribute, or the name the engine imported — so the
program itself is not edited.  Wrappers are installed only for the
traced run and removed afterwards.  Each wrapped call inside a turn
records a span ``[name, start_ns, end_ns, parent, turn]`` in memory; the
turn's root span is the benchmark's own call to ``CDAEngine.ask``.

A span's self time is its duration minus the union of its children's
intervals, so the self times of one turn's spans sum to the root's
duration: the root's own self time is the engine time no wrapped layer
accounts for (``core.engine.ask.unattributed``).
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

ROOT = "core.engine.ask"


class SpanLog:
    """Spans of the traced turns, kept in memory until the run ends."""

    def __init__(self) -> None:
        #: One ``[name, start_ns, end_ns, parent_index, turn]`` per span;
        #: the root of a turn has parent -1.
        self.spans: list[list] = []
        #: Counts the layer hooks record (lookup hits, rows scanned, ...).
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._turn = -1

    def begin_turn(self, turn: int) -> None:
        self._turn = turn
        self._stack.append(len(self.spans))
        self.spans.append([ROOT, perf_counter_ns(), 0, -1, turn])

    def end_turn(self) -> list:
        root = self.spans[self._stack.pop()]
        root[2] = perf_counter_ns()
        self._stack.clear()
        return root

    def wrap(self, name: str, fn: Callable, hook: "Hook | None" = None) -> Callable:
        """``fn`` recording a span named ``name`` when called inside a turn.

        A call made while a span of the same name is innermost (one
        layer entry point delegating to another, e.g. ``execute`` to
        ``execute_select``) records no second span.
        """
        log = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = log._stack
            if not stack or log.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            state = hook.before(args) if hook is not None else None
            record = [name, perf_counter_ns(), 0, stack[-1], log._turn]
            stack.append(len(log.spans))
            log.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook.after(log.counts, args, result, state)
            return result

        return traced

    def dump(self, path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, separators=(",", ":")))
                handle.write("\n")


# -- self time -------------------------------------------------------------------


def covered_ns(intervals: list[tuple[int, int]], start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0
    reach = start
    for low, high in sorted(intervals):
        low = max(low, reach)
        high = min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans: list[list]) -> list[int]:
    """Per span: its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for record in spans:
        parent = record[3]
        if parent >= 0:
            children[parent].append((record[1], record[2]))
    return [
        (end - start) - covered_ns(children[index], start, end)
        for index, (_name, start, end, _parent, _turn) in enumerate(spans)
    ]


@dataclass
class LayerTotals:
    """Calls and summed self time of one span name."""

    calls: int = 0
    self_ns: int = 0


def layer_totals(spans: list[list]) -> dict[str, LayerTotals]:
    """Roll the spans up by name (the root included, under ``ROOT``)."""
    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for record, self_ns in zip(spans, self_times(spans)):
        entry = totals[record[0]]
        entry.calls += 1
        entry.self_ns += self_ns
    return dict(totals)


# -- the layers ------------------------------------------------------------------


@dataclass
class Hook:
    """Counts taken around one wrapped call."""

    before: Callable = lambda args: None
    after: Callable = lambda counts, args, result, state: None


@dataclass
class Layer:
    """One layer function and the attributes it is reached through."""

    name: str
    targets: list[tuple[object, str]]
    hook: Hook | None = None


def _count_lookup(counts, args, result, state):
    counts["kg.vocabulary.lookup.hits"] += result is not None


def _count_rows(counts, args, result, state):
    counts["sqldb.database.rows_scanned"] += result.scanned_rows
    counts["sqldb.database.rows_returned"] += len(result.rows)


def _cache_hits(args):
    cache = args[0].database.cache
    return cache.stats.hits if cache is not None else 0


def _count_cache_served(counts, args, result, state):
    counts["soundness.verifier.cache_served"] += _cache_hits(args) > state


def layers() -> list[Layer]:
    """Every layer function the traced run wraps, by layer name."""
    from repro.core import engine
    from repro.core.session import Session
    from repro.guidance.clarification import ClarificationPolicy
    from repro.guidance.suggestions import SuggestionEngine
    from repro.kg.vocabulary import DomainVocabulary
    from repro.nl.constrained import SQLValidator
    from repro.nl.llmsim import SimulatedLLM
    from repro.nl.nl2sql import GroundedSemanticParser
    from repro.obs.recorder import FlightRecorder
    from repro.provenance.explanation import ExplanationBuilder
    from repro.provenance.tracker import ProvenanceTracker
    from repro.retrieval.dataset_search import DatasetSearchEngine
    from repro.retrieval.hybrid import HybridRetriever
    from repro.soundness import verifier
    from repro.soundness.abstention import SelectiveAnsweringPolicy
    from repro.soundness.consistency import ConsistencyUQ
    from repro.sqldb.database import Database
    from repro.vector.base import VectorIndex

    return [
        Layer("kg.vocabulary.ground_question", [(DomainVocabulary, "ground_question")]),
        Layer(
            "kg.vocabulary.lookup",
            [(DomainVocabulary, "lookup")],
            Hook(after=_count_lookup),
        ),
        Layer("nl.intent.classify_intent", [(engine, "classify_intent")]),
        Layer("nl.nl2sql.parse", [(GroundedSemanticParser, "parse")]),
        Layer("nl.llmsim.generate_sql", [(SimulatedLLM, "generate_sql")]),
        Layer("nl.constrained.validate", [(SQLValidator, "validate")]),
        Layer("soundness.consistency.assess", [(ConsistencyUQ, "assess")]),
        Layer(
            "sqldb.database.execute",
            [(Database, "execute"), (Database, "execute_select")],
            Hook(after=_count_rows),
        ),
        Layer(
            "soundness.verifier.verify",
            [(verifier.AnswerVerifier, "verify")],
            Hook(before=_cache_hits, after=_count_cache_served),
        ),
        Layer("soundness.verifier.verify_rows", [(verifier, "verify_rows")]),
        Layer("soundness.confidence.fuse_confidence", [(engine, "fuse_confidence")]),
        Layer("soundness.abstention.decide", [(SelectiveAnsweringPolicy, "decide")]),
        Layer(
            "provenance.explanation.from_query_result",
            [(ExplanationBuilder, "from_query_result")],
        ),
        Layer("provenance.tracker.record", [(ProvenanceTracker, "record")]),
        Layer(
            "retrieval.dataset_search.suggestions_for_prose",
            [(DatasetSearchEngine, "suggestions_for_prose")],
        ),
        # ``search`` is a one-row ``search_batch``: both entry points
        # report as one layer (the nested call records no second span).
        Layer(
            "retrieval.hybrid.search",
            [(HybridRetriever, "search"), (HybridRetriever, "search_batch")],
        ),
        Layer(
            "vector.index.search",
            [(VectorIndex, "search"), (VectorIndex, "search_batch")],
        ),
        Layer("analytics.seasonality.detect_seasonality", [(engine, "detect_seasonality")]),
        Layer("analytics.outliers.iqr_outliers", [(engine, "iqr_outliers")]),
        Layer("guidance.suggestions.suggest", [(SuggestionEngine, "suggest")]),
        Layer(
            "guidance.clarification.build_question",
            [(ClarificationPolicy, "build_question")],
        ),
        Layer("obs.recorder.record", [(FlightRecorder, "record")]),
        Layer("core.session.state_digest", [(Session, "state_digest")]),
    ]


class Installed:
    """The wrappers of :func:`layers` installed on one :class:`SpanLog`.

    Use as a context manager; leaving it restores every original.
    """

    def __init__(self, log: SpanLog, layer_list: list[Layer]):
        self.log = log
        self.layers = layer_list
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Installed":
        for layer in self.layers:
            for owner, attribute in layer.targets:
                original = owner.__dict__[attribute]
                self._originals.append((owner, attribute, original))
                setattr(owner, attribute, self.log.wrap(layer.name, original, layer.hook))
        return self

    def __exit__(self, *exc) -> bool:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()
        return False
