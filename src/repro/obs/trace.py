"""Per-turn tracing: nested spans over the CDA pipeline.

The paper's P3 (explainability) demands provenance not only for *data*
but for *answers*: a turn through :meth:`CDAEngine.ask` crosses intent
routing, grounding, translation, execution, verification, confidence
fusion and abstention, and each of those stages should be able to say
where its time, cache hits, and confidence mass went.  A
:class:`Span` records one such stage — monotonic timings, free-form
attributes, ok/error status — and spans nest into a tree that is itself
a first-class answer artefact (``answer.trace``), exportable as JSON or
an indented text report (:mod:`repro.obs.exporters`).

Design constraints:

* **dependency-free** — stdlib only; importable from every layer without
  cycles (``obs`` imports nothing from ``repro``);
* **contextvar-based** — the active span is a :class:`contextvars.ContextVar`,
  so nesting follows call structure (and stays correct under
  ``asyncio``/threads if the system ever grows them);
* **near-zero overhead when off** — instrumented code calls
  :func:`span`, which returns a shared no-op singleton unless a trace
  was explicitly started with :func:`start_trace`.  The disabled path is
  one function call plus one contextvar read; nothing is allocated.

Span names follow the ``layer.component.op`` scheme documented in
DESIGN.md (e.g. ``sqldb.executor.execute``, ``nl.nl2sql.ground``).
"""

from __future__ import annotations

from contextvars import ContextVar
from time import perf_counter_ns

__all__ = ["Span", "NULL_SPAN", "span", "start_trace", "current_span"]

#: The innermost live span of the calling context (None = tracing off).
_ACTIVE: ContextVar["Span | None"] = ContextVar(
    "repro_obs_active_span", default=None
)


class _NullSpan:
    """Shared no-op stand-in returned when no trace is active.

    Supports the full :class:`Span` surface (context manager, attribute
    setters) so instrumented code never branches on the tracing state.
    """

    __slots__ = ()

    #: Lets callers skip expensive attribute computation when disabled.
    recording = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attribute(self, key, value) -> "_NullSpan":
        return self

    def set_attributes(self, **attributes) -> "_NullSpan":
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullSpan>"


#: The one instance every disabled call site shares.
NULL_SPAN = _NullSpan()


class Span:
    """One timed, attributed, nestable unit of pipeline work.

    Use as a context manager: entering starts the monotonic clock and
    makes this span the active parent for any span opened inside the
    block; exiting stops the clock, restores the previous parent, and —
    if the block raised — records ``status="error"`` with the exception
    before letting it propagate.
    """

    __slots__ = (
        "name",
        "attributes",
        "status",
        "error",
        "children",
        "start_ns",
        "end_ns",
        "_token",
    )

    recording = True

    def __init__(self, name: str, attributes: dict | None = None):
        self.name = name
        self.attributes: dict = attributes if attributes is not None else {}
        self.status = "ok"
        self.error: str | None = None
        self.children: list[Span] = []
        self.start_ns: int = 0
        self.end_ns: int | None = None
        self._token = None

    # -- context-manager protocol ------------------------------------------------

    def __enter__(self) -> "Span":
        parent = _ACTIVE.get()
        if parent is not None:
            parent.children.append(self)
        self._token = _ACTIVE.set(self)
        self.start_ns = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_ns = perf_counter_ns()
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.status = "error"
            self.error = f"{exc_type.__name__}: {exc}"
        return False  # never swallow

    # -- attributes --------------------------------------------------------------

    def set_attribute(self, key: str, value) -> "Span":
        """Attach one key/value annotation (chainable)."""
        self.attributes[key] = value
        return self

    def set_attributes(self, **attributes) -> "Span":
        """Attach several annotations at once (chainable)."""
        self.attributes.update(attributes)
        return self

    # -- timings -----------------------------------------------------------------

    @property
    def duration_ns(self) -> int:
        """Wall time in nanoseconds (0 while the span is still open)."""
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    @property
    def duration_ms(self) -> float:
        """Wall time in milliseconds."""
        return self.duration_ns / 1e6

    @property
    def duration_seconds(self) -> float:
        """Wall time in seconds."""
        return self.duration_ns / 1e9

    # -- tree traversal ----------------------------------------------------------

    def iter_spans(self):
        """Yield this span and every descendant, depth-first, pre-order."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, name: str) -> "Span | None":
        """First span (self included, depth-first) with this exact name."""
        for node in self.iter_spans():
            if node.name == name:
                return node
        return None

    def find_all(self, name: str) -> list["Span"]:
        """Every span (self included) with this exact name."""
        return [node for node in self.iter_spans() if node.name == name]

    def stage_names(self) -> list[str]:
        """Names of the direct children — the pipeline stages of a turn."""
        return [child.name for child in self.children]

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, status={self.status!r}, "
            f"children={len(self.children)}, {self.duration_ms:.3f}ms)"
        )


def span(name: str, **attributes) -> "Span | _NullSpan":
    """A child span of the active trace, or the shared no-op when none.

    This is the one call instrumented code makes::

        with span("sqldb.cache.lookup") as s:
            ...
            s.set_attribute("hit", True)

    When no trace is active (tracing disabled, or code running outside a
    turn) the returned :data:`NULL_SPAN` makes the whole block free.
    """
    if _ACTIVE.get() is None:
        return NULL_SPAN
    return Span(name, attributes if attributes else None)


def start_trace(name: str, **attributes) -> Span:
    """A new span that *starts* recording even without an active parent.

    The engine opens the per-turn root with this; if a trace is already
    active (nested engines, a traced benchmark driving the engine) the
    new span attaches as a child of it instead of forking a second tree.
    """
    return Span(name, attributes if attributes else None)


def current_span() -> "Span | _NullSpan":
    """The innermost live span, or the no-op singleton when tracing is off.

    Lets deep code attach attributes to whatever stage is running without
    opening a span of its own.
    """
    active = _ACTIVE.get()
    return active if active is not None else NULL_SPAN
