"""Conversation session state.

"Throughout the interaction, the system maintains context" (Section 2.1):
the session carries the conversation graph, the pending clarification
exchange (so a short reply like "the barometer" can be resolved), the
table currently in focus for follow-up questions and analyses, the
user-expertise profile, and the cross-component provenance tracker.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.guidance.clarification import ClarificationQuestion
from repro.guidance.conversation_graph import ConversationGraph, TurnKind
from repro.guidance.profiling import UserProfiler
from repro.obs.events import emit
from repro.obs.metrics import MetricsRegistry, counter
from repro.provenance.tracker import ProvenanceTracker


@dataclass
class PendingClarification:
    """An open clarification exchange awaiting the user's pick."""

    original_question: str
    question: ClarificationQuestion
    #: What the options decide (currently always a table choice).
    subject: str = "table"


@dataclass
class Session:
    """Mutable per-conversation state."""

    graph: ConversationGraph = field(default_factory=ConversationGraph)
    tracker: ProvenanceTracker = field(default_factory=ProvenanceTracker)
    profiler: UserProfiler = field(default_factory=UserProfiler)
    pending_clarification: PendingClarification | None = None
    #: Table the conversation is currently about (focus for follow-ups).
    focus_table: str | None = None
    #: The last successfully answered query intent ("and for bern?"
    #: refines it instead of starting over — context maintenance).
    last_intent: object | None = None
    #: Group-by columns already shown (suggestions avoid repeating them).
    used_group_columns: set[str] = field(default_factory=set)
    #: What this session's turns did: the engine folds each turn's tally
    #: in here (the process registry holds every session's sum).
    metrics: MetricsRegistry = field(
        default_factory=MetricsRegistry, repr=False, compare=False
    )

    # The session's counts are read off the conversation graph: only the
    # ``record_*`` methods add these kinds, the planner only speculative turns.

    @property
    def questions_asked(self) -> int:
        """User questions recorded so far."""
        return self.graph.count(TurnKind.USER_QUESTION)

    @property
    def answers_given(self) -> int:
        """System answers delivered so far."""
        return self.graph.count(TurnKind.SYSTEM_ANSWER)

    @property
    def abstentions(self) -> int:
        """Turns the system abstained on so far."""
        return self.graph.count(TurnKind.ABSTENTION)

    @property
    def clarifications_asked(self) -> int:
        """Clarification questions the system asked so far."""
        return self.graph.count(TurnKind.CLARIFICATION_REQUEST)

    def record_user_turn(self, text: str, kind: TurnKind) -> int:
        """Add a user turn to the graph; returns its id."""
        turn = self.graph.add_turn(actor="user", kind=kind, text=text)
        if kind is TurnKind.USER_QUESTION:
            counter("core.session.questions").inc()
            self.profiler.observe(text)
        return turn.turn_id

    def record_system_turn(
        self,
        text: str,
        kind: TurnKind,
        replies_to: int,
        confidence: float | None = None,
        role: str = "answers",
    ) -> int:
        """Add a system turn linked to the user turn it serves."""
        turn = self.graph.add_turn(
            actor="system",
            kind=kind,
            text=text,
            confidence=confidence,
            replies_to=replies_to,
            role=role,
        )
        if kind is TurnKind.SYSTEM_ANSWER:
            counter("core.session.answers").inc()
        elif kind is TurnKind.ABSTENTION:
            counter("core.session.abstentions").inc()
            emit(
                "engine.abstention",
                severity="warning",
                turn=turn.turn_id,
                confidence=confidence,
            )
        elif kind is TurnKind.CLARIFICATION_REQUEST:
            counter("core.session.clarifications").inc()
            emit("guidance.clarification", turn=turn.turn_id)
        return turn.turn_id

    def snapshot(self) -> dict:
        """The session counters and context as one introspection dict."""
        return {
            "questions_asked": self.questions_asked,
            "answers_given": self.answers_given,
            "abstentions": self.abstentions,
            "clarifications_asked": self.clarifications_asked,
            "turns": len(self.graph),
            "focus_table": self.focus_table,
            "pending_clarification": self.pending_clarification is not None,
        }

    def _context_tail(self) -> dict:
        """Every piece of turn-relevant context except the graph, as a
        dict: the reference :meth:`state_digest` must cover field by
        field (the digest-completeness test compares the two)."""
        pending = None
        if self.pending_clarification is not None:
            pending = {
                "original_question": self.pending_clarification.original_question,
                "question": self.pending_clarification.question.text,
                "options": list(self.pending_clarification.question.options),
                "subject": self.pending_clarification.subject,
            }
        profile = self.profiler.profile()
        return {
            "pending_clarification": pending,
            "focus_table": self.focus_table,
            # QueryIntent is a plain dataclass: its repr is a complete,
            # deterministic rendering of the logical form.
            "last_intent": repr(self.last_intent)
            if self.last_intent is not None
            else None,
            "used_group_columns": sorted(self.used_group_columns),
            "questions_asked": self.questions_asked,
            "answers_given": self.answers_given,
            "abstentions": self.abstentions,
            "clarifications_asked": self.clarifications_asked,
            "profile": {
                "level": profile.level.value,
                "score": round(profile.score, 12),
                "questions_seen": profile.questions_seen,
            },
        }

    def state_digest(self) -> str:
        """Deterministic SHA-256 over the full conversation context.

        The flight recorder stores this before and after every turn; a
        replay asserts conversation-context equality by comparing
        digests instead of diffing whole graphs.  It hashes the ``repr``
        of one fixed-order tuple — the graph's O(1) running mutation chain
        (:meth:`~repro.guidance.conversation_graph.ConversationGraph.digest`)
        and every field of :meth:`_context_tail` — with no dict and no
        JSON, so the capture path pays a flat cost on every turn.
        """
        pending = self.pending_clarification
        if pending is not None:
            question = pending.question
            pending = (pending.original_question, question.text, question.options, pending.subject)
        state = (
            self.graph.digest(), pending, self.focus_table,
            self.last_intent,  # a plain dataclass: its repr renders it whole
            sorted(self.used_group_columns),
            self.questions_asked, self.answers_given, self.abstentions, self.clarifications_asked,
            self.profiler.state,
        )
        return hashlib.sha256(repr(state).encode("utf-8")).hexdigest()

    def scorecard(self, thresholds=None):
        """This session's reliability scorecard: its own registry
        (:attr:`metrics`, every turn's counters and observations and
        nothing from other sessions) judged against the SLO thresholds,
        property by property (see :mod:`repro.obs.scorecard`)."""
        from repro.obs.scorecard import build_scorecard

        return build_scorecard(
            self.snapshot(), registry=self.metrics, thresholds=thresholds
        )

    @property
    def expecting_clarification_reply(self) -> bool:
        """Whether the next user turn should answer a system question."""
        return self.pending_clarification is not None

    def open_clarification(
        self, original_question: str, question: ClarificationQuestion, subject: str
    ) -> None:
        """Remember the exchange so the reply can be resolved."""
        self.pending_clarification = PendingClarification(
            original_question=original_question,
            question=question,
            subject=subject,
        )

    def close_clarification(self) -> PendingClarification | None:
        """Consume and return the pending exchange."""
        pending = self.pending_clarification
        self.pending_clarification = None
        return pending
