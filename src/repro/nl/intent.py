"""Utterance intent classification.

The conversational layer needs to know *what kind* of turn it received
before routing it: a data question goes to the NL2SQL path, a metadata
question ("what is this dataset?") to the retrieval/summary path, an
analysis request ("seasonality insights") to the analytics routines, and
so on — mirroring the turns of Figure 1's example conversation.

Keyword-scored classification is enough here because the downstream
components re-validate (a misrouted turn fails to parse and falls back),
but the scores are exposed so the guidance layer can see near-ties.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.kg.vocabulary import QuestionTokens


class IntentKind(enum.Enum):
    """Conversation-turn intents the engine routes on."""

    DATA_QUERY = "data_query"  # compute an answer from structured data
    DATASET_DISCOVERY = "dataset_discovery"  # find relevant data sources
    METADATA = "metadata"  # describe a dataset / column / source
    ANALYSIS = "analysis"  # statistical analysis (trend, seasonality, ...)
    CLARIFICATION_REPLY = "clarification_reply"  # answers a system question
    CHITCHAT = "chitchat"  # greetings and other non-analytical turns


_KEYWORDS: dict[IntentKind, dict[str, float]] = {
    IntentKind.DATA_QUERY: {
        "how": 1.0, "many": 1.5, "count": 2.0, "average": 2.0, "mean": 1.5,
        "total": 2.0, "sum": 2.0, "maximum": 2.0, "minimum": 2.0, "highest": 2.0,
        "lowest": 2.0, "largest": 1.5, "smallest": 1.5, "list": 1.5, "show": 1.0,
        "top": 1.5, "per": 1.0, "each": 1.0, "which": 1.0, "what": 0.5,
    },
    IntentKind.DATASET_DISCOVERY: {
        "overview": 2.5, "datasets": 2.5, "dataset": 1.5, "sources": 2.0,
        "data": 1.0, "find": 1.5, "about": 1.0, "relevant": 2.0, "available": 2.0,
        "looking": 1.5,
    },
    IntentKind.METADATA: {
        "what": 1.0, "describe": 2.5, "description": 2.0, "schema": 2.5,
        "columns": 2.0, "mean": 0.5, "is": 0.5, "definition": 2.5, "explain": 1.5,
        "source": 1.5, "documentation": 2.0,
    },
    IntentKind.ANALYSIS: {
        "trend": 3.0, "seasonality": 3.0, "seasonal": 3.0, "forecast": 2.5,
        "correlation": 3.0, "outliers": 3.0, "outlier": 3.0, "distribution": 2.5,
        "insights": 2.0, "decompose": 3.0, "anomalies": 3.0, "statistics": 2.0,
        "pattern": 2.0,
    },
    IntentKind.CHITCHAT: {
        "hello": 3.0, "hi": 3.0, "thanks": 3.0, "thank": 3.0, "bye": 3.0,
        "goodbye": 3.0,
    },
}


_KINDS = tuple(IntentKind)

#: token -> ``(position in _KINDS, weight)`` of each kind it is a keyword of.
_TOKEN_WEIGHTS: dict[str, list[tuple[int, float]]] = {}
for _position, _kind in enumerate(_KINDS):
    for _token, _weight in _KEYWORDS.get(_kind, {}).items():
        _TOKEN_WEIGHTS.setdefault(_token, []).append((_position, _weight))


@dataclass
class IntentScore:
    """Classification outcome with per-intent scores (ties visible)."""

    kind: IntentKind
    score: float
    scores: dict[IntentKind, float]

    @property
    def margin(self) -> float:
        """Gap between the best and second-best score (tie detection)."""
        ordered = sorted(self.scores.values(), reverse=True)
        if len(ordered) < 2:
            return ordered[0] if ordered else 0.0
        return ordered[0] - ordered[1]


def classify_intent(
    utterance: str | QuestionTokens, expecting_clarification: bool = False
) -> IntentScore:
    """Classify ``utterance``; ``expecting_clarification`` biases replies.

    When the system just asked a clarification question, short answers
    ("the barometer", "yes, employment") are clarification replies even
    though they carry no intent keywords.  ``utterance`` is the text or its
    :class:`QuestionTokens`.  Each kind's score adds its keywords' weights
    in token order, and ties go to the kind declared first.
    """
    if not isinstance(utterance, QuestionTokens):
        utterance = QuestionTokens(utterance)
    tokens = utterance.tokens
    sums = [0.0] * len(_KINDS)
    for token in tokens:
        for position, weight in _TOKEN_WEIGHTS.get(token, ()):
            sums[position] += weight
    if expecting_clarification and len(tokens) <= 8:
        sums[_KINDS.index(IntentKind.CLARIFICATION_REPLY)] = max(sums) + 1.0
    best = max(range(len(_KINDS)), key=sums.__getitem__)
    best_kind = _KINDS[best]
    if sums[best] == 0.0:
        best_kind = (
            IntentKind.CLARIFICATION_REPLY
            if expecting_clarification
            else IntentKind.DATA_QUERY
        )
    scores = dict(zip(_KINDS, sums))
    return IntentScore(kind=best_kind, score=scores[best_kind], scores=scores)
