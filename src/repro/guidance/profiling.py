"""User-expertise profiling from interaction history.

"The systems, through profiling, should determine the level of expertise
of the user and interact differently according to the inferred expertise"
(Section 3.2).  The profiler scores cheap lexical signals — technical
vocabulary, schema-term usage, question length, filter complexity — and
maps the running average to an expertise level the answer generator uses
to pick verbosity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.vector.embedding import tokenize_text

_TECHNICAL_TOKENS = frozenset(
    {
        "select", "join", "group", "aggregate", "average", "median", "sum",
        "variance", "stddev", "percentile", "distribution", "correlation",
        "seasonality", "regression", "outlier", "schema", "query", "filter",
        "decompose", "residual", "confidence", "interval",
    }
)


class ExpertiseLevel(enum.Enum):
    """Coarse expertise buckets driving answer style."""

    NOVICE = "novice"
    INTERMEDIATE = "intermediate"
    EXPERT = "expert"


@dataclass
class UserProfile:
    """Current inferred profile."""

    level: ExpertiseLevel
    score: float
    questions_seen: int
    signals: dict = field(default_factory=dict)

    @property
    def prefers_terse_answers(self) -> bool:
        """Experts get numbers, novices get narration."""
        return self.level is ExpertiseLevel.EXPERT


class UserProfiler:
    """Exponential-average expertise scorer over user questions."""

    def __init__(self, schema_terms: set[str] | None = None, smoothing: float = 0.35):
        self._schema_terms = {term.lower() for term in (schema_terms or set())}
        self.smoothing = smoothing
        self._score = 0.35  # prior: mildly novice
        self._count = 0

    def observe(self, question: str) -> UserProfile:
        """Update the profile with one more user question."""
        tokens = tokenize_text(question)
        signals = self._signals(tokens)
        question_score = min(
            1.0,
            0.45 * signals["technical_ratio"] * 4
            + 0.35 * signals["schema_ratio"] * 3
            + 0.2 * signals["length_factor"],
        )
        self._count += 1
        self._score = (
            self.smoothing * question_score + (1.0 - self.smoothing) * self._score
        )
        return self.profile(signals)

    @property
    def state(self) -> tuple[float, int]:
        """``(score, questions seen)``: everything :meth:`profile` derives."""
        return self._score, self._count

    def profile(self, signals: dict | None = None) -> UserProfile:
        """The current profile without observing anything new."""
        if self._score >= 0.6:
            level = ExpertiseLevel.EXPERT
        elif self._score >= 0.35:
            level = ExpertiseLevel.INTERMEDIATE
        else:
            level = ExpertiseLevel.NOVICE
        return UserProfile(
            level=level,
            score=self._score,
            questions_seen=self._count,
            signals=signals or {},
        )

    def _signals(self, tokens: list[str]) -> dict:
        if not tokens:
            return {"technical_ratio": 0.0, "schema_ratio": 0.0, "length_factor": 0.0}
        technical = sum(1 for token in tokens if token in _TECHNICAL_TOKENS)
        schema = sum(1 for token in tokens if token in self._schema_terms)
        return {
            "technical_ratio": technical / len(tokens),
            "schema_ratio": schema / len(tokens),
            "length_factor": min(1.0, len(tokens) / 20.0),
        }
