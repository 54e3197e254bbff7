"""Conversational Data Exploration layer (layer ``a``, Figure 1) — the
public face of the CDA system.

:class:`~repro.core.engine.CDAEngine` orchestrates every other package:
it routes user turns by intent, grounds and translates data questions,
executes them with provenance, quantifies and verifies confidence,
abstains or clarifies when warranted, annotates every answer, and
proactively suggests next steps — "conversations augmented with certainty
levels" as the paper's new interaction paradigm.

The reliability properties are individually switchable through
:class:`~repro.core.config.ReliabilityConfig`, which is what lets the
end-to-end benchmark (E7) compare the full CDA pipeline against the
LLM-only baseline on the same questions.
"""

from repro.core.config import ReliabilityConfig
from repro.core.answer import Answer, AnswerKind
from repro.core.session import Session
from repro.core.engine import CDAEngine
from repro.core.registry import Component, ComponentRegistry, Property
from repro.core.composition import compose_properties

__all__ = [
    "ReliabilityConfig",
    "Answer",
    "AnswerKind",
    "Session",
    "CDAEngine",
    "Component",
    "ComponentRegistry",
    "Property",
    "compose_properties",
]
