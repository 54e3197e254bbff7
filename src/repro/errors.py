"""Exception hierarchy shared by every layer of the CDA system.

The paper (Section 2.2) stresses that reliability must be enforced *within*
each component and *across* component boundaries.  A shared, typed error
vocabulary is the first half of that contract: a component that cannot
uphold one of the five properties raises a specific, catchable error
instead of silently degrading.
"""

from __future__ import annotations


class CDAError(Exception):
    """Base class for every error raised by the ``repro`` package."""


# --------------------------------------------------------------------------
# Relational substrate (repro.sqldb)
# --------------------------------------------------------------------------


class SQLError(CDAError):
    """Base class for errors raised by the relational engine."""


class TokenizeError(SQLError):
    """The SQL text contains characters that cannot be tokenized."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class ParseError(SQLError):
    """The SQL token stream does not form a valid statement."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class CatalogError(SQLError):
    """A referenced table or column does not exist, or a name clashes."""


class ExecutionError(SQLError):
    """A runtime failure while evaluating a query (type error, div by 0)."""


class IntegrityError(SQLError):
    """A constraint (primary key, not-null) would be violated."""


# --------------------------------------------------------------------------
# Vector substrate (repro.vector)
# --------------------------------------------------------------------------


class VectorError(CDAError):
    """Base class for similarity-search errors."""


class IndexNotBuiltError(VectorError):
    """The index was queried before :meth:`build` was called."""


class DimensionMismatchError(VectorError):
    """Query vector dimensionality differs from the indexed dataset."""


# --------------------------------------------------------------------------
# Knowledge-graph substrate (repro.kg)
# --------------------------------------------------------------------------


class KGError(CDAError):
    """Base class for knowledge-graph errors."""


class OntologyError(KGError):
    """Inconsistent ontology definition (e.g. subsumption cycle)."""


# --------------------------------------------------------------------------
# NL model layer (repro.nl)
# --------------------------------------------------------------------------


class NLError(CDAError):
    """Base class for natural-language layer errors."""


class TranslationError(NLError):
    """The question could not be translated into a logical form."""

    def __init__(self, message: str, question: str | None = None):
        super().__init__(message)
        self.question = question


class AmbiguousQuestionError(NLError):
    """The question admits several groundings; clarification is needed.

    Carries the candidate interpretations so the guidance layer (P5) can
    turn them into a clarification question instead of guessing, following
    the Zen of Python as much as the paper: *in the face of ambiguity,
    refuse the temptation to guess*.
    """

    def __init__(self, message: str, candidates: list | None = None):
        super().__init__(message)
        self.candidates = list(candidates or [])


class ConstrainedDecodingError(NLError):
    """No valid output survived grammar-constrained decoding."""


# --------------------------------------------------------------------------
# Provenance (repro.provenance)
# --------------------------------------------------------------------------


class ProvenanceError(CDAError):
    """Base class for provenance/explanation errors."""


class LosslessnessViolation(ProvenanceError):
    """An explanation failed the losslessness check (Section 2.2)."""


class InvertibilityViolation(ProvenanceError):
    """An explanation could not be inverted back to its calculation."""


# --------------------------------------------------------------------------
# Soundness (repro.soundness)
# --------------------------------------------------------------------------


class SoundnessError(CDAError):
    """Base class for soundness-layer errors."""


class AbstentionError(SoundnessError):
    """Raised when the system refuses to answer (P4).

    Abstention is a *feature*, not a failure: the paper requires that the
    system "refrain from producing answers when unable to produce any
    answer with sufficient certainty".  The error carries the confidence
    that was achieved and the threshold that was required.
    """

    def __init__(self, message: str, confidence: float, threshold: float):
        super().__init__(message)
        self.confidence = confidence
        self.threshold = threshold


class VerificationError(SoundnessError):
    """An answer failed verification against its sources."""


# --------------------------------------------------------------------------
# Guidance (repro.guidance)
# --------------------------------------------------------------------------


class GuidanceError(CDAError):
    """Base class for guidance-layer errors."""


class PlanningError(GuidanceError):
    """The planner could not produce a next step for the conversation."""


# --------------------------------------------------------------------------
# Composition (repro.core.composition)
# --------------------------------------------------------------------------


class CompositionError(CDAError):
    """A pipeline composition violates a declared property contract."""

    def __init__(self, message: str, missing_properties: list | None = None):
        super().__init__(message)
        self.missing_properties = list(missing_properties or [])
