"""Consistency-based black-box uncertainty quantification for text-to-SQL.

After Bhattacharjya et al. [7]: the generator is a black box, but we can
sample it several times and measure *agreement*.  Two candidate SQL
queries agree when they produce the same result on the live database (a
semantic notion — syntactically different queries that compute the same
answer land in the same cluster).  The confidence of the majority answer
is the fraction of samples in its cluster.

Why this beats self-reported confidence: an overconfident generator that
does not know the answer produces *scattered* wrong candidates (each
mutation is independent), so its majority cluster is small; when it knows
the answer, samples concentrate.  Agreement therefore tracks the true
probability of correctness even when self-reports do not — benchmark E3
quantifies the gap in ECE terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SoundnessError
from repro.nl.llmsim import LLMOutput
from repro.sqldb.database import Database


def _result_key(columns: list[str], rows: list[tuple]) -> tuple:
    """Canonical, order-insensitive fingerprint of a query result."""
    return (
        tuple(name.lower() for name in columns),
        tuple(sorted((tuple(row) for row in rows), key=repr)),
    )


@dataclass
class ConsistencyResult:
    """Outcome of a consistency vote over generator samples."""

    chosen: LLMOutput | None
    confidence: float
    n_samples: int
    n_valid: int
    cluster_sizes: list[int] = field(default_factory=list)
    #: The executed rows of the majority cluster (None if nothing executed).
    majority_rows: list[tuple] | None = None
    majority_columns: list[str] | None = None

    @property
    def abstained(self) -> bool:
        """True when no candidate could even be executed."""
        return self.chosen is None


class ConsistencyUQ:
    """Samples -> execution -> agreement clustering -> confidence."""

    def __init__(self, database: Database):
        self.database = database

    def assess(self, candidates: list[LLMOutput]) -> ConsistencyResult:
        """Cluster ``candidates`` by execution result and vote.

        Each distinct text is executed once, on its first sample; votes
        count samples.  Invalid/unexecutable candidates count toward the
        denominator (disagreement with everything) but can never be chosen.
        """
        if not candidates:
            raise SoundnessError("need at least one candidate to assess")
        samples_of: dict[str, list[LLMOutput]] = {}
        for candidate in candidates:
            samples_of.setdefault(candidate.sql, []).append(candidate)
        clusters: dict[tuple, list[tuple[LLMOutput, list[tuple], list[str]]]] = {}
        n_valid = 0
        for sql, samples in samples_of.items():
            try:
                result = self.database.execute_select(samples[0].statement, sql=sql)
            except Exception:  # noqa: BLE001 - any failure = its own non-cluster
                continue
            n_valid += len(samples)
            key = _result_key(result.columns, result.rows)
            rows, columns = list(result.rows), list(result.columns)
            clusters.setdefault(key, []).extend((sample, rows, columns) for sample in samples)
        if not clusters:
            return ConsistencyResult(
                chosen=None,
                confidence=0.0,
                n_samples=len(candidates),
                n_valid=0,
            )
        ordered = sorted(
            clusters.values(), key=lambda members: (-len(members), repr(members[0][1]))
        )
        majority = ordered[0]
        chosen, rows, columns = majority[0]
        confidence = len(majority) / len(candidates)
        return ConsistencyResult(
            chosen=chosen,
            confidence=confidence,
            n_samples=len(candidates),
            n_valid=n_valid,
            cluster_sizes=[len(members) for members in ordered],
            majority_rows=rows,
            majority_columns=columns,
        )

    def assess_sql(self, sql_candidates: list[str]) -> ConsistencyResult:
        """Convenience wrapper for plain SQL strings."""
        outputs = [
            LLMOutput(sql=sql, self_confidence=0.5, is_faithful=True)
            for sql in sql_candidates
        ]
        return self.assess(outputs)
