"""Reward-augmented decoding: a learned reward model reranks candidates.

Section 3.2 (Soundness) lists "reward-augmented decoding" [28] among the
direct control methods for ensuring answer quality, alongside offline RL
and behaviour cloning.  This module implements the decoding-time half of
that family without any neural machinery:

* :func:`candidate_features` — cheap, fully observable features of a
  candidate SQL generation: does it parse, validate, execute; is the
  result non-empty; how much of the question's vocabulary its
  identifiers cover; relative length;
* :class:`RewardModel` — logistic regression over those features,
  trained on labelled (candidate, was-it-faithful) pairs by batch
  gradient descent (deterministic, numpy only);
* :class:`RewardAugmentedDecoder` — reranks a sample set by predicted
  reward before selection, optionally combining with consistency voting
  (clusters are scored by their *summed reward*, not just their size,
  which breaks ties toward well-formed, question-aligned candidates).

This is behaviour cloning in the small: the reward model imitates the
accept/reject judgments of the oracle labels it was trained on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SoundnessError
from repro.nl.constrained import SQLValidator
from repro.nl.llmsim import LLMOutput
from repro.sqldb import ast
from repro.sqldb.database import Database
from repro.sqldb.parser import parse_sql
from repro.vector.embedding import tokenize_text

N_FEATURES = 9


def candidate_features(
    sql: str, question: str, database: Database
) -> np.ndarray:
    """Feature vector of one candidate generation (length ``N_FEATURES``).

    Features: [bias, parses, validates, executes, non-empty result,
    question-identifier overlap, length ratio vs question,
    literal-question overlap, unsupported-literal fraction].

    The literal features are what separate *semantically drifted*
    candidates: a hallucinated filter introduces constants the question
    never mentioned, and a dropped filter loses the constants it did.
    """
    features = np.zeros(N_FEATURES)
    features[0] = 1.0
    try:
        statement = parse_sql(sql)
        features[1] = 1.0
    except Exception:  # noqa: BLE001 - unparseable: all downstream zeros
        return features
    if not isinstance(statement, ast.SelectStatement):
        return features  # not a query: never executed, the rest stay zero
    if SQLValidator(database.catalog).check(statement, sql).valid:
        features[2] = 1.0
    try:
        result = database.execute_select(statement, sql=sql)
        features[3] = 1.0
        features[4] = 0.0 if result.is_empty else 1.0
    except Exception:  # noqa: BLE001
        pass
    question_tokens = set(tokenize_text(question))
    identifiers: set[str] = set()
    if statement.from_table is not None:
        identifiers.update(tokenize_text(statement.from_table.name))
    expressions = [item.expression for item in statement.items]
    if statement.where is not None:
        expressions.append(statement.where)
    expressions.extend(statement.group_by)
    for expression in expressions:
        for ref in ast.collect_column_refs(expression):
            identifiers.update(tokenize_text(ref.name))
    if identifiers:
        features[5] = len(identifiers & question_tokens) / len(identifiers)
    question_length = max(len(question.split()), 1)
    features[6] = min(2.0, len(sql.split()) / question_length) / 2.0
    # Literal alignment: constants the query filters on should appear in
    # the question, and question constants should appear in the query.
    literal_tokens: set[str] = set()
    if statement.where is not None:
        for node in ast.walk_expression(statement.where):
            if isinstance(node, ast.Literal) and node.value is not None:
                literal_tokens.update(tokenize_text(str(node.value)))
    if literal_tokens:
        supported = len(literal_tokens & question_tokens) / len(literal_tokens)
        features[7] = supported
        features[8] = 1.0 - supported
    return features


class RewardModel:
    """Deterministic logistic-regression reward over candidate features."""

    def __init__(self, learning_rate: float = 0.5, epochs: int = 300, l2: float = 1e-3):
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.l2 = l2
        self._weights: np.ndarray | None = None

    @property
    def is_trained(self) -> bool:
        """Whether :meth:`fit` has run."""
        return self._weights is not None

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "RewardModel":
        """Batch gradient descent on the regularised logistic loss."""
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != N_FEATURES:
            raise SoundnessError(f"features must be (n, {N_FEATURES})")
        if len(features) != len(labels) or len(features) < 4:
            raise SoundnessError("need at least 4 aligned training examples")
        if set(np.unique(labels)) - {0.0, 1.0}:
            raise SoundnessError("labels must be 0/1")
        weights = np.zeros(N_FEATURES)
        n = len(features)
        for _ in range(self.epochs):
            logits = features @ weights
            predictions = 1.0 / (1.0 + np.exp(-logits))
            gradient = features.T @ (predictions - labels) / n + self.l2 * weights
            weights -= self.learning_rate * gradient
        self._weights = weights
        return self

    def reward(self, features: np.ndarray) -> float:
        """Predicted probability the candidate is faithful, in (0, 1)."""
        if self._weights is None:
            raise SoundnessError("reward model not trained")
        logit = float(np.asarray(features, dtype=np.float64) @ self._weights)
        return float(1.0 / (1.0 + np.exp(-logit)))


@dataclass
class RankedCandidate:
    """One candidate with its predicted reward."""

    output: LLMOutput
    reward: float


class RewardAugmentedDecoder:
    """Rerank generator samples by learned reward before selection."""

    def __init__(self, model: RewardModel, database: Database):
        if not model.is_trained:
            raise SoundnessError("decoder needs a trained reward model")
        self.model = model
        self.database = database

    def rank(self, question: str, candidates: list[LLMOutput]) -> list[RankedCandidate]:
        """Candidates sorted by predicted reward, best first."""
        if not candidates:
            raise SoundnessError("need at least one candidate")
        ranked = [
            RankedCandidate(
                output=candidate,
                reward=self.model.reward(
                    candidate_features(candidate.sql, question, self.database)
                ),
            )
            for candidate in candidates
        ]
        ranked.sort(key=lambda item: (-item.reward, item.output.sql))
        return ranked

    def decode(self, question: str, candidates: list[LLMOutput]) -> RankedCandidate:
        """The single highest-reward candidate."""
        return self.rank(question, candidates)[0]

    def decode_with_consistency(
        self, question: str, candidates: list[LLMOutput]
    ) -> tuple[RankedCandidate, float]:
        """Reward-weighted consistency vote.

        Clusters candidates by execution result (as consistency UQ does)
        but scores each cluster by its summed reward; returns the best
        member of the winning cluster and the cluster's reward share as
        the confidence.
        """
        ranked = self.rank(question, candidates)
        clusters: dict[tuple, list[RankedCandidate]] = {}
        for item in ranked:
            try:
                output = item.output
                result = self.database.execute_select(output.statement, sql=output.sql)
                key = (
                    tuple(result.columns),
                    tuple(sorted(map(repr, result.rows))),
                )
            except Exception:  # noqa: BLE001 - unexecutable: own bucket
                key = ("__invalid__", item.output.sql)
            clusters.setdefault(key, []).append(item)
        total_reward = sum(item.reward for item in ranked) or 1.0
        best_key = max(
            clusters,
            key=lambda key: (
                sum(item.reward for item in clusters[key]),
                repr(key),
            ),
        )
        winner_cluster = clusters[best_key]
        confidence = sum(item.reward for item in winner_cluster) / total_reward
        return winner_cluster[0], float(confidence)
