"""Tests for the extension features: reward decoding, query caching,
active clarification."""

from dataclasses import replace

import numpy as np
import pytest

from repro.datasets import build_swiss_labour_registry
from repro.errors import GuidanceError, SoundnessError
from repro.guidance import ActiveClarificationSelector, entropy
from repro.nl import SimulatedLLM
from repro.nl.llmsim import LLMOutput
from repro.soundness import (
    RewardAugmentedDecoder,
    RewardModel,
    candidate_features,
)
from repro.soundness.reward import N_FEATURES
from repro.sqldb import Database


# ---------------------------------------------------------------------------
# Reward-augmented decoding
# ---------------------------------------------------------------------------


@pytest.fixture
def reward_setup(employees_db):
    gold = "SELECT AVG(salary) AS avg_salary FROM employees WHERE city = 'zurich'"
    llm = SimulatedLLM(employees_db.catalog, error_rate=0.5, seed=17)
    features, labels = [], []
    for index in range(60):
        question = f"average salary in zurich variant {index}"
        for output in llm.generate_sql(question, gold, n_samples=3):
            features.append(candidate_features(output.sql, question, employees_db))
            labels.append(1.0 if output.is_faithful else 0.0)
    model = RewardModel().fit(np.array(features), np.array(labels))
    return employees_db, llm, model, gold


class TestRewardModel:
    def test_features_shape_and_parse_gate(self, employees_db):
        good = candidate_features(
            "SELECT COUNT(*) FROM employees", "how many employees", employees_db
        )
        broken = candidate_features("SELCT nope", "how many", employees_db)
        assert good.shape == (N_FEATURES,)
        assert good[1] == 1.0 and good[3] == 1.0
        assert broken[1] == 0.0 and broken[3] == 0.0

    def test_identifier_overlap_feature(self, employees_db):
        aligned = candidate_features(
            "SELECT salary FROM employees", "what is the salary", employees_db
        )
        unaligned = candidate_features(
            "SELECT floor FROM departments", "what is the salary", employees_db
        )
        assert aligned[5] > unaligned[5]

    def test_trained_model_prefers_faithful(self, reward_setup):
        employees_db, llm, model, gold = reward_setup
        rewards_faithful, rewards_wrong = [], []
        for index in range(40):
            question = f"average salary in zurich heldout {index}"
            for output in llm.generate_sql(question, gold, n_samples=3):
                reward = model.reward(
                    candidate_features(output.sql, question, employees_db)
                )
                (rewards_faithful if output.is_faithful else rewards_wrong).append(
                    reward
                )
        assert np.mean(rewards_faithful) > np.mean(rewards_wrong)

    def test_fit_validation(self):
        with pytest.raises(SoundnessError):
            RewardModel().fit(np.zeros((2, N_FEATURES)), np.zeros(2))
        with pytest.raises(SoundnessError):
            RewardModel().fit(np.zeros((5, 3)), np.zeros(5))

    def test_untrained_reward_raises(self):
        with pytest.raises(SoundnessError):
            RewardModel().reward(np.zeros(N_FEATURES))


class TestRewardAugmentedDecoder:
    def test_decode_picks_high_reward(self, reward_setup):
        employees_db, _llm, model, gold = reward_setup
        decoder = RewardAugmentedDecoder(model, employees_db)
        candidates = [
            LLMOutput(sql="SELCT broken", self_confidence=0.9, is_faithful=False),
            LLMOutput(sql=gold, self_confidence=0.5, is_faithful=True),
        ]
        chosen = decoder.decode("average salary in zurich", candidates)
        assert chosen.output.sql == gold

    def test_reward_weighted_consistency(self, reward_setup):
        employees_db, llm, model, gold = reward_setup
        decoder = RewardAugmentedDecoder(model, employees_db)
        outputs = llm.generate_sql("some fresh question", gold, n_samples=5)
        chosen, confidence = decoder.decode_with_consistency(
            "some fresh question about salary", outputs
        )
        assert 0.0 <= confidence <= 1.0
        assert chosen.output.sql

    def test_untrained_model_rejected(self, employees_db):
        with pytest.raises(SoundnessError):
            RewardAugmentedDecoder(RewardModel(), employees_db)

    def test_empty_candidates_rejected(self, reward_setup):
        employees_db, _llm, model, _gold = reward_setup
        decoder = RewardAugmentedDecoder(model, employees_db)
        with pytest.raises(SoundnessError):
            decoder.rank("q", [])


# ---------------------------------------------------------------------------
# Query cache
# ---------------------------------------------------------------------------


class TestQueryCache:
    def make_db(self):
        db = Database(cache_size=8)
        db.execute("CREATE TABLE t (x INT, g TEXT)")
        db.execute("INSERT INTO t VALUES (1,'a'),(2,'a'),(3,'b')")
        return db

    def test_repeat_query_hits(self):
        db = self.make_db()
        first = db.execute("SELECT SUM(x) FROM t")
        second = db.execute("SELECT SUM(x) FROM t")
        assert second.rows == first.rows
        assert db.cache.stats.hits == 1

    def test_mutation_invalidates(self):
        db = self.make_db()
        assert db.execute("SELECT SUM(x) FROM t").scalar() == 6
        db.execute("INSERT INTO t VALUES (10, 'c')")
        assert db.execute("SELECT SUM(x) FROM t").scalar() == 16
        assert db.cache.stats.invalidations == 1

    def test_delete_invalidates(self):
        db = self.make_db()
        db.execute("SELECT COUNT(*) FROM t")
        db.catalog.table("t").delete_row(0)
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_join_queries_track_both_tables(self):
        db = Database(cache_size=8)
        db.execute("CREATE TABLE a (x INT)")
        db.execute("CREATE TABLE b (x INT)")
        db.execute("INSERT INTO a VALUES (1)")
        db.execute("INSERT INTO b VALUES (1)")
        sql = "SELECT COUNT(*) FROM a JOIN b ON a.x = b.x"
        assert db.execute(sql).scalar() == 1
        db.execute("INSERT INTO b VALUES (1)")
        assert db.execute(sql).scalar() == 2  # b's version changed

    def test_lru_eviction(self):
        db = Database(cache_size=2)
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("SELECT x FROM t")
        db.execute("SELECT x + 1 FROM t")
        db.execute("SELECT x + 2 FROM t")  # evicts the first entry
        assert len(db.cache) == 2

    def test_cache_disabled_by_default(self):
        db = Database()
        assert db.cache is None

    def test_different_sql_different_entries(self):
        db = self.make_db()
        db.execute("SELECT SUM(x) FROM t")
        db.execute("SELECT COUNT(*) FROM t")
        assert db.cache.stats.hits == 0
        assert len(db.cache) == 2


# ---------------------------------------------------------------------------
# Active clarification selection
# ---------------------------------------------------------------------------


class TestActiveClarification:
    def test_entropy_basics(self):
        assert entropy([0.5, 0.5]) == pytest.approx(1.0)
        assert entropy([1.0]) == 0.0
        with pytest.raises(GuidanceError):
            entropy([0.0, 0.0])

    def test_confident_belief_answers(self):
        selector = ActiveClarificationSelector()
        plan = selector.plan({"employment": 0.95, "cantons": 0.05})
        assert plan.action == "answer"

    def test_tied_belief_asks_two_options(self):
        selector = ActiveClarificationSelector()
        plan = selector.plan({"employment": 0.5, "cantons": 0.5})
        assert plan.action == "ask"
        assert set(plan.options) == {"employment", "cantons"}
        assert plan.information_gain == pytest.approx(1.0)

    def test_long_tail_not_fully_enumerated(self):
        selector = ActiveClarificationSelector(max_options=3)
        scores = {f"table_{i}": 1.0 for i in range(10)}
        plan = selector.plan(scores)
        if plan.action == "ask":
            assert len(plan.options) <= 3

    def test_three_way_tie_offers_three(self):
        selector = ActiveClarificationSelector()
        plan = selector.plan({"a": 1.0, "b": 1.0, "c": 1.0})
        assert plan.action == "ask"
        assert len(plan.options) == 3

    def test_negative_scores_rejected(self):
        with pytest.raises(GuidanceError):
            ActiveClarificationSelector().plan({"a": -1.0})

    def test_empty_rejected(self):
        with pytest.raises(GuidanceError):
            ActiveClarificationSelector().plan({})


class TestEngineCacheIntegration:
    def test_engine_attaches_cache_by_default(self):
        domain = build_swiss_labour_registry(seed=3)
        from repro.core import CDAEngine

        engine = CDAEngine(domain.registry, domain.vocabulary)
        engine.ask("how many cantons are there")
        engine.ask("how many cantons are there")
        assert engine.database.cache is not None
        assert engine.database.cache.stats.hits >= 1

    def test_cache_can_be_disabled(self):
        domain = build_swiss_labour_registry(seed=3)
        from repro.core import CDAEngine, ReliabilityConfig

        config = ReliabilityConfig(query_cache_size=None)
        engine = CDAEngine(domain.registry, domain.vocabulary, config=config)
        assert engine.database.cache is None

    def test_tampering_still_caught_through_cache(self):
        domain = build_swiss_labour_registry(seed=3)
        from repro.core import CDAEngine
        from repro.soundness import AnswerVerifier

        engine = CDAEngine(domain.registry, domain.vocabulary)
        result = engine.database.execute("SELECT COUNT(*) FROM cantons")
        engine.database.execute("SELECT COUNT(*) FROM cantons")  # prime cache
        result = replace(result, rows=((999,),))
        report = AnswerVerifier(engine.database).verify(result, depth="reexecution")
        assert not report.passed
