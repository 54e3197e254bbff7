"""The consistency vote and the decoder filter against per-sample references.

``ConsistencyUQ.assess`` executes each distinct SQL text once and
``ConstrainedDecoder.filter`` checks each distinct text once, while every
sample still counts as one vote.  The references below validate and execute
every sample on its own, on a database without a query cache, so the
deduplicated outcome must equal what sample-by-sample work gives.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nl import ConstrainedDecoder, SQLValidator
from repro.nl.llmsim import LLMOutput
from repro.soundness import ConsistencyUQ
from repro.sqldb import ast
from repro.sqldb.parser import parse_sql
from tests.conftest import build_employees_db

POOL = (
    # canonical and valid
    "SELECT COUNT(*) AS n FROM employees",
    # another spelling of the same query
    "select count(*) as n from employees",
    # valid, with another result
    "SELECT COUNT(*) AS n FROM employees WHERE city = 'zurich'",
    # unparseable
    "SELCT broken",
    # an unknown column
    "SELECT nosuch FROM employees",
    # passes validation, fails at run time (str compared with int)
    "SELECT COUNT(*) AS n FROM employees WHERE name > 1",
)

#: Sample lists of 1-9 texts drawn from the pool, with repeats.
SAMPLES = st.lists(st.sampled_from(range(len(POOL))), min_size=1, max_size=9)

DB = build_employees_db()  # no query cache: every execute_select runs


def _outputs(picks: list[int]) -> list[LLMOutput]:
    """Fresh generations; repeats of a text are distinct objects."""
    return [
        LLMOutput(sql=POOL[pick], self_confidence=0.5 + 0.01 * position)
        for position, pick in enumerate(picks)
    ]


def _reference_assess(candidates: list[LLMOutput]) -> dict:
    """Parse, execute and fingerprint every sample; vote as ``assess`` does."""
    clusters: dict[tuple, list[tuple[int, list, list]]] = {}
    n_valid = 0
    for position, candidate in enumerate(candidates):
        try:
            statement = parse_sql(candidate.sql)
            assert isinstance(statement, ast.SelectStatement)
            result = DB.execute_select(statement, sql=candidate.sql)
        except Exception:  # noqa: BLE001 - a failed sample joins no cluster
            continue
        n_valid += 1
        key = (
            tuple(name.lower() for name in result.columns),
            tuple(sorted((tuple(row) for row in result.rows), key=repr)),
        )
        clusters.setdefault(key, []).append(
            (position, list(result.rows), list(result.columns))
        )
    ordered = sorted(
        clusters.values(), key=lambda members: (-len(members), repr(members[0][1]))
    )
    if not ordered:
        return {
            "chosen": None,
            "confidence": 0.0,
            "n_valid": 0,
            "cluster_sizes": [],
            "majority_rows": None,
            "majority_columns": None,
        }
    position, rows, columns = ordered[0][0]
    return {
        "chosen": position,
        "confidence": len(ordered[0]) / len(candidates),
        "n_valid": n_valid,
        "cluster_sizes": [len(members) for members in ordered],
        "majority_rows": rows,
        "majority_columns": columns,
    }


class TestVoteOracle:
    @settings(max_examples=200, deadline=None)
    @given(SAMPLES)
    def test_deduplicated_vote_equals_per_sample_vote(self, picks):
        candidates = _outputs(picks)
        vote = ConsistencyUQ(DB).assess(candidates)
        expected = _reference_assess(_outputs(picks))
        if expected["chosen"] is None:
            assert vote.chosen is None
        else:
            assert vote.chosen is candidates[expected["chosen"]]
        assert vote.n_samples == len(picks)
        assert vote.confidence == expected["confidence"]
        assert vote.n_valid == expected["n_valid"]
        assert vote.cluster_sizes == expected["cluster_sizes"]
        assert vote.majority_rows == expected["majority_rows"]
        assert vote.majority_columns == expected["majority_columns"]

    @settings(max_examples=100, deadline=None)
    @given(SAMPLES)
    def test_each_parseable_text_executes_once(self, picks):
        calls: list[str] = []
        database = build_employees_db()
        execute_select = database.execute_select

        def counted(statement, sql=None):
            calls.append(sql)
            return execute_select(statement, sql=sql)

        database.execute_select = counted
        ConsistencyUQ(database).assess(_outputs(picks))
        texts = [POOL[pick] for pick in dict.fromkeys(picks)]
        assert calls == [text for text in texts if text != "SELCT broken"]


class TestFilterOracle:
    @settings(max_examples=200, deadline=None)
    @given(SAMPLES)
    def test_deduplicated_filter_equals_per_sample_filter(self, picks):
        validator = SQLValidator(DB.catalog)
        candidates = _outputs(picks)
        kept = ConstrainedDecoder(validator).filter(candidates)
        expected = [
            candidate for candidate in candidates
            if validator.validate(candidate.sql).valid
        ]
        assert [id(candidate) for candidate in kept] == [
            id(candidate) for candidate in expected
        ]
