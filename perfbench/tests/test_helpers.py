"""Tests for the benchmark's own helpers.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from measure import Fingerprint, percentile  # noqa: E402

# -- self time ---------------------------------------------------------------------


def _random_tree(rng: random.Random, start: int, end: int, parent: int, out: list, depth: int):
    """Append properly nested, non-overlapping child spans of ``parent``."""
    cursor = start
    while depth < 4 and end - cursor > 4 and rng.random() < 0.7:
        low = rng.randint(cursor, end - 2)
        high = rng.randint(low + 1, end)
        index = len(out)
        out.append([rng.choice("abc"), low, high, parent, 0])
        _random_tree(rng, low, high, index, out, depth + 1)
        cursor = high


@pytest.mark.parametrize("seed", range(40))
def test_self_times_sum_to_root_duration(seed):
    rng = random.Random(seed)
    tree = [[spans.ROOT, 0, 1000, -1, 0]]
    _random_tree(rng, 0, 1000, 0, tree, 0)
    totals = spans.layer_totals(tree)
    unattributed = totals[spans.ROOT].self_ns
    layers = sum(entry.self_ns for name, entry in totals.items() if name != spans.ROOT)
    assert layers + unattributed == 1000
    assert all(value >= 0 for value in spans.self_times(tree))


def test_self_time_subtracts_union_of_children():
    tree = [
        ["root", 0, 100, -1, 0],
        ["a", 10, 50, 0, 0],
        ["b", 40, 70, 0, 0],  # overlaps a: the union 10..70 counts once
        ["c", 20, 30, 1, 0],
    ]
    assert spans.self_times(tree) == [40, 30, 30, 10]


def test_covered_clips_to_the_span():
    assert spans.covered_ns([(-5, 5), (8, 20)], 0, 10) == 7
    assert spans.covered_ns([], 0, 10) == 0


def test_wrapped_calls_nest_and_collapse_reentry():
    log = spans.SpanLog()

    def inner():
        return "x"

    def outer():
        return wrapped_inner() + again()

    wrapped_inner = log.wrap("inner", inner)
    again = log.wrap("outer", lambda: "y")  # same name as its caller: no span
    wrapped_outer = log.wrap("outer", outer)
    assert wrapped_outer() == "xy"  # outside a turn: nothing recorded
    assert log.spans == []
    log.begin_turn(7)
    assert wrapped_outer() == "xy"
    log.end_turn()
    names = [(record[0], record[3], record[4]) for record in log.spans]
    assert names == [(spans.ROOT, -1, 7), ("outer", 0, 7), ("inner", 1, 7)]
    totals = spans.layer_totals(log.spans)
    root = log.spans[0]
    assert sum(entry.self_ns for entry in totals.values()) == root[2] - root[1]


def test_installed_restores_originals():
    from repro.kg.vocabulary import DomainVocabulary

    original = DomainVocabulary.__dict__["lookup"]
    with spans.Installed(spans.SpanLog(), spans.layers()):
        assert DomainVocabulary.__dict__["lookup"] is not original
    assert DomainVocabulary.__dict__["lookup"] is original


# -- percentiles -------------------------------------------------------------------


def test_percentile_interpolates_and_counts():
    assert percentile([3, 1, 2, 4], 50) == (2.5, 4)
    assert percentile(list(range(101)), 95) == (95.0, 101)
    assert percentile([7.0], 95) == (7.0, 1)


def test_percentile_of_nothing():
    value, count = percentile([], 50)
    assert math.isnan(value) and count == 0


# -- oracle and fingerprint ----------------------------------------------------------


def test_rows_match_order_and_floats():
    assert oracle.rows_match([(1, "a"), (2, "b")], [(2, "b"), (1, "a")], ordered=False)
    assert not oracle.rows_match([(1, "a"), (2, "b")], [(2, "b"), (1, "a")], ordered=True)
    assert oracle.rows_match([(0.1 + 0.2,)], [(0.3,)], ordered=True)
    assert oracle.rows_match([(3,)], [(3.0,)], ordered=True)
    assert not oracle.rows_match([(1,)], [(1,), (1,)], ordered=False)
    assert oracle.is_ordered("SELECT a FROM t ORDER BY a DESC")
    assert not oracle.is_ordered("SELECT a FROM t")


def test_sqlite_oracle_runs_gold_sql_on_a_copy():
    from repro.sqldb import Database

    database = Database()
    database.execute("CREATE TABLE t (a INT, b TEXT)")
    database.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x')")
    sql = "SELECT b, COUNT(*) AS n FROM t GROUP BY b"
    copy = oracle.SqliteOracle()
    try:
        expected = copy.rows(database, sql)
    finally:
        copy.close()
    assert oracle.rows_match(database.execute(sql).rows, expected, ordered=False)


def test_fingerprint_depends_on_every_field():
    from repro.core.answer import Answer, AnswerKind

    def digest(*answers):
        fingerprint = Fingerprint()
        for answer in answers:
            fingerprint.add(answer)
        return fingerprint.hexdigest()

    base = Answer(kind=AnswerKind.DATA, text="t", columns=["a"], rows=[(1,)])
    assert digest(base) == digest(Answer(kind=AnswerKind.DATA, text="t", columns=["a"], rows=[(1,)]))
    assert digest(base) != digest(Answer(kind=AnswerKind.DATA, text="t", columns=["a"], rows=[(2,)]))
    assert digest(base) != digest(Answer(kind=AnswerKind.METADATA, text="t", columns=["a"], rows=[(1,)]))


# -- workload generators -------------------------------------------------------------


def _take(iterator, count):
    return [next(iterator) for _ in range(count)]


@pytest.mark.parametrize("domain", ["swiss", "ecommerce", "healthcare"])
def test_conversation_script_is_seeded(domain):
    first = _take(workloads.conversation_script(domain, random.Random(5)), 60)
    again = _take(workloads.conversation_script(domain, random.Random(5)), 60)
    other = _take(workloads.conversation_script(domain, random.Random(6)), 60)
    assert first == again
    assert first != other
    assert sum(turn.gold_sql is not None for turn in first) >= 4


@pytest.mark.parametrize("domain", ["swiss", "ecommerce", "healthcare"])
def test_long_question_script_is_seeded(domain):
    first = _take(workloads.long_question_script(domain, random.Random(5)), 20)
    again = _take(workloads.long_question_script(domain, random.Random(5)), 20)
    other = _take(workloads.long_question_script(domain, random.Random(6)), 20)
    assert first == again
    assert first != other
    cycle = len(workloads.LENGTH_LADDER)
    lengths = sorted(len(turn.text.split()) for turn in first[:cycle])
    assert lengths == sorted(workloads.LENGTH_LADDER)


def test_sql_heavy_cases_are_seeded(monkeypatch):
    monkeypatch.setattr(workloads, "SQL_HEAVY_ROWS", 40)
    monkeypatch.setattr(workloads, "SQL_HEAVY_CASES", 6)

    def cases(seed):
        return [
            (item.surface_question, item.case.gold_sql)
            for item in workloads.sql_heavy_cases(seed).items
        ]

    assert cases(5) == cases(5)
    assert cases(5) != cases(6)


def test_workloads_build_users_with_seeded_engines():
    for build_workload in (workloads.conversation_mix, workloads.long_questions):
        workload = build_workload(5)
        assert workload.users and workload.memory_turns > 0
        databases = {id(user.engine.database) for user in workload.users}
        assert len(databases) == len(workload.users)


def test_sql_heavy_user_starts_a_fresh_session_after_its_last_case(monkeypatch):
    monkeypatch.setattr(workloads, "SQL_HEAVY_ROWS", 40)
    monkeypatch.setattr(workloads, "SQL_HEAVY_CASES", 3)
    user = workloads.sql_heavy(5).users[0]
    first_engine = user.engine
    texts = [user.next_turn().text for _ in range(4)]
    assert texts[3] == texts[0]
    assert user.engine is not first_engine
    assert user.engine.database is not first_engine.database
