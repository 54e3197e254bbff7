"""Hypothesis property tests over core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.seasonality import autocorrelation
from repro.benchgen.metrics import execution_accuracy
from repro.kg.triple_store import TripleStore
from repro.kg.vocabulary import edit_similarity, token_overlap, trigram_similarity
from repro.provenance.semiring import Polynomial
from repro.soundness.calibration import (
    IsotonicCalibrator,
    brier_score,
    expected_calibration_error,
)
from repro.sqldb import Database
from repro.vector.base import recall_at_k
from repro.vector.distance import Metric, pairwise_distances

# ---------------------------------------------------------------------------
# Provenance semiring laws
# ---------------------------------------------------------------------------

variables = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def polynomials(draw, max_terms=3):
    poly = Polynomial.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        term = Polynomial.var(draw(variables))
        for _ in range(draw(st.integers(0, 2))):
            term = term * Polynomial.var(draw(variables))
        poly = poly + term
    return poly


class TestSemiringLaws:
    @given(polynomials(), polynomials())
    def test_addition_commutative(self, p, q):
        assert p + q == q + p

    @given(polynomials(), polynomials())
    def test_multiplication_commutative(self, p, q):
        assert p * q == q * p

    @given(polynomials(), polynomials(), polynomials())
    def test_addition_associative(self, p, q, r):
        assert (p + q) + r == p + (q + r)

    @given(polynomials(), polynomials(), polynomials())
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polynomials())
    def test_identities(self, p):
        assert p + Polynomial.zero() == p
        assert p * Polynomial.one() == p
        assert (p * Polynomial.zero()).is_zero

    @given(polynomials(), st.dictionaries(variables, st.integers(0, 5), min_size=4))
    def test_evaluation_is_homomorphism(self, p, assignment):
        # evaluate(p + p) == evaluate(p) + evaluate(p) in the counting semiring
        doubled = p + p
        assert doubled.evaluate(assignment) == 2 * p.evaluate(assignment)


# ---------------------------------------------------------------------------
# Triple store axioms
# ---------------------------------------------------------------------------

subjects = st.sampled_from(["s1", "s2", "s3"])
predicates = st.sampled_from(["p1", "p2"])
objects = st.sampled_from(["o1", "o2", 1, 2, True])


class TestTripleStoreAxioms:
    @given(st.lists(st.tuples(subjects, predicates, objects), max_size=20))
    def test_match_wildcards_consistent_with_full_scan(self, triples):
        store = TripleStore()
        for s, p, o in triples:
            store.add(s, p, o)
        everything = set(store.match())
        for s in ("s1", "s2", "s3"):
            expected = {t for t in everything if t.subject == s}
            assert set(store.match(subject=s)) == expected
        for p in ("p1", "p2"):
            expected = {t for t in everything if t.predicate == p}
            assert set(store.match(predicate=p)) == expected

    @given(st.lists(st.tuples(subjects, predicates, objects), max_size=20))
    def test_add_remove_roundtrip(self, triples):
        store = TripleStore()
        for s, p, o in triples:
            store.add(s, p, o)
        for s, p, o in triples:
            store.remove(s, p, o)
        assert len(store) == 0
        assert store.match() == []

    @given(st.lists(st.tuples(subjects, predicates, objects), max_size=20))
    def test_set_semantics(self, triples):
        store = TripleStore()
        for s, p, o in triples:
            store.add(s, p, o)
            store.add(s, p, o)
        assert len(store) == len({(s, p, o) for s, p, o in triples})


# ---------------------------------------------------------------------------
# Similarity kernels
# ---------------------------------------------------------------------------

words = st.text(alphabet="abcdefgh", min_size=1, max_size=10)


class TestSimilarityKernelProperties:
    @given(words, words)
    def test_symmetry(self, a, b):
        assert edit_similarity(a, b) == edit_similarity(b, a)
        assert trigram_similarity(a, b) == trigram_similarity(b, a)
        assert token_overlap(a, b) == token_overlap(b, a)

    @given(words)
    def test_identity(self, a):
        assert edit_similarity(a, a) == 1.0
        assert trigram_similarity(a, a) == 1.0

    @given(words, words)
    def test_bounds(self, a, b):
        for kernel in (edit_similarity, trigram_similarity, token_overlap):
            value = kernel(a, b)
            assert 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# SQL engine invariants
# ---------------------------------------------------------------------------

small_ints = st.integers(-100, 100)
rows_strategy = st.lists(
    st.tuples(small_ints, st.sampled_from(["x", "y", "z"])), min_size=0, max_size=25
)


def build_db(rows):
    db = Database()
    db.execute("CREATE TABLE t (v INT, g TEXT)")
    table = db.catalog.table("t")
    for value, group in rows:
        table.insert([value, group])
    return db


class TestSQLInvariants:
    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_count_matches_python(self, rows):
        db = build_db(rows)
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == len(rows)

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_sum_matches_python(self, rows):
        db = build_db(rows)
        result = db.execute("SELECT SUM(v) FROM t").scalar()
        expected = sum(v for v, _g in rows) if rows else None
        assert result == expected

    @given(rows_strategy, small_ints)
    @settings(max_examples=40, deadline=None)
    def test_filter_matches_python(self, rows, threshold):
        db = build_db(rows)
        result = db.execute(f"SELECT COUNT(*) FROM t WHERE v > {threshold}").scalar()
        assert result == sum(1 for v, _g in rows if v > threshold)

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_group_counts_partition_total(self, rows):
        db = build_db(rows)
        grouped = db.execute("SELECT g, COUNT(*) FROM t GROUP BY g")
        assert sum(count for _g, count in grouped.rows) == len(rows)

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_lineage_covers_exactly_matching_rows(self, rows):
        db = build_db(rows)
        result = db.execute("SELECT v FROM t WHERE v >= 0")
        matching = sum(1 for v, _g in rows if v >= 0)
        assert len(result.rows) == matching
        cited = result.all_source_rows()
        assert len(cited) == matching

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_order_by_is_sorted(self, rows):
        db = build_db(rows)
        values = [v for (v,) in db.execute("SELECT v FROM t ORDER BY v ASC").rows]
        assert values == sorted(values)

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_distinct_removes_duplicates_only(self, rows):
        db = build_db(rows)
        distinct = db.execute("SELECT DISTINCT v FROM t").rows
        assert sorted(v for (v,) in distinct) == sorted({v for v, _g in rows})


# ---------------------------------------------------------------------------
# Calibration invariants
# ---------------------------------------------------------------------------


class TestCalibrationProperties:
    @given(
        st.lists(
            st.tuples(st.floats(0, 1), st.integers(0, 1)), min_size=5, max_size=80
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_metrics_bounded(self, pairs):
        confidences = [c for c, _o in pairs]
        outcomes = [float(o) for _c, o in pairs]
        assert 0.0 <= expected_calibration_error(confidences, outcomes) <= 1.0
        assert 0.0 <= brier_score(confidences, outcomes) <= 1.0

    @given(
        st.lists(
            st.tuples(st.floats(0, 1), st.integers(0, 1)), min_size=10, max_size=80
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_isotonic_output_is_probability_and_monotone(self, pairs):
        confidences = np.array([c for c, _o in pairs])
        outcomes = np.array([float(o) for _c, o in pairs])
        calibrator = IsotonicCalibrator().fit(confidences, outcomes)
        grid = np.linspace(0, 1, 21)
        transformed = calibrator.transform(grid)
        assert np.all(transformed >= 0.0)
        assert np.all(transformed <= 1.0)
        assert np.all(np.diff(transformed) >= -1e-12)


# ---------------------------------------------------------------------------
# Vector-search invariants
# ---------------------------------------------------------------------------


class TestVectorProperties:
    @given(st.integers(2, 30), st.integers(2, 8), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_distances_nonnegative_and_self_zero(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n, dim))
        distances = pairwise_distances(data[0], data, Metric.L2)
        assert np.all(distances >= 0)
        assert distances[0] == 0.0

    @given(st.integers(1, 10))
    def test_recall_of_identical_lists_is_one(self, k):
        ids = list(range(k))
        assert recall_at_k(ids, ids) == 1.0

    @given(st.lists(st.integers(), max_size=10, unique=True))
    def test_recall_bounds(self, exact):
        assert 0.0 <= recall_at_k([], exact) <= 1.0


# ---------------------------------------------------------------------------
# Metric invariants
# ---------------------------------------------------------------------------

tuples_of_ints = st.lists(st.tuples(small_ints), max_size=8)


class TestMetricProperties:
    @given(tuples_of_ints)
    def test_execution_accuracy_reflexive(self, rows):
        assert execution_accuracy(rows, rows)
        assert execution_accuracy(rows, rows, ordered=True)

    @given(tuples_of_ints, tuples_of_ints)
    def test_execution_accuracy_symmetric(self, a, b):
        assert execution_accuracy(a, b) == execution_accuracy(b, a)

    @given(st.lists(st.floats(-5, 5), min_size=4, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_acf_lag_zero_is_one(self, series):
        array = np.asarray(series)
        if np.std(array) == 0:
            return  # constant series: ACF degenerates, handled elsewhere
        acf = autocorrelation(array, min(5, len(array) - 1))
        assert acf[0] == 1.0
        assert np.all(np.abs(acf) <= 1.0 + 1e-9)


# ---------------------------------------------------------------------------
# Logical form -> SQL -> AST round trip
# ---------------------------------------------------------------------------

from repro.nl.grammar import AggregateSpec, FilterSpec, OrderSpec, QueryIntent
from repro.nl.sqlgen import compile_intent
from repro.sqldb.parser import parse_sql

column_names = st.sampled_from(["alpha", "beta", "gamma", "delta"])
agg_functions = st.sampled_from(["SUM", "AVG", "MIN", "MAX"])
operators = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
filter_values = st.one_of(
    st.integers(-1000, 1000),
    st.floats(-100, 100, allow_nan=False).map(lambda v: round(v, 3)),
    st.text(alphabet="abcxyz' ", min_size=1, max_size=8),
)


@st.composite
def intents(draw):
    use_group = draw(st.booleans())
    use_agg = use_group or draw(st.booleans())
    group_by = [draw(column_names)] if use_group else []
    aggregates = []
    if use_agg:
        if draw(st.booleans()):
            aggregates = [AggregateSpec(function="COUNT", column=None)]
        else:
            aggregates = [
                AggregateSpec(function=draw(agg_functions), column=draw(column_names))
            ]
    select_columns = []
    if not use_agg:
        select_columns = draw(
            st.lists(column_names, min_size=1, max_size=3, unique=True)
        )
    filters = draw(
        st.lists(
            st.builds(
                FilterSpec,
                column=column_names,
                operator=operators,
                value=filter_values,
            ),
            max_size=3,
        )
    )
    order_by = None
    if draw(st.booleans()):
        target = group_by[0] if group_by else (
            aggregates[0].output_name if aggregates else select_columns[0]
        )
        order_by = OrderSpec(column=target, descending=draw(st.booleans()))
    limit = draw(st.one_of(st.none(), st.integers(1, 50)))
    return QueryIntent(
        table="t",
        select_columns=select_columns,
        aggregates=aggregates,
        filters=filters,
        group_by=group_by,
        order_by=order_by,
        limit=limit,
    )


class TestIntentCompilationProperties:
    @given(intents())
    @settings(max_examples=80, deadline=None)
    def test_compiled_sql_parses_to_fixpoint(self, intent):
        # Compiled SQL must parse, and text -> AST -> text must be a
        # fixpoint after one normalisation pass (losslessness).  The
        # first pass may normalise spelling (e.g. -1 -> (-1)).
        sql = compile_intent(intent).to_sql()
        once = parse_sql(sql).to_sql()
        twice = parse_sql(once).to_sql()
        assert twice == once

    @given(intents())
    @settings(max_examples=200, deadline=None)
    def test_compiled_statement_is_what_its_text_parses_to(self, intent):
        # The engine executes and verifies the compiled statement without
        # re-reading its text; that is sound only because the text parses
        # back to the very same AST (negative numbers included).
        statement = compile_intent(intent)
        assert parse_sql(statement.to_sql()) == statement

    @given(intents())
    @settings(max_examples=40, deadline=None)
    def test_signature_stable_under_compile(self, intent):
        # Compiling must not mutate the intent.
        before = intent.signature()
        compile_intent(intent)
        assert intent.signature() == before
