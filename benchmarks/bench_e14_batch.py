"""E14 — batched retrieval hot path: search_batch across the stack.

Paper claim (Section 3.2, P1 Efficiency): the holistic optimizer should
exploit "caching, batched computations, and sharing of computation".
This benchmark measures the batched-computations half for retrieval: one
matrix-product scan per query *batch* instead of per query (brute), and
one list-centric candidate-scoring kernel per batch (IVF).

Workloads:

* the E1 similarity workload (clustered vectors, 40 queries).  Brute
  force and IVF: a per-query reference scan (score each query's
  candidates alone, rank by a full stable argsort) vs one
  ``search_batch`` call, best of 5 runs.  HNSW: its ``search_batch``
  vs brute force's, with recall@10 against the exact answer — what the
  approximate graph buys over the exact batched scan;
* the E8 dataset-discovery suite run through both the single-query and
  the batched engine path, asserting MRR/NDCG/recall are *identical*.

Parity is asserted on every run: the reference scan, ``search_batch``
and a ``search`` loop return identical rankings, distances and
distance-computation counts, so a speedup that changed any answer would
fail here before it could ship.  Results go to
``benchmarks/results/BENCH_retrieval.json``.

Expected shape: ≥3× for batched brute force and IVF on the full-scale
E1 workload, and HNSW recall@10 ≥ 0.99.  ``E14_SCALE`` scales the
dataset (CI smoke uses 0.1; floors are asserted only at full scale).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import format_table, write_results
from repro.benchgen import mean_reciprocal_rank, recall_at_k
from repro.benchgen.metrics import mean_ndcg_at_k
from repro.datasets import (
    build_ecommerce_registry,
    build_healthcare_registry,
    build_swiss_labour_registry,
)
from repro.retrieval import DatasetSearchEngine
from repro.vector import (
    BruteForceIndex,
    HNSWIndex,
    IVFIndex,
    Metric,
    SearchResult,
    generate_clustered_dataset,
    pairwise_distances,
)
from repro.vector.base import recall_at_k as vector_recall_at_k
from repro.vector.dataset import generate_query_set

SCALE = float(os.environ.get("E14_SCALE", "1.0"))
#: Timing noise dominates small runs; only full scale asserts the floors.
ASSERT_SPEEDUPS = SCALE >= 1.0

RESULTS_DIR = Path(__file__).parent / "results"

# E1 workload parameters (bench_e1_similarity.py).
N_POINTS = max(200, int(6000 * SCALE))
DIM = 32
N_CLUSTERS = 24
N_QUERIES = 40
K = 10
SEED = 404

REPEATS = 5


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(SEED)
    dataset = generate_clustered_dataset(N_POINTS, DIM, N_CLUSTERS, rng)
    queries = generate_query_set(dataset, N_QUERIES, rng)
    return dataset, queries


def _best_of(callable_, repeats=REPEATS):
    best = float("inf")
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = callable_()
        best = min(best, time.perf_counter() - started)
    return best, value


def _ground_truth(dataset, queries):
    exact = BruteForceIndex(metric=Metric.L2)
    exact.build(dataset)
    return [result.ids for result in exact.search_batch(queries, K)]


def _reference_scan(index, query, positions, vectors, base_work=0):
    """Score one query's candidates alone; rank by a full stable argsort.

    ``vectors`` are the candidates' rows (``positions`` into the dataset).
    """
    distances = pairwise_distances(query, vectors, index.metric)
    order = np.argsort(distances, kind="stable")[:K]
    ids = index.dataset.ids
    return SearchResult(
        ids=[ids[int(position)] for position in positions[order]],
        distances=[float(distance) for distance in distances[order]],
        distance_computations=base_work + len(positions),
        candidates_visited=len(positions),
    )


def _reference_brute(index, query):
    vectors = index.dataset.vectors
    return _reference_scan(index, query, np.arange(len(vectors)), vectors)


def _reference_ivf(index, query):
    centroid_distances = pairwise_distances(query, index._centroids, index.metric)
    probed = np.argsort(centroid_distances, kind="stable")[: index.n_probe]
    positions = np.concatenate([index._lists[int(list_id)] for list_id in probed])
    return _reference_scan(
        index,
        query,
        positions,
        index.dataset.vectors[positions],
        len(index._centroids),
    )


def _answer(result):
    return (
        result.ids,
        result.distances,
        result.distance_computations,
        result.candidates_visited,
    )


def _measure_index(name, index, reference, queries, truth):
    """Per-query reference scan vs one batched call, with full parity."""
    sequential_seconds, expected = _best_of(
        lambda: [reference(index, query) for query in queries]
    )
    batch_seconds, batched = _best_of(lambda: index.search_batch(queries, K))
    searched = [index.search(query, K) for query in queries]
    for want, batch, single in zip(expected, batched, searched):
        assert _answer(batch) == _answer(want), name
        assert _answer(single) == _answer(want), name
    recall = sum(
        vector_recall_at_k(result.ids, ids)
        for result, ids in zip(batched, truth)
    ) / len(truth)
    speedup = sequential_seconds / batch_seconds if batch_seconds else float("inf")
    return {
        "series": name,
        "baseline": "per-query scan",
        "queries": len(queries),
        "sequential_seconds": round(sequential_seconds, 6),
        "batch_seconds": round(batch_seconds, 6),
        "speedup": round(speedup, 2),
        "recall_at_10": round(recall, 4),
        "parity": True,
    }


def _measure_hnsw(dataset, queries, brute, truth):
    """HNSW ``search_batch`` vs brute force ``search_batch``.

    The exact batched scan is the reference for both time and answers:
    the speedup is what the approximate graph buys over it, and recall
    is measured against its top-10.
    """
    index = HNSWIndex(m=8, ef_construction=64, ef_search=32, seed=SEED)
    index.build(dataset)
    brute_seconds, _exact = _best_of(lambda: brute.search_batch(queries, K))
    hnsw_seconds, batched = _best_of(lambda: index.search_batch(queries, K))
    searched = [index.search(query, K) for query in queries]
    for batch, single in zip(batched, searched):
        assert _answer(batch) == _answer(single)
    recall = sum(
        vector_recall_at_k(result.ids, ids)
        for result, ids in zip(batched, truth)
    ) / len(truth)
    speedup = brute_seconds / hnsw_seconds if hnsw_seconds else float("inf")
    return {
        "series": "hnsw(m=8,efs=32) vs brute",
        "baseline": "brute search_batch",
        "queries": len(queries),
        "sequential_seconds": round(brute_seconds, 6),
        "batch_seconds": round(hnsw_seconds, 6),
        # Well under 1 (pure-Python graph walk vs one numpy scan), so keep
        # enough digits for the regression gate's 20% tolerance.
        "speedup": round(speedup, 4),
        "recall_at_10": round(recall, 4),
        "parity": True,
    }


# -- E8 discovery through the batched engine path -------------------------------

E8_QUERIES = [
    ("swiss", "overview of the working force in switzerland",
     {"employment", "barometer"}, {"employment": 2, "barometer": 1}),
    ("swiss", "monthly leading indicator from expert surveys",
     {"barometer", "barometer_methodology"},
     {"barometer": 2, "barometer_methodology": 2}),
    ("swiss", "population of the cantons", {"cantons"}, {"cantons": 2}),
    ("swiss", "how employment statistics are collected",
     {"employment_survey_notes"}, {"employment_survey_notes": 2}),
    ("ecom", "customer demographics and countries",
     {"customers"}, {"customers": 2}),
    ("ecom", "revenue and sales transactions",
     {"orders"}, {"orders": 2, "shop_reporting_guide": 1}),
    ("ecom", "catalog of items with prices", {"products"}, {"products": 2}),
    ("ecom", "how is revenue defined in reports",
     {"shop_reporting_guide"}, {"shop_reporting_guide": 2}),
    ("health", "hospital admissions and ward costs",
     {"visits"}, {"visits": 2, "cohort_protocol": 1}),
    ("health", "cohort demographics and blood pressure",
     {"patients"}, {"patients": 2, "cohort_protocol": 1}),
    ("health", "study protocol and methodology",
     {"cohort_protocol"}, {"cohort_protocol": 2}),
    ("health", "seasonal winter peak of admissions",
     {"visits", "cohort_protocol"}, {"visits": 1, "cohort_protocol": 2}),
]


def _e8_metrics(rankings, relevant_sets, relevances):
    mrr = mean_reciprocal_rank(rankings, relevant_sets)
    ndcg = mean_ndcg_at_k(rankings, relevances, k=5)
    recall = sum(
        recall_at_k(ranking, relevant, 5)
        for ranking, relevant in zip(rankings, relevant_sets)
    ) / len(rankings)
    return round(mrr, 6), round(ndcg, 6), round(recall, 6)


def _run_e8_mode(domains, mode):
    """Single-query vs batched discovery, per domain, one engine each."""
    single_rankings, batch_rankings = [], []
    relevant_sets, relevances = [], []
    for domain_key in ("swiss", "ecom", "health"):
        domain = domains[domain_key]
        engine = DatasetSearchEngine(domain.registry, domain.vocabulary, mode=mode)
        entries = [entry for entry in E8_QUERIES if entry[0] == domain_key]
        texts = [query for _domain, query, _rel, _graded in entries]
        for hits in ([engine.search(text, k=5) for text in texts]):
            single_rankings.append([hit.info.name for hit in hits])
        for hits in engine.search_batch(texts, k=5):
            batch_rankings.append([hit.info.name for hit in hits])
        relevant_sets.extend(entry[2] for entry in entries)
        relevances.extend(entry[3] for entry in entries)
    return (
        _e8_metrics(single_rankings, relevant_sets, relevances),
        _e8_metrics(batch_rankings, relevant_sets, relevances),
        single_rankings == batch_rankings,
    )


def test_e14_batched_retrieval(workload, benchmark):
    dataset, queries = workload
    truth = _ground_truth(dataset, queries)

    records = []
    brute = BruteForceIndex(metric=Metric.L2)
    brute.build(dataset)
    records.append(
        _measure_index("brute", brute, _reference_brute, queries, truth)
    )

    ivf = IVFIndex(n_lists=48, n_probe=16, seed=SEED)
    ivf.build(dataset)
    records.append(
        _measure_index("ivf(48,probe=16)", ivf, _reference_ivf, queries, truth)
    )

    records.append(_measure_hnsw(dataset, queries, brute, truth))

    domains = {
        "swiss": build_swiss_labour_registry(seed=7),
        "ecom": build_ecommerce_registry(seed=7),
        "health": build_healthcare_registry(seed=7),
    }
    e8_records = []
    for mode in ("lexical", "dense", "hybrid"):
        single_stats, batch_stats, rankings_identical = _run_e8_mode(domains, mode)
        assert rankings_identical, mode
        assert single_stats == batch_stats, mode
        e8_records.append(
            {
                "mode": mode,
                "mrr": batch_stats[0],
                "ndcg_at_5": batch_stats[1],
                "recall_at_5": batch_stats[2],
                "identical_to_single_path": True,
            }
        )

    payload = {
        "experiment": "E14",
        "scale": SCALE,
        "n_points": N_POINTS,
        "dim": DIM,
        "n_queries": N_QUERIES,
        "k": K,
        "speedup_floor_asserted": ASSERT_SPEEDUPS,
        "e1_workload": records,
        "e8_discovery": e8_records,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "BENCH_retrieval.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)

    table_rows = [
        [
            record["series"],
            record["baseline"],
            f"{record['sequential_seconds'] * 1000:.1f}",
            f"{record['batch_seconds'] * 1000:.1f}",
            f"{record['speedup']:.2f}x",
            f"{record['recall_at_10']:.3f}",
        ]
        for record in records
    ]
    lines = format_table(
        ["index", "baseline", "baseline ms", "batch ms", "speedup", "recall@10"],
        table_rows,
        title=(
            f"E14: batched retrieval, n={N_POINTS} d={DIM} "
            f"q={N_QUERIES} k={K} (scale={SCALE})"
        ),
    )
    lines.append("")
    lines.extend(
        format_table(
            ["mode", "MRR", "NDCG@5", "recall@5", "== single path"],
            [
                [
                    record["mode"],
                    f"{record['mrr']:.3f}",
                    f"{record['ndcg_at_5']:.3f}",
                    f"{record['recall_at_5']:.3f}",
                    "yes",
                ]
                for record in e8_records
            ],
            title="E8 discovery suite through the batched path",
        )
    )
    write_results("e14_batch", lines)

    # Timed kernel: the batched brute-force scan.
    benchmark(lambda: brute.search_batch(queries, K))

    if ASSERT_SPEEDUPS:
        by_series = {record["series"]: record for record in records}
        assert by_series["brute"]["speedup"] >= 3.0
        assert by_series["ivf(48,probe=16)"]["speedup"] >= 3.0
        assert by_series["hnsw(m=8,efs=32) vs brute"]["recall_at_10"] >= 0.99
