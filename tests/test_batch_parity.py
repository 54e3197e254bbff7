"""Independent references for the batched retrieval hot path.

Every vector index has one search path: ``search`` is a one-row
``search_batch``.  Brute force, IVF, LSH and learned-stop IVF implement
only the batch kernel; HNSW and progressive implement only the
per-query traversal, which ``search_batch`` loops over.  These tests
check that path against references that share none of its code:

* a test-local per-query scan (:func:`reference_search`) — score the
  index's own candidates (all points, the probed posting lists, or the
  bucket union) with :func:`pairwise_distances` and rank them with a
  full stable argsort, charging the same work counters;
* for HNSW, a golden fixture of graphs and answers
  (``tests/data/hnsw_golden.json``) recorded while the scalar per-edge
  traversal still existed, checked equal to the vectorised one at
  capture time, plus a recall floor against brute force;
* hand-captured pre-batch counter values, and a straight-line reference
  reimplementation of the original BM25 scoring loop.

Re-record the HNSW fixture with
``PYTHONPATH=src python tests/test_batch_parity.py`` only for a
deliberate change to graph construction or traversal.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionMismatchError, IndexNotBuiltError
from repro.obs import get_registry
from repro.retrieval.bm25 import BM25Index
from repro.retrieval.documents import Document, DocumentStore
from repro.vector import (
    BruteForceIndex,
    HNSWIndex,
    IVFIndex,
    LSHIndex,
    LearnedStopIVFIndex,
    Metric,
    ProgressiveIndex,
    SearchResult,
    VectorDataset,
    generate_clustered_dataset,
    pairwise_distances,
)
from repro.vector.base import recall_at_k
from repro.vector.dataset import generate_query_set
from repro.vector.embedding import HashingEmbedder, tokenize_text

METRICS = [Metric.L2, Metric.COSINE, Metric.INNER_PRODUCT]

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _assert_result_parity(expected, actual, label=""):
    assert expected.ids == actual.ids, label
    assert expected.distances == actual.distances, label
    assert expected.distance_computations == actual.distance_computations, label
    assert expected.candidates_visited == actual.candidates_visited, label
    assert expected.guarantee_delta == actual.guarantee_delta, label
    assert expected.empty_by_threshold == actual.empty_by_threshold, label
    assert expected.metadata == actual.metadata, label


def _make_workload(seed, n_points=120, dim=6, n_queries=4):
    rng = np.random.default_rng(seed)
    dataset = generate_clustered_dataset(n_points, dim, 3, rng)
    queries = generate_query_set(dataset, n_queries, rng)
    return dataset, queries


INDEX_FACTORIES = {
    "brute": lambda metric: BruteForceIndex(metric=metric),
    "ivf": lambda metric: IVFIndex(n_lists=6, n_probe=2, seed=1, metric=metric),
    "hnsw": lambda metric: HNSWIndex(
        m=4, ef_construction=16, ef_search=10, seed=1, metric=metric
    ),
    "lsh": lambda metric: LSHIndex(n_tables=4, n_bits=6, seed=1, metric=metric),
    "progressive": lambda metric: ProgressiveIndex(delta=0.1, seed=1, metric=metric),
}

#: Indexes whose batch kernel has a per-query scan reference below.
SCAN_KINDS = ("brute", "ivf", "lsh")


# ---------------------------------------------------------------------------
# the per-query scan reference
# ---------------------------------------------------------------------------


def _reference_scan(index, query, positions, k, base_work=0, **metadata):
    """Score ``positions`` one query at a time; rank by full stable argsort."""
    distances = pairwise_distances(
        query, index.dataset.vectors[positions], index.metric
    )
    order = np.argsort(distances, kind="stable")[:k]
    return SearchResult(
        ids=[index.dataset.ids[int(position)] for position in positions[order]],
        distances=[float(distance) for distance in distances[order]],
        distance_computations=base_work + len(positions),
        candidates_visited=len(positions),
        metadata=metadata,
    )


def _reference_ivf(index, query, k, n_probe):
    """Scan the ``n_probe`` posting lists nearest ``query``, in probe order."""
    centroid_distances = pairwise_distances(query, index._centroids, index.metric)
    probed = np.argsort(centroid_distances, kind="stable")[:n_probe]
    members = [index._lists[int(list_id)] for list_id in probed]
    members = [positions for positions in members if len(positions)]
    base_work = len(index._centroids)
    if not members:
        return SearchResult(
            ids=[],
            distances=[],
            distance_computations=base_work,
            metadata={"probes": len(probed)},
        )
    return _reference_scan(
        index, query, np.concatenate(members), k, base_work, probes=len(probed)
    )


def _reference_lsh(index, query, k):
    """Scan the union of the query's buckets (and multiprobes) per table."""
    shifted = query - index._centre
    flips = [0] + [
        1 << bit for bit in range(min(index.multiprobe_bits, index.n_bits))
    ]
    candidates: set[int] = set()
    for table, planes in zip(index._tables, index._hyperplanes):
        signature = int(index._signatures(shifted[None, :], planes)[0])
        for flip in flips:
            candidates.update(table.get(signature ^ flip, []))
    if not candidates:
        return SearchResult(
            ids=[],
            distances=[],
            distance_computations=0,
            metadata={"buckets_empty": True},
        )
    positions = np.fromiter(candidates, dtype=np.int64, count=len(candidates))
    return _reference_scan(index, query, positions, k)


def reference_search(index, query, k):
    """What the index's single-query scan returned before it became a
    one-row batch: the same candidates, ranking, tie-breaks and counters."""
    k = min(k, len(index.dataset))
    if isinstance(index, LearnedStopIVFIndex):
        probes = index.predict_probes(query)
        result = _reference_ivf(index, query, k, probes)
        result.metadata["predicted_probes"] = probes
        return result
    if isinstance(index, IVFIndex):
        return _reference_ivf(index, query, k, min(index.n_probe, len(index._lists)))
    if isinstance(index, LSHIndex):
        return _reference_lsh(index, query, k)
    assert isinstance(index, BruteForceIndex) and index.max_distance is None
    result = _reference_scan(index, query, np.arange(len(index.dataset)), k)
    result.guarantee_delta = 0.0
    return result


def _assert_matches_reference(index, queries, k, label):
    expected = [reference_search(index, query, k) for query in queries]
    searched = [index.search(query, k) for query in queries]
    batched = index.search_batch(queries, k)
    assert len(batched) == len(queries)
    for reference, single, batch in zip(expected, searched, batched):
        _assert_result_parity(reference, single, f"{label} search")
        _assert_result_parity(reference, batch, f"{label} search_batch")


# ---------------------------------------------------------------------------
# hypothesis: search and search_batch against the references
# ---------------------------------------------------------------------------


class TestSearchBatchParity:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 500),
        kind=st.sampled_from(sorted(INDEX_FACTORIES)),
        metric=st.sampled_from(METRICS),
        k=st.integers(1, 12),
    )
    def test_batch_matches_sequential(self, seed, kind, metric, k):
        dataset, queries = _make_workload(seed)
        index = INDEX_FACTORIES[kind](metric)
        index.build(dataset)
        label = f"{kind}/{metric.value}/k={k}"
        if kind in SCAN_KINDS:
            _assert_matches_reference(index, queries, k, label)
            return
        # HNSW and progressive implement only the per-query traversal
        # (pinned by the golden fixture and oracle tests); the batch
        # entry point must loop over it unchanged.
        batched = index.search_batch(queries, k)
        for query, batch in zip(queries, batched):
            _assert_result_parity(index.search(query, k), batch, label)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 200), k=st.integers(1, 8))
    def test_learned_stop_batch_matches_sequential(self, seed, k):
        dataset, queries = _make_workload(seed)
        index = LearnedStopIVFIndex(n_lists=6, seed=1)
        index.build(dataset)
        train_queries = generate_query_set(dataset, 16, np.random.default_rng(seed + 1))
        index.train(train_queries, k=k)
        _assert_matches_reference(index, queries, k, "learned_stop")

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
    def test_k_past_dataset_and_sparse_candidates(self, metric):
        # k beyond the dataset is clamped; a candidate set smaller than k
        # (one bucket, one posting list) returns every candidate.
        dataset, queries = _make_workload(3, n_points=40)
        indexes = [
            BruteForceIndex(metric=metric),
            IVFIndex(n_lists=8, n_probe=1, seed=2, metric=metric),
            LSHIndex(n_tables=1, n_bits=10, multiprobe_bits=0, seed=2, metric=metric),
        ]
        for index in indexes:
            index.build(dataset)
            for k in (1, 7, 50):
                _assert_matches_reference(index, queries, k, f"{index.name}/k={k}")

    def test_duplicate_points_tie_break_identical(self):
        # Exact duplicates force distance ties; both entry points must
        # break them like the reference (by candidate order).
        rng = np.random.default_rng(7)
        base = rng.normal(size=(10, 4))
        vectors = np.vstack([base, base, base])
        dataset = VectorDataset(vectors=vectors, ids=list(range(len(vectors))))
        queries = base[:4] + 1e-12
        for kind in SCAN_KINDS:
            index = INDEX_FACTORIES[kind](Metric.L2)
            index.build(dataset)
            _assert_matches_reference(index, queries, 8, kind)

    def test_batch_validation(self):
        dataset, queries = _make_workload(0)
        index = BruteForceIndex()
        index.build(dataset)
        assert index.search_batch(np.empty((0, dataset.dim)), 3) == []
        with pytest.raises(Exception):
            index.search_batch(queries[0], 3)  # 1-d input rejected
        with pytest.raises(Exception):
            index.search_batch(queries[:, :-1], 3)  # dim mismatch


# ---------------------------------------------------------------------------
# search validation, for every index class
# ---------------------------------------------------------------------------


def _learned_stop(metric):
    return LearnedStopIVFIndex(n_lists=6, seed=1, metric=metric)


ALL_FACTORIES = {**INDEX_FACTORIES, "learned_stop": _learned_stop}


class TestSearchValidation:
    @pytest.fixture(params=sorted(ALL_FACTORIES))
    def built(self, request):
        dataset, queries = _make_workload(5)
        index = ALL_FACTORIES[request.param](Metric.L2)
        index.build(dataset)
        if isinstance(index, LearnedStopIVFIndex):
            index.train(generate_query_set(dataset, 8, np.random.default_rng(6)), k=3)
        return index, queries

    def test_two_dimensional_query_rejected(self, built):
        index, queries = built
        with pytest.raises(DimensionMismatchError) as caught:
            index.search(queries[:1], 3)
        assert str(caught.value) == (
            "query shape (1, 6) does not match dataset dim 6"
        )

    def test_wrong_dimension_rejected(self, built):
        index, queries = built
        with pytest.raises(DimensionMismatchError) as caught:
            index.search(queries[0][:-1], 3)
        assert str(caught.value) == "query shape (5,) does not match dataset dim 6"

    @pytest.mark.parametrize("k", [0, -1])
    def test_non_positive_k_rejected(self, built, k):
        index, queries = built
        with pytest.raises(ValueError) as caught:
            index.search(queries[0], k)
        assert str(caught.value) == "k must be positive"

    def test_unbuilt_index_rejected(self, built):
        index, queries = built
        fresh = type(index)()
        with pytest.raises(IndexNotBuiltError) as caught:
            fresh.search(queries[0], 3)
        assert str(caught.value) == f"{index.name} index was not built"

    def test_each_search_counts_once(self, built):
        index, queries = built
        searches = get_registry().counter("vector.index.searches")
        before = searches.value
        for query in queries[:3]:
            index.search(query, 3)
        assert searches.value == before + 3
        index.search_batch(queries, 3)
        assert searches.value == before + 3 + len(queries)


# ---------------------------------------------------------------------------
# HNSW: golden graphs and answers, and recall against brute force
# ---------------------------------------------------------------------------

HNSW_GOLDEN = Path(__file__).parent / "data" / "hnsw_golden.json"
GOLDEN_SEEDS = range(20)
GOLDEN_KS = (1, 5, 10)


def _golden_index(seed, metric):
    dataset, queries = _make_workload(seed, n_points=60, dim=5, n_queries=3)
    index = HNSWIndex(m=4, ef_construction=16, ef_search=8, seed=1, metric=metric)
    index.build(dataset)
    return index, queries


def _graph_record(index):
    """Each layer as ``[node, links]`` pairs in insertion order."""
    return [[[node, list(links)] for node, links in layer.items()] for layer in index._graph]


def _result_record(result):
    return [
        result.ids,
        result.distances,
        result.distance_computations,
        result.candidates_visited,
        result.metadata["ef"],
    ]


def record_hnsw_golden():
    """Graphs, entry points and answers of every golden workload."""
    cases = {}
    for metric in METRICS:
        for seed in GOLDEN_SEEDS:
            index, queries = _golden_index(seed, metric)
            cases[f"{metric.value}/{seed}"] = {
                "entry_point": index._entry_point,
                "graph": _graph_record(index),
                "results": {
                    str(k): [_result_record(index.search(query, k)) for query in queries]
                    for k in GOLDEN_KS
                },
            }
    return cases


class TestHNSWGolden:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(HNSW_GOLDEN, encoding="utf-8") as handle:
            return json.load(handle)

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
    def test_graph_and_answers_match_golden(self, golden, metric):
        for seed in GOLDEN_SEEDS:
            expected = golden[f"{metric.value}/{seed}"]
            index, queries = _golden_index(seed, metric)
            label = f"{metric.value}/seed={seed}"
            assert index._entry_point == expected["entry_point"], label
            assert _graph_record(index) == expected["graph"], label
            for k in GOLDEN_KS:
                want = expected["results"][str(k)]
                searched = [_result_record(index.search(q, k)) for q in queries]
                batched = [_result_record(r) for r in index.search_batch(queries, k)]
                assert searched == want, f"{label}/k={k} search"
                assert batched == want, f"{label}/k={k} search_batch"

    @pytest.mark.parametrize(
        "metric, floor",
        [(Metric.L2, 0.9), (Metric.COSINE, 0.88), (Metric.INNER_PRODUCT, 0.65)],
        ids=lambda value: getattr(value, "value", value),
    )
    def test_recall_against_brute_force(self, metric, floor):
        # On this workload the scalar traversal reached recall@{1,5,10} of
        # 0.95/0.97/0.94 (L2), 0.95/0.955/0.93 (cosine) and 0.70/0.79/0.84
        # (inner product); each floor sits about 0.05 under the lowest.
        rng = np.random.default_rng(11)
        dataset = generate_clustered_dataset(600, 16, 8, rng)
        queries = generate_query_set(dataset, 40, rng)
        index = HNSWIndex(m=4, ef_construction=16, ef_search=8, seed=1, metric=metric)
        index.build(dataset)
        exact = BruteForceIndex(metric=metric)
        exact.build(dataset)
        for k in GOLDEN_KS:
            recall = np.mean(
                [
                    recall_at_k(approximate.ids, truth.ids)
                    for approximate, truth in zip(
                        index.search_batch(queries, k), exact.search_batch(queries, k)
                    )
                ]
            )
            assert recall >= floor, (k, recall)


# ---------------------------------------------------------------------------
# counter pinning against pre-batch values
# ---------------------------------------------------------------------------


class TestDistanceCounterPinning:
    """Values captured from the repository *before* the batched kernels
    landed (per-edge ``single_distance`` HNSW, per-vector IVF scan).  The
    batched kernels must charge identical work.
    """

    @pytest.fixture()
    def workload(self):
        rng = np.random.default_rng(42)
        dataset = generate_clustered_dataset(300, 8, 4, rng)
        queries = generate_query_set(dataset, 5, rng)
        return dataset, queries

    def test_hnsw_counter_pinned(self, workload):
        dataset, queries = workload
        index = HNSWIndex(m=4, ef_construction=16, ef_search=12, seed=1)
        index.build(dataset)
        results = [index.search(query, 5) for query in queries]
        assert [r.distance_computations for r in results] == [55, 73, 64, 60, 76]
        assert results[0].ids == [74, 78, 136, 206, 244]
        assert results[1].ids == [66, 246, 230, 295, 94]

    def test_ivf_counter_pinned(self, workload):
        dataset, queries = workload
        index = IVFIndex(n_lists=8, n_probe=2, seed=1)
        index.build(dataset)
        results = [index.search(query, 5) for query in queries]
        assert [r.distance_computations for r in results] == [57, 80, 150, 65, 150]

    def test_batch_counters_match_pinned(self, workload):
        dataset, queries = workload
        hnsw = HNSWIndex(m=4, ef_construction=16, ef_search=12, seed=1)
        hnsw.build(dataset)
        ivf = IVFIndex(n_lists=8, n_probe=2, seed=1)
        ivf.build(dataset)
        assert [
            r.distance_computations for r in hnsw.search_batch(queries, 5)
        ] == [55, 73, 64, 60, 76]
        assert [
            r.distance_computations for r in ivf.search_batch(queries, 5)
        ] == [57, 80, 150, 65, 150]


# ---------------------------------------------------------------------------
# embed_batch == stacked embed
# ---------------------------------------------------------------------------


TEXT_ALPHABET = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=127)
    | st.sampled_from(" .,-_"),
    max_size=60,
)


class TestEmbedBatchParity:
    @settings(max_examples=20, deadline=None)
    @given(texts=st.lists(TEXT_ALPHABET, min_size=1, max_size=8))
    def test_batch_matches_stacked_singles(self, texts):
        embedder = HashingEmbedder(dim=32)
        stacked = np.stack([embedder.embed(text) for text in texts])
        batched = embedder.embed_batch(texts)
        assert batched.shape == stacked.shape
        assert np.array_equal(batched, stacked)

    def test_empty_batch(self):
        embedder = HashingEmbedder(dim=16)
        assert embedder.embed_batch([]).shape == (0, 16)


# ---------------------------------------------------------------------------
# BM25: vectorised scoring == reference loop; add_document regression
# ---------------------------------------------------------------------------


def _reference_bm25_search(index, query, k):
    """The original per-document Python scoring loop, kept verbatim as a
    behavioural reference for the vectorised implementation.
    """
    if index._n_documents == 0:
        return []
    scores = {}
    for term in tokenize_text(query):
        postings = index._postings.get(term)
        if not postings:
            continue
        idf = index._idf(term)
        for doc_id, frequency in postings.items():
            length_norm = 1.0 - index.b + index.b * (
                index._doc_lengths[doc_id] / index._average_length
            )
            contribution = idf * (
                frequency * (index.k1 + 1.0)
                / (frequency + index.k1 * length_norm)
            )
            scores[doc_id] = scores.get(doc_id, 0.0) + contribution
    ranked = sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))
    return [(doc_id, score) for doc_id, score in ranked[:k]]


WORDS = ["labour", "force", "swiss", "canton", "rate", "survey", "data", "health"]


@st.composite
def corpora(draw):
    n_docs = draw(st.integers(2, 10))
    docs = []
    for i in range(n_docs):
        tokens = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=12))
        docs.append((f"doc-{i}", " ".join(tokens)))
    return docs


class TestBM25Parity:
    @settings(max_examples=25, deadline=None)
    @given(
        docs=corpora(),
        query_terms=st.lists(st.sampled_from(WORDS), min_size=1, max_size=5),
        k=st.integers(1, 8),
    )
    def test_vectorised_matches_reference(self, docs, query_terms, k):
        store = DocumentStore()
        for doc_id, text in docs:
            store.add_text(doc_id, title=doc_id, text=text)
        index = BM25Index()
        index.build(store)
        query = " ".join(query_terms)
        reference = _reference_bm25_search(index, query, k)
        actual = index.search(query, k)
        assert [hit.doc_id for hit in actual] == [d for d, _ in reference]
        for hit, (_, score) in zip(actual, reference):
            assert math.isclose(hit.score, score, rel_tol=0.0, abs_tol=0.0) or (
                hit.score == score
            )

    def test_readd_document_replaces_old_postings(self):
        # Regression: re-adding a doc_id used to leave the old version's
        # postings in place and inflate the running average length.
        index = BM25Index()
        index.add_document(
            Document(doc_id="d1", title="old", text="zebra zebra zebra zebra")
        )
        index.add_document(Document(doc_id="d2", title="other", text="labour force"))
        index.add_document(Document(doc_id="d1", title="new", text="labour survey"))
        # The stale term must no longer hit d1.
        assert [hit.doc_id for hit in index.search("zebra", 5)] == []
        assert "d1" in {hit.doc_id for hit in index.search("labour", 5)}
        # Statistics reflect exactly the two live documents.
        assert index._n_documents == 2
        expected_avg = (
            len(tokenize_text("new\nlabour survey"))
            + len(tokenize_text("other\nlabour force"))
        ) / 2
        assert index._average_length == expected_avg

    def test_readd_matches_fresh_build(self):
        # After replacement the index must rank exactly like one built
        # from scratch over the final corpus.
        index = BM25Index()
        index.add_document(Document(doc_id="a", title="t", text="swiss labour data"))
        index.add_document(Document(doc_id="b", title="t", text="health survey"))
        index.add_document(Document(doc_id="a", title="t", text="canton health rate"))

        store = DocumentStore()
        store.add_text("a", title="t", text="canton health rate")
        store.add_text("b", title="t", text="health survey")
        fresh = BM25Index()
        fresh.build(store)

        for query in ("health", "canton rate", "swiss labour", "survey"):
            incremental = [(h.doc_id, h.score) for h in index.search(query, 5)]
            rebuilt = [(h.doc_id, h.score) for h in fresh.search(query, 5)]
            assert incremental == rebuilt

    def test_search_batch_matches_singles(self):
        store = DocumentStore()
        store.add_text("a", title="labour", text="swiss labour force survey")
        store.add_text("b", title="health", text="health canton data")
        store.add_text("c", title="rates", text="rate rate labour")
        index = BM25Index()
        index.build(store)
        queries = ["labour force", "health", "rate survey", "missingterm"]
        batched = index.search_batch(queries, 3)
        singles = [index.search(query, 3) for query in queries]
        assert [
            [(h.doc_id, h.score) for h in ranking] for ranking in batched
        ] == [[(h.doc_id, h.score) for h in ranking] for ranking in singles]


if __name__ == "__main__":
    with open(HNSW_GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(record_hnsw_golden(), handle, separators=(",", ":"))
        handle.write("\n")
