"""Tests for the retrieval stack: documents, BM25, hybrid, dataset search."""

import pytest

from repro.errors import CDAError
from repro.retrieval import (
    BM25Index,
    DatasetSearchEngine,
    Document,
    DocumentStore,
    HybridRetriever,
)
from repro.retrieval.hybrid import reciprocal_rank_fusion


@pytest.fixture
def store():
    documents = DocumentStore()
    documents.add_text(
        "swiss_labour",
        "Swiss labour market overview",
        "Employment and unemployment statistics for Swiss cantons, "
        "including workforce participation rates.",
        source="https://example.ch/labour",
    )
    documents.add_text(
        "chocolate",
        "Chocolate production report",
        "Cocoa imports and chocolate manufacturing output by region.",
    )
    documents.add_text(
        "barometer",
        "Labour market barometer methodology",
        "The barometer is a monthly leading indicator from expert surveys "
        "about the labour market.",
    )
    return documents


class TestDocumentStore:
    def test_add_and_get(self, store):
        assert store.get("chocolate").title.startswith("Chocolate")

    def test_duplicate_rejected(self, store):
        with pytest.raises(CDAError):
            store.add_text("chocolate", "again", "text")

    def test_missing_raises(self, store):
        with pytest.raises(CDAError):
            store.get("nope")

    def test_snippet_truncates(self, store):
        snippet = store.get("swiss_labour").snippet(30)
        assert len(snippet) <= 30
        assert snippet.endswith("...")

    def test_order_preserved(self, store):
        assert store.ids() == ["swiss_labour", "chocolate", "barometer"]


class TestBM25:
    def test_relevant_document_ranks_first(self, store):
        index = BM25Index()
        index.build(store)
        hits = index.search("labour market statistics")
        assert hits[0].doc_id in ("swiss_labour", "barometer")
        assert hits[-1].doc_id != hits[0].doc_id

    def test_irrelevant_query_no_hits(self, store):
        index = BM25Index()
        index.build(store)
        assert index.search("quantum entanglement") == []

    def test_term_frequency_matters(self, store):
        index = BM25Index()
        index.build(store)
        hits = index.search("barometer")
        assert hits[0].doc_id == "barometer"

    def test_incremental_add(self, store):
        index = BM25Index()
        index.build(store)
        index.add_document(
            Document(doc_id="new", title="zebra migration", text="zebra zebra zebra")
        )
        hits = index.search("zebra")
        assert hits[0].doc_id == "new"

    def test_empty_index(self):
        index = BM25Index()
        index.build(DocumentStore())
        assert index.search("anything") == []

    def test_parameter_validation(self):
        with pytest.raises(CDAError):
            BM25Index(k1=0)
        with pytest.raises(CDAError):
            BM25Index(b=2.0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_non_positive_k_rejected(self, store, k):
        index = BM25Index()
        index.build(store)
        with pytest.raises(ValueError, match="^k must be positive$"):
            index.search("labour market", k)


class TestRRF:
    def test_agreement_wins(self):
        fused = reciprocal_rank_fusion([["a", "b", "c"], ["a", "c", "b"]])
        assert fused[0][0] == "a"

    def test_single_list_preserved(self):
        fused = reciprocal_rank_fusion([["x", "y"]])
        assert [doc for doc, _s in fused] == ["x", "y"]

    def test_item_in_one_list_still_ranked(self):
        fused = reciprocal_rank_fusion([["a"], ["b"]])
        assert {doc for doc, _s in fused} == {"a", "b"}


class TestHybridRetriever:
    def test_hybrid_combines_signals(self, store):
        retriever = HybridRetriever(store)
        retriever.build()
        hits = retriever.search("labour market barometer indicator")
        assert hits[0].doc_id == "barometer"
        assert hits[0].lexical_rank is not None

    def test_dense_only_mode(self, store):
        retriever = HybridRetriever(store)
        retriever.build()
        hits = retriever.search_dense("labour market workforce", k=2)
        assert len(hits) == 2

    def test_lazy_build(self, store):
        retriever = HybridRetriever(store)
        assert retriever.search("labour", k=1)  # builds on demand

    @pytest.mark.parametrize("k", [0, -1])
    def test_non_positive_k_rejected(self, store, k):
        retriever = HybridRetriever(store)
        with pytest.raises(ValueError, match="^k must be positive$"):
            retriever.search_batch(["labour market barometer"], k)


class TestDatasetSearch:
    def test_discovery_finds_relevant_sources(self, swiss_domain):
        engine = DatasetSearchEngine(swiss_domain.registry, swiss_domain.vocabulary)
        hits = engine.search("overview of the working force in switzerland", k=3)
        names = [hit.info.name for hit in hits]
        assert "employment" in names or "barometer" in names

    def test_synonym_expansion_helps(self, swiss_domain):
        with_vocab = DatasetSearchEngine(
            swiss_domain.registry, swiss_domain.vocabulary
        )
        hits = with_vocab.search("jobs situation", k=3)
        assert any(hit.info.name == "employment" for hit in hits)

    def test_stale_sources_hidden(self, swiss_domain):
        engine = DatasetSearchEngine(swiss_domain.registry, swiss_domain.vocabulary)
        swiss_domain.registry.mark_stale("barometer")
        try:
            hits = engine.search("labour market barometer", k=5)
            assert all(hit.info.name != "barometer" for hit in hits)
        finally:
            swiss_domain.registry.refresh("barometer")

    @pytest.mark.parametrize("k", [0, -1])
    def test_non_positive_k_rejected(self, swiss_domain, k):
        engine = DatasetSearchEngine(swiss_domain.registry, swiss_domain.vocabulary)
        with pytest.raises(ValueError, match="^k must be positive$"):
            engine.search_batch(["labour market barometer"], k)

    def test_mode_validation(self, swiss_domain):
        with pytest.raises(ValueError):
            DatasetSearchEngine(swiss_domain.registry, mode="psychic")

    def test_prose_suggestions_shape(self, swiss_domain):
        engine = DatasetSearchEngine(swiss_domain.registry, swiss_domain.vocabulary)
        rows = engine.suggestions_for_prose("employment data", k=2)
        assert len(rows) <= 2
        for name, description, score in rows:
            assert isinstance(name, str)
            assert isinstance(score, float)


class TestRegistry:
    def test_sources_listing(self, swiss_domain):
        names = {info.name for info in swiss_domain.registry.sources()}
        assert {"barometer", "employment", "cantons"} <= names

    def test_info_lookup(self, swiss_domain):
        info = swiss_domain.registry.info("barometer")
        assert info.kind == "table"
        assert info.update_cadence == "monthly"

    def test_metadata_documents_describe_columns(self, swiss_domain):
        doc = swiss_domain.registry.metadata_documents.get("employment")
        assert "canton" in doc.text

    def test_duplicate_registration_rejected(self, swiss_domain):
        from repro.sqldb.table import Table
        from repro.sqldb.types import Column, ColumnType, Schema

        table = Table(
            name="barometer",
            schema=Schema(columns=[Column("x", ColumnType.INTEGER)]),
        )
        with pytest.raises(CDAError):
            swiss_domain.registry.register_table(table, description="dup")
