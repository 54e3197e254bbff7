"""Tests for the knowledge-graph substrate."""

import pytest

from repro.errors import KGError, OntologyError
from repro.kg import (
    DomainVocabulary,
    Ontology,
    SchemaKnowledgeGraph,
    Triple,
    TripleStore,
    VocabularyTerm,
)
from repro.kg.vocabulary import edit_similarity, token_overlap, trigram_similarity


class TestTripleStore:
    def make(self):
        store = TripleStore()
        store.add("ent:a", "knows", "ent:b")
        store.add("ent:b", "knows", "ent:c")
        store.add("ent:a", "age", 30)
        return store

    def test_add_idempotent(self):
        store = self.make()
        size = len(store)
        store.add("ent:a", "knows", "ent:b")
        assert len(store) == size

    def test_contains(self):
        store = self.make()
        assert Triple("ent:a", "knows", "ent:b") in store
        assert Triple("ent:a", "knows", "ent:z") not in store

    @pytest.mark.parametrize(
        "pattern,expected",
        [
            (("ent:a", None, None), 2),
            ((None, "knows", None), 2),
            ((None, None, "ent:b"), 1),
            (("ent:a", "knows", None), 1),
            ((None, "knows", "ent:c"), 1),
            (("ent:a", None, 30), 1),
            ((None, None, None), 3),
        ],
    )
    def test_wildcard_matching(self, pattern, expected):
        store = self.make()
        assert len(store.match(*pattern)) == expected

    def test_remove(self):
        store = self.make()
        assert store.remove("ent:a", "knows", "ent:b")
        assert not store.remove("ent:a", "knows", "ent:b")
        assert len(store.match("ent:a", "knows", None)) == 0

    def test_literal_objects(self):
        store = self.make()
        assert store.match(None, "age", 30)[0].subject == "ent:a"

    def test_one_object(self):
        store = self.make()
        assert store.one_object("ent:a", "age") == 30
        store.add("ent:a", "age", 31)
        assert store.one_object("ent:a", "age") is None

    def test_empty_subject_rejected(self):
        with pytest.raises(KGError):
            TripleStore().add("", "p", "o")


class TestOntology:
    def make(self):
        ontology = Ontology()
        ontology.add_class("cls:Animal", label="animal")
        ontology.add_class("cls:Dog", label="dog", parent="cls:Animal")
        ontology.add_class("cls:Puppy", label="puppy", parent="cls:Dog")
        ontology.add_instance("rex", "cls:Puppy", label="rex")
        return ontology

    def test_transitive_ancestors(self):
        assert self.make().ancestors("cls:Puppy") == ["cls:Animal", "cls:Dog"]

    def test_descendants(self):
        assert self.make().descendants("cls:Animal") == ["cls:Dog", "cls:Puppy"]

    def test_is_subclass_of(self):
        ontology = self.make()
        assert ontology.is_subclass_of("cls:Puppy", "cls:Animal")
        assert not ontology.is_subclass_of("cls:Animal", "cls:Puppy")

    def test_type_inheritance(self):
        assert "cls:Animal" in self.make().types_of("rex")

    def test_instances_with_inference(self):
        assert self.make().instances_of("cls:Animal") == ["rex"]

    def test_is_a(self):
        assert self.make().is_a("rex", "cls:Dog")

    def test_cycle_rejected(self):
        ontology = self.make()
        with pytest.raises(OntologyError):
            ontology.add_subclass("cls:Animal", "cls:Puppy")

    def test_self_subclass_rejected(self):
        with pytest.raises(OntologyError):
            self.make().add_subclass("cls:Dog", "cls:Dog")

    def test_labels(self):
        ontology = self.make()
        assert ontology.label("rex") == "rex"
        assert ontology.label("unknown:thing") == "unknown:thing"


class TestSimilarityKernels:
    def test_trigram_identity(self):
        assert trigram_similarity("abc", "abc") == 1.0

    def test_token_overlap(self):
        assert token_overlap("labour market", "market data") == pytest.approx(1 / 3)

    def test_edit_similarity_typo(self):
        assert edit_similarity("caapcity", "capacity") >= 0.7

    def test_edit_similarity_transposition_single_edit(self):
        # OSA counts 'wieght' -> 'weight' as one edit.
        assert edit_similarity("wieght", "weight") == pytest.approx(1 - 1 / 6)

    def test_edit_similarity_bounds(self):
        assert edit_similarity("", "abc") == 0.0
        assert 0.0 <= edit_similarity("abc", "xyz") <= 1.0


class TestVocabulary:
    def make(self):
        vocabulary = DomainVocabulary()
        vocabulary.add_term(
            VocabularyTerm(
                name="employment",
                definition="people in work",
                synonyms=["working force", "workforce", "labour market"],
                schema_bindings=["table:employment"],
            )
        )
        vocabulary.add_term(
            VocabularyTerm(name="barometer", synonyms=["leading indicator"])
        )
        return vocabulary

    def test_exact_lookup(self):
        hit = self.make().lookup("employment")
        assert hit.match_kind == "exact"
        assert hit.score == 1.0

    def test_synonym_lookup(self):
        hit = self.make().lookup("working force")
        assert hit.term.name == "employment"
        assert hit.match_kind == "synonym"

    def test_fuzzy_lookup(self):
        hit = self.make().lookup("employmnt")
        assert hit is not None
        assert hit.term.name == "employment"

    def test_no_match(self):
        assert self.make().lookup("astronomy") is None

    def test_ground_question_prefers_exact_spans(self):
        grounded = self.make().ground_question(
            "overview of the working force in switzerland"
        )
        assert grounded
        assert grounded[0].term.name == "employment"
        assert grounded[0].match_kind == "synonym"

    def test_ground_question_multiple_terms(self):
        names = {
            hit.term.name
            for hit in self.make().ground_question(
                "is the barometer related to employment"
            )
        }
        assert names == {"barometer", "employment"}

    def test_duplicate_term_rejected(self):
        vocabulary = self.make()
        with pytest.raises(KGError):
            vocabulary.add_term(VocabularyTerm(name="employment"))

    def test_colliding_synonym_rejected(self):
        vocabulary = self.make()
        with pytest.raises(KGError):
            vocabulary.add_term(
                VocabularyTerm(name="jobs", synonyms=["workforce"])
            )

    def test_expand(self):
        assert "workforce" in self.make().expand("employment")


class TestSchemaKG:
    def test_tables_and_columns(self, employees_kg):
        assert set(employees_kg.tables()) == {"employees", "departments"}
        assert "salary" in employees_kg.columns_of("employees")

    def test_datatype(self, employees_kg):
        assert employees_kg.datatype_of("employees", "salary") == "FLOAT"
        assert employees_kg.datatype_of("employees", "name") == "TEXT"

    def test_find_tables_by_phrase(self, employees_kg):
        matches = employees_kg.find_tables("employees data")
        assert matches[0].table == "employees"

    def test_find_columns_scoped(self, employees_kg):
        matches = employees_kg.find_columns("budget", table="departments")
        assert matches[0].column == "budget"
        assert not employees_kg.find_columns("budget", table="employees", min_score=0.9)

    def test_value_index_exact(self, employees_kg):
        hits = employees_kg.find_values("zurich")
        assert [(hit.table, hit.column) for hit in hits] == [("employees", "city")]

    def test_value_index_preserves_case(self, employees_kg):
        hits = employees_kg.exact_value_columns("ZURICH")
        assert hits == [("employees", "city", "zurich")]

    def test_join_edges_and_path(self, employees_kg):
        assert employees_kg.join_path("employees", "departments") == [
            ("employees", "department", "departments", "department")
        ]
        assert employees_kg.join_path("employees", "employees") == []

    def test_no_join_path(self, employees_db):
        employees_db.catalog.drop_table("departments")
        kg = SchemaKnowledgeGraph(employees_db.catalog)
        assert kg.join_path("employees", "nonexistent") == []

    def test_value_index_can_be_disabled(self, employees_db):
        kg = SchemaKnowledgeGraph(employees_db.catalog, index_values=False)
        assert kg.find_values("zurich") == []

    def test_high_cardinality_columns_skipped(self, employees_db):
        kg = SchemaKnowledgeGraph(employees_db.catalog, max_distinct_values=2)
        # 'name' has 5 distinct values > 2; 'city' has 3 > 2.
        assert kg.find_values("ann") == []
