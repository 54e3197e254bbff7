"""Knowledge-graph substrate (property P2, Grounding).

The paper grounds the CDA system in "knowledge graphs and similar complex
taxonomies and ontologies" that encode domain terms, definitions, rules,
and schema descriptions (Sections 2.2 and 3.2).  This package provides:

* :class:`~repro.kg.triple_store.TripleStore` — an indexed triple store
  (SPO/POS/OSP permutations) with wildcard matching;
* :class:`~repro.kg.ontology.Ontology` — classes, subsumption reasoning,
  domain/range metadata on top of the store;
* :class:`~repro.kg.vocabulary.DomainVocabulary` — domain terms with
  synonyms and definitions, the disambiguation substrate;
* :mod:`repro.kg.schema_kg` — the paper's proposal to encode *schema*
  information "in appropriate knowledge bases" instead of prompting with
  prose: a relational catalog rendered as a queryable knowledge graph.
"""

from repro.kg.triple_store import Triple, TripleStore
from repro.kg.ontology import Ontology
from repro.kg.vocabulary import DomainVocabulary, VocabularyTerm
from repro.kg.schema_kg import SchemaKnowledgeGraph

__all__ = [
    "Triple",
    "TripleStore",
    "Ontology",
    "DomainVocabulary",
    "VocabularyTerm",
    "SchemaKnowledgeGraph",
]
