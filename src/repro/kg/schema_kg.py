"""Schema-as-knowledge-graph: a relational catalog rendered queryable.

Section 3.2 (Grounding): "Currently, this information is presented in
textual form to the model.  Instead, we propose to encode this form of
domain information in appropriate knowledge bases and enable the system
to query and reason on these structures."  This module is exactly that
proposal: tables, columns, datatypes, foreign keys, and (sampled) data
*values* become triples the NL layer queries when translating a question,
instead of a schema string pasted into a prompt.

The value index matters most in practice: grounding the literal
"engineering" to ``emp.dept = 'engineering'`` is what separates an
executable query from a hallucinated one, and benchmark E2 measures that
gap directly.

Fuzzy table and column matching scores a phrase's profile against node
profiles (label tokens, trigrams and long tokens; comment tokens) built
once at construction: the graph is a snapshot of the catalog.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.kg.ontology import Ontology, RDFS_COMMENT, RDFS_LABEL
from repro.kg.triple_store import TripleStore
from repro.kg.vocabulary import (
    char_trigrams,
    exact_spans,
    jaccard,
    osa_similarity_within,
    trigram_similarity,
)
from repro.vector.embedding import tokenize_text
from repro.sqldb.catalog import Catalog

# CDA schema-graph predicates.
CDA_TABLE = "cda:Table"
CDA_COLUMN = "cda:Column"
CDA_VALUE = "cda:Value"
CDA_COLUMN_OF = "cda:columnOf"
CDA_DATATYPE = "cda:datatype"
CDA_NULLABLE = "cda:nullable"
CDA_PRIMARY_KEY = "cda:primaryKey"
CDA_REFERENCES = "cda:references"
CDA_JOINS_WITH = "cda:joinsWith"
CDA_VALUE_OF = "cda:valueOf"
CDA_ROW_COUNT = "cda:rowCount"


def table_node(table: str) -> str:
    """Node id for a table."""
    return f"table:{table}"


def column_node(table: str, column: str) -> str:
    """Node id for a column."""
    return f"column:{table}.{column}"


def _humanise(identifier: str) -> str:
    return identifier.replace("_", " ").strip().lower()


@dataclass(frozen=True)
class _Profile:
    """What fuzzy matching reads of a text: its token and trigram sets."""

    tokens: frozenset[str]
    trigrams: frozenset[str]
    #: Distinct tokens long enough for the edit-distance typo check.
    long_tokens: tuple[str, ...]
    #: Tokens of the node's comment; ``None`` when it has none.
    comment_tokens: frozenset[str] | None

    @classmethod
    def of(cls, text: str, comment: str | None = None) -> _Profile:
        tokens = frozenset(tokenize_text(text))
        return cls(
            tokens=tokens,
            trigrams=frozenset(char_trigrams(text)),
            long_tokens=tuple(token for token in tokens if len(token) >= 4),
            comment_tokens=frozenset(tokenize_text(comment)) if comment else None,
        )


@dataclass
class SchemaMatch:
    """A scored schema element match."""

    node: str
    table: str
    column: str | None
    score: float
    matched_on: str  # "label" | "comment" | "value"


@dataclass
class ValueMatch:
    """A literal value grounded to the column that contains it."""

    table: str
    column: str
    value: str
    score: float


class SchemaKnowledgeGraph:
    """A queryable KG view of a relational catalog."""

    def __init__(
        self,
        catalog: Catalog,
        index_values: bool = True,
        max_distinct_values: int = 200,
    ):
        self.catalog = catalog
        self.ontology = Ontology(TripleStore())
        self.index_values = index_values
        self.max_distinct_values = max_distinct_values
        #: Lower-cased value -> ``(table, column, stored value)`` per distinct
        #: spelling in the column, the stored value being the column's first.
        self._value_index: dict[str, list[tuple[str, str, str]]] = {}
        #: Each value key's text before its first space (see :func:`exact_spans`).
        self._value_heads: set[str] = set()
        #: node -> match profile of its label and comment, built once.
        self._table_profiles: dict[str, _Profile] = {}
        self._column_profiles: dict[str, _Profile] = {}
        self._build()

    @property
    def store(self) -> TripleStore:
        """The underlying triple store."""
        return self.ontology.store

    # -- construction ---------------------------------------------------------------

    def _build(self) -> None:
        store = self.store
        self.ontology.add_class(CDA_TABLE, label="table")
        self.ontology.add_class(CDA_COLUMN, label="column")
        for table in self.catalog.tables():
            t_node = table_node(table.name)
            self.ontology.add_instance(t_node, CDA_TABLE, label=_humanise(table.name))
            if table.description:
                store.add(t_node, RDFS_COMMENT, table.description)
            store.add(t_node, CDA_ROW_COUNT, len(table))
            if table.primary_key is not None:
                store.add(t_node, CDA_PRIMARY_KEY, column_node(table.name, table.primary_key))
            for column in table.schema:
                c_node = column_node(table.name, column.name)
                self.ontology.add_instance(
                    c_node, CDA_COLUMN, label=_humanise(column.name)
                )
                store.add(c_node, CDA_COLUMN_OF, t_node)
                store.add(c_node, CDA_DATATYPE, column.type.value)
                store.add(c_node, CDA_NULLABLE, column.nullable)
                if column.description:
                    store.add(c_node, RDFS_COMMENT, column.description)
            if self.index_values:
                self._index_table_values(table)
        for fk in self.catalog.foreign_keys:
            source = column_node(fk.table, fk.column)
            target = column_node(fk.referenced_table, fk.referenced_column)
            store.add(source, CDA_REFERENCES, target)
            store.add(table_node(fk.table), CDA_JOINS_WITH, table_node(fk.referenced_table))
            store.add(table_node(fk.referenced_table), CDA_JOINS_WITH, table_node(fk.table))
        for profiles, class_name in (
            (self._table_profiles, CDA_TABLE),
            (self._column_profiles, CDA_COLUMN),
        ):
            for node in self.ontology.instances_of(class_name):
                profiles[node] = _Profile.of(
                    self.ontology.label(node), self.ontology.comment(node)
                )

    def _index_table_values(self, table) -> None:
        from repro.sqldb.types import ColumnType

        for column in table.schema:
            if column.type is not ColumnType.TEXT:
                continue
            values = {
                value
                for value in table.column_values(column.name)
                if isinstance(value, str)
            }
            if not values or len(values) > self.max_distinct_values:
                continue
            spellings: dict[str, list[str]] = {}
            for value in values:
                spellings.setdefault(value.lower(), []).append(value)
                self.store.add(
                    f"value:{table.name}.{column.name}:{value}",
                    CDA_VALUE_OF,
                    column_node(table.name, column.name),
                )
            for key, variants in spellings.items():
                # One entry per spelling; each names the column's first.
                stored = variants[0]
                if len(variants) > 1:
                    stored = next(
                        value
                        for value in table.column(column.name)
                        if isinstance(value, str) and value.lower() == key
                    )
                self._value_index.setdefault(key, []).extend(
                    [(table.name, column.name, stored)] * len(variants)
                )
                self._value_heads.add(key.partition(" ")[0])

    # -- structural queries -----------------------------------------------------------

    def tables(self) -> list[str]:
        """All table names known to the graph."""
        return [
            node.split(":", 1)[1]
            for node in self.ontology.instances_of(CDA_TABLE)
        ]

    def columns_of(self, table: str) -> list[str]:
        """Column names of ``table``."""
        nodes = self.store.subjects(CDA_COLUMN_OF, table_node(table))
        return [node.rsplit(".", 1)[1] for node in sorted(nodes)]

    def datatype_of(self, table: str, column: str) -> str | None:
        """Declared datatype of a column."""
        value = self.store.one_object(column_node(table, column), CDA_DATATYPE)
        return value if isinstance(value, str) else None

    def join_edges(self) -> list[tuple[str, str, str, str]]:
        """All FK joins as ``(table, column, referenced_table, referenced_column)``."""
        edges = []
        for triple in self.store.match(None, CDA_REFERENCES, None):
            source_table, source_column = triple.subject.split(":", 1)[1].rsplit(".", 1)
            target = str(triple.object)
            target_table, target_column = target.split(":", 1)[1].rsplit(".", 1)
            edges.append((source_table, source_column, target_table, target_column))
        return sorted(edges)

    def join_path(self, table_a: str, table_b: str) -> list[tuple[str, str, str, str]]:
        """FK edges forming a shortest join path between two tables (BFS)."""
        if table_a == table_b:
            return []
        adjacency: dict[str, list[tuple[str, str, str, str]]] = {}
        for edge in self.join_edges():
            source_table, source_column, target_table, target_column = edge
            adjacency.setdefault(source_table, []).append(edge)
            adjacency.setdefault(target_table, []).append(
                (target_table, target_column, source_table, source_column)
            )
        frontier = [(table_a, [])]
        visited = {table_a}
        while frontier:
            current, path = frontier.pop(0)
            for edge in adjacency.get(current, []):
                neighbour = edge[2]
                if neighbour in visited:
                    continue
                next_path = path + [edge]
                if neighbour == table_b:
                    return next_path
                visited.add(neighbour)
                frontier.append((neighbour, next_path))
        return []

    # -- grounding lookups ---------------------------------------------------------------

    def _score_against(self, phrase: _Profile, node: _Profile) -> tuple[float, str]:
        best = max(
            jaccard(phrase.tokens, node.tokens),
            jaccard(phrase.trigrams, node.trigrams),
        )
        matched_on = "label"
        # Per-token typo tolerance: the best edit-similar (token of phrase,
        # token of label) pair, discounted so exact matches still win.  Only
        # 0.9 * similarity > best counts (1e-9 dwarfs either side's rounding).
        for phrase_token in phrase.long_tokens:
            for label_token in node.long_tokens:
                floor = max(0.7, best / 0.9 - 1e-9)
                similarity = osa_similarity_within(phrase_token, label_token, floor)
                if similarity is not None and 0.9 * similarity > best:
                    best = 0.9 * similarity
                    matched_on = "label"
        if node.comment_tokens is not None:
            comment_score = 0.9 * jaccard(phrase.tokens, node.comment_tokens)
            if comment_score > best:
                best = comment_score
                matched_on = "comment"
        return best, matched_on

    def find_tables(self, phrase: str, min_score: float = 0.3) -> list[SchemaMatch]:
        """Tables matching ``phrase``, best first."""
        matches = []
        profile = _Profile.of(phrase)
        for node, node_profile in self._table_profiles.items():
            score, matched_on = self._score_against(profile, node_profile)
            if score >= min_score:
                matches.append(
                    SchemaMatch(
                        node=node,
                        table=node.split(":", 1)[1],
                        column=None,
                        score=score,
                        matched_on=matched_on,
                    )
                )
        return sorted(matches, key=lambda match: (-match.score, match.node))

    def find_columns(
        self, phrase: str, table: str | None = None, min_score: float = 0.3
    ) -> list[SchemaMatch]:
        """Columns matching ``phrase``, best first, optionally within a table."""
        matches = []
        profile = _Profile.of(phrase)
        for node, node_profile in self._column_profiles.items():
            qualified = node.split(":", 1)[1]
            node_table, column = qualified.rsplit(".", 1)
            if table is not None and node_table.lower() != table.lower():
                continue
            score, matched_on = self._score_against(profile, node_profile)
            if score >= min_score:
                matches.append(
                    SchemaMatch(
                        node=node,
                        table=node_table,
                        column=column,
                        score=score,
                        matched_on=matched_on,
                    )
                )
        return sorted(matches, key=lambda match: (-match.score, match.node))

    def find_values(self, phrase: str, min_score: float = 0.999) -> list[ValueMatch]:
        """Ground a literal phrase to columns containing it as a value.

        Exact (case-insensitive) hits score 1.0; with a lower
        ``min_score``, trigram-fuzzy hits are also returned.
        """
        matches: list[ValueMatch] = []
        key = phrase.lower()
        for table, column, _stored in self._value_index.get(key, []):
            matches.append(ValueMatch(table=table, column=column, value=phrase, score=1.0))
        if min_score < 0.999:
            for value_key, bindings in self._value_index.items():
                if value_key == key:
                    continue
                similarity = trigram_similarity(key, value_key)
                if similarity >= min_score:
                    for table, column, _stored in bindings:
                        matches.append(
                            ValueMatch(
                                table=table,
                                column=column,
                                value=value_key,
                                score=similarity,
                            )
                        )
        return sorted(matches, key=lambda match: (-match.score, match.table, match.column))

    def exact_value_columns(self, phrase: str) -> list[tuple[str, str, str]]:
        """(table, column, stored_value) for exact value hits, preserving case."""
        return list(self._value_index.get(phrase.lower(), ()))

    def value_mentions(
        self, tokens: Sequence[str], max_size: int = 3
    ) -> Iterator[tuple[str, list[tuple[str, str, str]]]]:
        """Each phrase of ``tokens`` that is a stored value, with its hits.

        Word n-grams of up to ``max_size`` words, longest first, then
        leftmost, never overlapping an earlier mention (:func:`exact_spans`);
        the hits are :meth:`exact_value_columns`'.
        """
        consumed = [False] * len(tokens)
        for _start, _size, phrase in exact_spans(
            tokens, self._value_index, self._value_heads, max_size, consumed
        ):
            yield phrase, list(self._value_index[phrase])
