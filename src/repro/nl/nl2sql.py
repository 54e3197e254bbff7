"""Grounded semantic parser: English question -> logical form -> SQL.

This is the deterministic core of the NL2SQL path.  Where a hosted LLM
would free-generate SQL, this parser *grounds every fragment of the
question before committing to it*:

* the target table is resolved through the domain vocabulary (synonyms)
  and the schema knowledge graph (labels, descriptions);
* measure/group columns are resolved against column labels and
  descriptions;
* literal values ("in Zurich", "for services") are resolved through the
  schema KG's *value index* to the column that actually contains them;
* if the resolved filter column lives in a neighbouring table, the FK
  join path is added automatically.

Each grounding step can be switched off via :class:`GroundingConfig` —
benchmark E2's ablation — and every committed grounding is recorded as a
note, so the explanation layer can show *why* the question was read the
way it was.  When two groundings tie, the parser raises
:class:`~repro.errors.AmbiguousQuestionError` with both candidates rather
than guessing (P5 turns that into a clarification question).
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field

from repro.errors import AmbiguousQuestionError, TranslationError
from repro.obs.metrics import counter, histogram
from repro.obs.trace import span
from repro.kg.schema_kg import SchemaKnowledgeGraph
from repro.kg.vocabulary import DomainVocabulary, QuestionTokens
from repro.kg.vocabulary import singularise as _singularise
from repro.nl.grammar import AggregateSpec, FilterSpec, OrderSpec, QueryIntent
from repro.nl.sqlgen import compile_intent
from repro.sqldb import ast
from repro.sqldb.types import ColumnType

# P2 coverage tallies: attempts vs committed groundings (failures raise
# before the success counter), plus the committed confidence distribution
# — the scorecard's grounding verdict reads exactly these.
_GROUND_ATTEMPTS = counter("nl.ground.attempts")
_GROUND_SUCCESSES = counter("nl.ground.grounded")
_GROUND_CONFIDENCE = histogram(
    "nl.ground.confidence",
    buckets=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
)

_NUMBER_WORDS = {
    "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
    "six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10,
}

#: Aggregate cue phrases, longest first (checked as token subsequences).
_AGGREGATE_CUES: list[tuple[tuple[str, ...], str]] = [
    (("how", "many"), "COUNT"),
    (("number", "of"), "COUNT"),
    (("count", "of"), "COUNT"),
    (("average",), "AVG"),
    (("mean",), "AVG"),
    (("total",), "SUM"),
    (("sum", "of"), "SUM"),
    (("sum",), "SUM"),
    (("maximum",), "MAX"),
    (("highest",), "MAX"),
    (("largest",), "MAX"),
    (("max",), "MAX"),
    (("minimum",), "MIN"),
    (("lowest",), "MIN"),
    (("smallest",), "MIN"),
    (("min",), "MIN"),
]

#: Numeric comparator phrases -> SQL operator.
_COMPARATORS: list[tuple[str, str]] = [
    (r"greater than or equal to", ">="),
    (r"less than or equal to", "<="),
    (r"at least", ">="),
    (r"at most", "<="),
    (r"no more than", "<="),
    (r"no less than", ">="),
    (r"greater than", ">"),
    (r"more than", ">"),
    (r"less than", "<"),
    (r"fewer than", "<"),
    (r"above", ">"),
    (r"over", ">"),
    (r"below", "<"),
    (r"under", "<"),
    (r"exactly", "="),
    (r"equal to", "="),
]

#: ``<column phrase> <comparator> <number>``, one pattern per comparator.
#: The lookbehind lets a match start only where a run of phrase characters
#: starts, which is where the leftmost lazy match starts anyway; without it
#: a failed search retries from every position of the run, quadratic in
#: the run's length.
_COMPARATOR_PATTERNS: list[tuple[re.Pattern, str]] = [
    (
        re.compile(rf"(?<![a-z_ ])([a-z_ ]+?)\s+(?:{phrase})\s+(-?\d+(?:\.\d+)?)"),
        operator,
    )
    for phrase, operator in _COMPARATORS
]

#: Every numeric-filter pattern needs a digit (``\d``, as the patterns read it).
_DIGIT = re.compile(r"\d")

#: Column types SUM/AVG can aggregate and a numeric literal can compare to.
_NUMERIC_TYPES = frozenset({ColumnType.INTEGER.value, ColumnType.FLOAT.value})


@dataclass
class GroundingConfig:
    """Which grounding capabilities the parser may use (E2 ablation axes)."""

    use_vocabulary: bool = True  # domain synonyms -> tables/columns
    use_schema_graph: bool = True  # fuzzy label/description matching
    use_value_index: bool = True  # literal value grounding
    use_join_resolution: bool = True  # cross-table filters via FK paths
    #: Below this score a schema match does not count as grounded.
    min_match_score: float = 0.4
    #: Two top candidates within this margin are reported as ambiguous.
    ambiguity_margin: float = 0.05


@dataclass
class ParseOutcome:
    """A successful parse: the logical form, its statement, its audit trail."""

    intent: QueryIntent
    statement: ast.SelectStatement
    confidence: float
    grounding_notes: list[str] = field(default_factory=list)

    @property
    def sql(self) -> str:
        """The canonical text of :attr:`statement` (it parses back to it)."""
        return self.statement.to_sql()

    def describe(self) -> str:
        """English paraphrase of the committed interpretation."""
        return self.intent.describe()


class GroundedSemanticParser:
    """Rule-based, grounding-first NL2SQL parser."""

    def __init__(
        self,
        schema_kg: SchemaKnowledgeGraph,
        vocabulary: DomainVocabulary | None = None,
        config: GroundingConfig | None = None,
    ):
        self.schema_kg = schema_kg
        self.vocabulary = vocabulary
        self.config = config or GroundingConfig()
        # The schema graph's singularised table and column surfaces, and
        # what the parser derives of them once: the graph is a snapshot.
        self._table_surfaces = schema_kg.table_surfaces
        self._column_surfaces = schema_kg.column_surfaces
        #: singularised column surface -> tables holding such a column.
        self._surface_tables: dict[str, list[str]] = {}
        #: ``(table, column)`` pairs of numeric type.
        self._numeric_columns: set[tuple[str, str]] = set()
        #: First words of the table and column surfaces of two or more words.
        self._mention_heads: set[str] = set()
        for table, surfaces in self._column_surfaces.items():
            for column, surface in surfaces.items():
                holders = self._surface_tables.setdefault(surface, [])
                if table not in holders:
                    holders.append(table)
                if schema_kg.datatype_of(table, column) in _NUMERIC_TYPES:
                    self._numeric_columns.add((table, column))
        for surface in [*self._table_surfaces.values(), *self._surface_tables]:
            if " " in surface:
                self._mention_heads.add(surface.split(" ", 1)[0])

    # -- public API -----------------------------------------------------------------

    def parse(
        self,
        question: str,
        preferred_table: str | None = None,
        tokens: QuestionTokens | None = None,
    ) -> ParseOutcome:
        """Parse ``question``; raises TranslationError / AmbiguousQuestionError.

        ``preferred_table`` settles table ambiguity in favour of the named
        table — this is how a clarification reply is folded back in.
        ``tokens`` is the caller's :class:`QuestionTokens` of ``question``
        (see :meth:`question_tokens`).

        Under an active turn trace the two halves report as separate
        stages: ``nl.nl2sql.ground`` (question → logical form, the P2
        work) and ``nl.nl2sql.translate`` (logical form → SQL).
        """
        _GROUND_ATTEMPTS.inc()
        with span("nl.nl2sql.ground") as ground_span:
            intent, notes, scores = self._ground(question, preferred_table, tokens)
            ground_span.set_attribute("table", intent.table)
            ground_span.set_attribute("groundings", len(notes))
        with span("nl.nl2sql.translate") as translate_span:
            statement = compile_intent(intent)
            translate_span.set_attribute("sql", statement.to_sql())
        confidence = min(scores) if scores else 0.5
        _GROUND_SUCCESSES.inc()
        _GROUND_CONFIDENCE.observe(confidence)
        return ParseOutcome(intent, statement, confidence, notes)

    def question_tokens(
        self, question: str, given: QuestionTokens | None = None
    ) -> QuestionTokens:
        """The tokens the parser reads: those of ``question`` without fillers.

        ``given``, the caller's :class:`QuestionTokens` of ``question`` or an
        earlier result of this method, is returned when it holds those
        tokens, so the caller and the parser share one grounding.
        """
        text = _parser_text(question)
        if given is not None and given.text == text:
            return given
        facts = QuestionTokens(text)
        return given if given is not None and given.tokens == facts.tokens else facts

    def _ground(
        self,
        question: str,
        preferred_table: str | None,
        given: QuestionTokens | None = None,
    ) -> tuple[QueryIntent, list[str], list[float]]:
        """Ground ``question`` into a :class:`QueryIntent` plus audit trail."""
        notes: list[str] = []
        scores: list[float] = []
        text = _parser_text(question)
        facts = self.question_tokens(question, given)
        tokens = facts.tokens
        if not tokens:
            raise TranslationError("empty question", question=question)

        aggregate_function, agg_span = self._detect_aggregate(tokens)
        group_column_phrase = self._detect_group_phrase(text)
        measure_hint = self._measure_phrase(tokens, agg_span)
        superlative_hint = self._superlative_measure_hint(text)
        if superlative_hint:
            measure_hint = superlative_hint
        value_filters, value_spans = self._ground_value_filters(
            text, tokens, notes, scores
        )
        table = self._resolve_table(
            question,
            text,
            facts,
            value_filters,
            notes,
            scores,
            measure_hint=measure_hint,
            preferred_table=preferred_table,
        )
        numeric_filters = self._ground_numeric_filters(text, table, notes, scores)
        filters = value_filters + numeric_filters

        group_by: list[str] = []
        group_table: str | None = None
        if group_column_phrase is not None:
            resolved = self._resolve_group_column(
                group_column_phrase, table, notes, scores
            )
            if resolved is None:
                raise TranslationError(
                    f"cannot ground grouping phrase {group_column_phrase!r}",
                    question=question,
                )
            column, holder = resolved
            group_by = [column]
            if holder.lower() != table.lower():
                group_table = holder

        aggregates: list[AggregateSpec] = []
        select_columns: list[str] = []
        order_by: OrderSpec | None = None
        limit = self._detect_limit(tokens)

        superlative = self._detect_superlative(text, table, notes, scores)
        if superlative is not None:
            group_column, group_holder, agg_spec, descending = superlative
            group_by = [group_column]
            if group_holder.lower() != table.lower():
                group_table = group_holder
            aggregates = [agg_spec]
            order_by = OrderSpec(column=agg_spec.output_name, descending=descending)
            limit = 1
        elif aggregate_function is not None:
            if aggregate_function == "COUNT":
                aggregates = [AggregateSpec(function="COUNT", column=None)]
            else:
                measure = self._measure_phrase(tokens, agg_span)
                column = self._resolve_column(measure, table, notes, scores)
                if column is None:
                    raise TranslationError(
                        f"cannot ground measure phrase {measure!r} "
                        f"for {aggregate_function}",
                        question=question,
                    )
                self._require_numeric(aggregate_function, table, column, question)
                aggregates = [AggregateSpec(function=aggregate_function, column=column)]
        else:
            select_columns = self._detect_select_columns(
                text, tokens, table, value_spans, notes, scores
            )
            top_order = self._detect_top_order(text, tokens, table, notes, scores)
            if top_order is not None:
                order_by, limit = top_order
                if not select_columns and not group_by:
                    # "top 3 employees by salary": select every column.
                    select_columns = self.schema_kg.columns_of(table)
                    notes.append(f"selecting all columns of {table}")
                    scores.append(0.6)
            if not select_columns and not group_by:
                raise TranslationError(
                    "cannot determine what to select", question=question
                )
            # "show price per category" names no aggregate for price; the
            # parser does not guess one.
            ungrouped = [column for column in select_columns if column not in group_by]
            if group_by and ungrouped:
                raise TranslationError(
                    f"grouping by {group_by[0]!r} needs an aggregate "
                    f"for {ungrouped[0]!r}",
                    question=question,
                )

        join = self._resolve_join(table, filters, group_table, notes)
        intent = QueryIntent(
            table=table,
            select_columns=select_columns,
            aggregates=aggregates,
            filters=filters,
            group_by=group_by,
            group_table=group_table,
            order_by=order_by,
            limit=limit,
            join=join,
        )
        return intent, notes, scores

    # -- table resolution --------------------------------------------------------------

    def _resolve_table(
        self,
        question: str,
        text: str,
        facts: QuestionTokens,
        value_filters: list[FilterSpec],
        notes: list[str],
        scores: list[float],
        measure_hint: str = "",
        preferred_table: str | None = None,
    ) -> str:
        candidates, via = self._table_evidence(
            text, facts, value_filters, measure_hint, preferred_table
        )
        if not candidates:
            raise TranslationError(
                "cannot ground the question to any table", question=question
            )
        ordered = sorted(candidates.items(), key=lambda pair: (-pair[1], pair[0]))
        best_table, best_score = ordered[0]
        if len(ordered) > 1:
            second_table, second_score = ordered[1]
            if best_score - second_score <= self.config.ambiguity_margin:
                raise AmbiguousQuestionError(
                    f"question may refer to table {best_table!r} "
                    f"or {second_table!r}",
                    candidates=[best_table, second_table],
                )
        notes.append(f"table {best_table!r} via {via[best_table]}")
        scores.append(min(1.0, best_score))
        return best_table

    def _table_evidence(
        self,
        text: str,
        facts: QuestionTokens,
        value_filters: list[FilterSpec],
        measure_hint: str,
        preferred_table: str | None,
    ) -> tuple[dict[str, float], dict[str, str]]:
        """Each candidate table's score, and the evidence that set it."""
        candidates: dict[str, float] = {}
        via: dict[str, str] = {}
        if preferred_table is not None:
            for table in self.schema_kg.tables():
                if table.lower() == preferred_table.lower():
                    candidates[table] = 1.5
                    via[table] = "user clarification"
        if self.vocabulary is not None and self.config.use_vocabulary:
            for grounded in facts.grounding(self.vocabulary):
                for binding in grounded.term.schema_bindings:
                    if binding.startswith("table:"):
                        name = binding.split(":", 1)[1]
                        score = grounded.score
                        if score > candidates.get(name, 0.0):
                            candidates[name] = score
                            via[name] = (
                                f"vocabulary term {grounded.term.name!r} "
                                f"({grounded.match_kind})"
                            )
        if self.config.use_schema_graph:
            for match in self.schema_kg.find_tables(text, min_score=0.15):
                if match.score > candidates.get(match.table, 0.0):
                    candidates[match.table] = match.score
                    via[match.table] = f"schema {match.matched_on} match"
            # Direct table-name mentions (with singular/plural tolerance)
            # outrank whole-question overlap scores.
            # Each distinct n-gram is scored once, in first-occurrence order,
            # so the notes name the first mention.
            # Singularised n-gram -> its first n-gram in the question; only
            # the n-grams that can name a table or a column are formed.
            gram_surfaces = _singular_ngrams(
                facts.tokens, 3, facts.singular, self._mention_heads
            )
            # Each distinct singularised token of four or more letters, first
            # occurrence first, with its first token and its similar surfaces.
            typo_tokens: dict[str, tuple[str, Mapping[str, float]]] = {}
            for token, singular in zip(facts.tokens, facts.singular):
                if len(token) >= 4 and singular not in typo_tokens:
                    similar = self.schema_kg.similar_surfaces(singular)
                    typo_tokens[singular] = (token, similar)
            typo_hits = [hit for hit in typo_tokens.values() if hit[1]]
            for table, surface in self._table_surfaces.items():
                gram = gram_surfaces.get(surface)
                if gram is not None and candidates.get(table, 0.0) < 0.9:
                    candidates[table] = 0.9
                    via[table] = f"table-name mention {gram!r}"
                # Typo-tolerant mention ("vehilces" -> vehicles); the first decides.
                if candidates.get(table, 0.0) < 0.85:
                    for token, similar in typo_hits:
                        if similar.get(surface, 0.0) >= 0.72:
                            candidates[table] = 0.85
                            via[table] = f"fuzzy table mention {token!r}"
                            break
            # "of/from <table>" marks the source table decisively:
            # "list the depot and mileage OF VEHICLES ..." is about vehicles.
            for match in re.finditer(r"\b(?:of|from|among)\s+(?:the\s+)?([a-z_]+)", text):
                word = _singularise(match.group(1))
                for table, surface in self._table_surfaces.items():
                    if surface == word:
                        if candidates.get(table, 0.0) < 1.0:
                            candidates[table] = 1.0
                            via[table] = f"'of {match.group(1)}' construction"
            # The measure column of an aggregate is strong evidence: the
            # aggregated column must live in the answering table.  A COUNT
            # subject that *names* a table ("how many employees ...") is
            # equally strong.
            if measure_hint:
                first_word = measure_hint.replace("_", " ").lower().split()[0]
                subject = _singularise(first_word)
                subject_matched = False
                similar = (
                    self.schema_kg.similar_surfaces(subject)
                    if len(subject) >= 4
                    else {}
                )
                for table, table_surface in self._table_surfaces.items():
                    exact = table_surface == subject
                    if exact or similar.get(table_surface, 0.0) >= 0.72:
                        # "how many vehicles ..." decides the table outright;
                        # later column mentions are filter material, so the
                        # subject outranks measure-column votes.
                        if candidates.get(table, 0.0) < 1.1:
                            candidates[table] = 1.1
                            via[table] = f"count subject {measure_hint!r}"
                        subject_matched = True
                if not subject_matched:
                    hint_phrases = [measure_hint] + measure_hint.split()
                    for hint in hint_phrases:
                        holders = self._tables_with_column(hint)
                        if not holders:
                            holders = self._tables_with_column(hint, fuzzy=True)
                        if len(holders) == 1:
                            holder = holders[0]
                            # The aggregated column must live in the FROM
                            # table, so this evidence outranks vocabulary
                            # and table-name mentions.
                            if candidates.get(holder, 0.0) < 1.15:
                                candidates[holder] = 1.15
                                via[holder] = f"measure column {hint!r} lives in it"
                            break
            # Unambiguous column mentions vote (weakly) for their table.
            for singular, gram in gram_surfaces.items():
                holders = self._surface_tables.get(singular, [])
                if len(holders) == 1:
                    holder = holders[0]
                    if candidates.get(holder, 0.0) < 0.55:
                        candidates[holder] = 0.55
                        via.setdefault(holder, f"column mention {gram!r}")
        else:
            # Exact-name matching only: the ungrounded baseline.
            for table in self.schema_kg.tables():
                surface = table.replace("_", " ")
                if surface in text:
                    candidates[table] = max(candidates.get(table, 0.0), 1.0)
                    via[table] = "exact table-name mention"
        # A value filter implies its table (weakly).
        for spec in value_filters:
            if spec.table is not None:
                current = candidates.get(spec.table, 0.0)
                candidates[spec.table] = max(current, 0.45)
                via.setdefault(spec.table, f"value {spec.value!r} found in it")
        return candidates, via

    def _tables_with_column(self, phrase: str, fuzzy: bool = False) -> list[str]:
        """Tables holding a column whose name matches ``phrase``.

        ``fuzzy`` extends the match to high edit similarity (typo
        tolerance), used only as a fallback when no exact holder exists.
        """
        target = _singularise(phrase.replace("_", " ").lower())
        if not fuzzy:
            return self._surface_tables.get(target, [])
        similar = self.schema_kg.similar_surfaces(target) if len(target) >= 4 else {}
        return [
            table
            for table, surfaces in self._column_surfaces.items()
            if any(
                surface == target
                or (len(surface) >= 4 and similar.get(surface, 0.0) >= 0.72)
                for surface in surfaces.values()
            )
        ]

    def _superlative_measure_hint(self, text: str) -> str:
        """Measure phrase of a 'which G has the highest total M' question."""
        match = re.search(
            r"has (?:the )?(?:highest|lowest|most|least)"
            r"(?:\s+(?:total|average))?\s+([a-z_ ]+)",
            text,
        )
        if match is None:
            return ""
        return match.group(1).strip()

    # -- column resolution ----------------------------------------------------------------

    def _resolve_column(
        self,
        phrase: str,
        table: str,
        notes: list[str],
        scores: list[float],
    ) -> str | None:
        phrase = phrase.strip()
        if not phrase:
            return None
        columns = self.schema_kg.columns_of(table)
        normalised = phrase.replace(" ", "_")
        for column in columns:
            if column.lower() == normalised.lower() or (
                column.replace("_", " ").lower() == phrase.lower()
            ):
                notes.append(f"column {table}.{column} by exact name")
                scores.append(1.0)
                return column
        # Singular/plural tolerance on the exact path.
        singular = _singularise(phrase.lower())
        for column, surface in self._column_surfaces.get(table, {}).items():
            if surface == singular:
                notes.append(f"column {table}.{column} by exact name (plural)")
                scores.append(0.95)
                return column
        if not self.config.use_schema_graph:
            return None
        matches = self.schema_kg.find_columns(
            phrase, table=table, min_score=self.config.min_match_score
        )
        if not matches:
            return None
        best = matches[0]
        if len(matches) > 1:
            runner_up = matches[1]
            if best.score - runner_up.score <= self.config.ambiguity_margin:
                raise AmbiguousQuestionError(
                    f"phrase {phrase!r} may mean column {best.column!r} "
                    f"or {runner_up.column!r}",
                    candidates=[
                        f"{best.table}.{best.column}",
                        f"{runner_up.table}.{runner_up.column}",
                    ],
                )
        notes.append(
            f"column {best.table}.{best.column} via {best.matched_on} "
            f"(score {best.score:.2f})"
        )
        scores.append(best.score)
        return best.column

    # -- aggregates and measures --------------------------------------------------------------

    def _detect_aggregate(
        self, tokens: Sequence[str]
    ) -> tuple[str | None, tuple[int, int] | None]:
        present = set(tokens)
        for cue, function in _AGGREGATE_CUES:
            if cue[0] not in present:
                continue
            for start in range(0, len(tokens) - len(cue) + 1):
                if tuple(tokens[start : start + len(cue)]) == cue:
                    return function, (start, start + len(cue))
        # Filler tolerance for the COUNT cue: "how <word> many ...".
        for start, token in enumerate(tokens):
            if token != "how":
                continue
            for offset in (2, 3):
                if start + offset < len(tokens) and tokens[start + offset] == "many":
                    return "COUNT", (start, start + offset + 1)
        return None, None

    def _measure_phrase(self, tokens: Sequence[str], span: tuple[int, int] | None) -> str:
        """The noun phrase following the aggregate cue, e.g. 'average <X> of'."""
        if span is None:
            return ""
        stop_words = {
            "of", "the", "in", "for", "by", "per", "with", "where", "from",
            "each", "every", "across", "is", "are", "was", "and",
        }
        phrase: list[str] = []
        position = span[1]
        # Skip leading "the"/"of the".
        while position < len(tokens) and tokens[position] in {"the", "of"}:
            position += 1
        while position < len(tokens) and tokens[position] not in stop_words:
            phrase.append(tokens[position])
            position += 1
            if len(phrase) >= 3:
                break
        return " ".join(phrase)

    # -- grouping -------------------------------------------------------------------------------

    def _detect_group_phrase(self, text: str) -> str | None:
        match = re.search(r"\b(?:for each|per|grouped by|broken down by)\s+([a-z_ ]+)", text)
        if match is None:
            return None
        phrase = match.group(1).strip()
        # Stop the phrase at common clause boundaries.
        phrase = re.split(
            r"\b(?:where|with|in|for|above|below|over|under|ordered)\b", phrase
        )[0].strip()
        return phrase or None

    def _detect_superlative(
        self, text: str, table: str, notes: list[str], scores: list[float]
    ):
        """'which G has the highest total M' -> (G, SUM(M) spec, True)."""
        match = re.search(
            r"which\s+([a-z_ ]+?)\s+has (?:the )?(highest|lowest|most|least)"
            r"(?:\s+(total|average|number of))?\s*([a-z_ ]*)",
            text,
        )
        if match is None:
            return None
        group_phrase = match.group(1).strip()
        direction = match.group(2)
        agg_word = (match.group(3) or "").strip()
        measure_phrase = match.group(4).strip()
        resolved = self._resolve_group_column(group_phrase, table, notes, scores)
        if resolved is None:
            return None
        group_column, group_holder = resolved
        descending = direction in ("highest", "most")
        if agg_word == "number of" or not measure_phrase:
            spec = AggregateSpec(function="COUNT", column=None)
        else:
            measure_column = self._resolve_column(measure_phrase, table, notes, scores)
            if measure_column is None:
                return None
            function = "AVG" if agg_word == "average" else "SUM"
            self._require_numeric(function, table, measure_column, text)
            spec = AggregateSpec(function=function, column=measure_column)
        return group_column, group_holder, spec, descending

    # -- filters ----------------------------------------------------------------------------------

    def _ground_value_filters(
        self,
        text: str,
        tokens: Sequence[str],
        notes: list[str],
        scores: list[float],
    ) -> tuple[list[FilterSpec], list[str]]:
        if not self.config.use_value_index:
            return self._quoted_value_filters(text, notes, scores)
        filters: list[FilterSpec] = []
        spans: list[str] = []
        for phrase, hits in self.schema_kg.value_mentions(tokens):
            tables = {table for table, _column, _value in hits}
            if len(hits) > 1 and len(tables) > 1:
                # The same literal exists in several tables: prefer one
                # whose table is mentioned, otherwise keep the first and
                # note the ambiguity (the table resolver may settle it).
                mentioned = [hit for hit in hits if hit[0].replace("_", " ") in text]
                if mentioned:
                    hits = mentioned
            table, column, value = hits[0]
            filters.append(
                FilterSpec(column=column, operator="=", value=value, table=table)
            )
            spans.append(phrase)
            notes.append(
                f"literal {value!r} grounded to {table}.{column} via value index"
            )
            scores.append(1.0 if len(tables) == 1 else 0.7)
        return filters, spans

    def _quoted_value_filters(
        self, text: str, notes: list[str], scores: list[float]
    ) -> tuple[list[FilterSpec], list[str]]:
        """Fallback when the value index is disabled: only 'col is "v"'."""
        filters: list[FilterSpec] = []
        spans: list[str] = []
        for match in re.finditer(r"([a-z_]+)\s+(?:is|equals|=)\s+'([^']+)'", text):
            column = match.group(1)
            value = match.group(2)
            filters.append(FilterSpec(column=column, operator="=", value=value))
            spans.append(value)
            notes.append(f"quoted literal {value!r} assigned to column {column!r}")
            scores.append(0.6)
        return filters, spans

    def _ground_numeric_filters(
        self, text: str, table: str, notes: list[str], scores: list[float]
    ) -> list[FilterSpec]:
        filters: list[FilterSpec] = []
        if _DIGIT.search(text) is None:
            return filters
        for (pattern, operator), (comparator, _operator) in zip(
            _COMPARATOR_PATTERNS, _COMPARATORS
        ):
            # A match holds the comparator's words verbatim.
            if comparator not in text:
                continue
            for match in pattern.finditer(text):
                phrase = match.group(1).strip()
                raw_number = match.group(2)
                value: int | float = (
                    float(raw_number) if "." in raw_number else int(raw_number)
                )
                resolved = self._numeric_filter_column(phrase, table, notes, scores)
                if resolved is None:
                    continue
                column, holder = resolved
                filters.append(
                    FilterSpec(
                        column=column,
                        operator=operator,
                        value=value,
                        table=holder if holder != table else None,
                    )
                )
                notes.append(f"numeric filter {column} {operator} {value}")
        # Bare equality: "... floor 3", "... year 2021" — a column name
        # immediately followed by a number, with no comparator between.
        for match in re.finditer(r"\b([a-z_]+)\s+(-?\d+(?:\.\d+)?)\b", text):
            word = match.group(1)
            if word in _NUMBER_WORDS or word in ("top", "first", "last"):
                continue
            raw_number = match.group(2)
            resolved = self._numeric_filter_column(word, table, notes, scores)
            if resolved is None:
                continue
            column, holder = resolved
            value = float(raw_number) if "." in raw_number else int(raw_number)
            filters.append(
                FilterSpec(
                    column=column,
                    operator="=",
                    value=value,
                    table=holder if holder != table else None,
                )
            )
            notes.append(f"equality filter {column} = {value}")
        # Deduplicate (several comparator patterns can match the same text).
        unique: list[FilterSpec] = []
        seen: set[tuple] = set()
        for spec in filters:
            key = (spec.column, spec.operator, spec.value)
            if key not in seen:
                seen.add(key)
                unique.append(spec)
        return unique

    def _numeric_filter_column(
        self, phrase: str, table: str, notes: list[str], scores: list[float]
    ) -> tuple[str, str] | None:
        """:meth:`_filter_column_any_table` for a numeric literal.

        A number binds only to a numeric column; when ``phrase`` grounds
        to any other column the filter is dropped, leaving no note or
        score behind, as an unresolved phrase does.
        """
        trail_notes: list[str] = []
        trail_scores: list[float] = []
        resolved = self._filter_column_any_table(
            phrase, table, trail_notes, trail_scores
        )
        if resolved is None or (resolved[1], resolved[0]) not in self._numeric_columns:
            return None
        notes.extend(trail_notes)
        scores.extend(trail_scores)
        return resolved

    def _require_numeric(
        self, function: str, table: str, column: str, question: str
    ) -> None:
        """SUM and AVG aggregate only numeric columns; refuse any other."""
        if function in ("SUM", "AVG") and (table, column) not in self._numeric_columns:
            raise TranslationError(
                f"{function} needs a numeric column, but the measure grounds "
                f"to {table}.{column}",
                question=question,
            )

    def _filter_column_any_table(
        self, phrase: str, table: str, notes: list[str], scores: list[float]
    ) -> tuple[str, str] | None:
        """Resolve a filter column in the base table, else a joinable one.

        Returns ``(column, holding_table)``; cross-table resolution only
        fires when join resolution is enabled and exactly one FK
        neighbour holds the column (otherwise the filter is ambiguous and
        dropped — the parser never guesses).
        """
        # 1. Exact column-name tail in the base table.
        exact = self._exact_column_tail(phrase, table)
        if exact is not None:
            notes.append(f"filter column {table}.{exact} by exact name")
            scores.append(1.0)
            return exact, table
        # 2. Exact column-name tail in a single FK-joinable table.
        if self.config.use_join_resolution:
            words = phrase.split()
            holders: list[tuple[str, str]] = []
            for size in (1, 2):
                if size > len(words):
                    continue
                holders = self._joined_holders(table, " ".join(words[-size:]))
                if holders:
                    break
            if len(holders) == 1:
                column, holder = holders[0]
                notes.append(
                    f"filter column {column!r} found in joined table {holder!r}"
                )
                scores.append(0.8)
                return column, holder
        # 3. Fuzzy match in the base table (schema-graph labels).
        column = self._filter_column_from_phrase(phrase, table, notes, scores)
        if column is not None:
            return column, table
        return None

    def _exact_column_tail(self, phrase: str, table: str) -> str | None:
        """Rightmost tail of ``phrase`` exactly naming a column of ``table``."""
        words = phrase.split()
        surfaces = self._column_surfaces.get(table, {})
        for size in (1, 2, 3):
            if size > len(words):
                break
            tail = _singularise(" ".join(words[-size:]).lower())
            for column, surface in surfaces.items():
                if surface == tail:
                    return column
        return None

    def _filter_column_from_phrase(
        self, phrase: str, table: str, notes: list[str], scores: list[float]
    ) -> str | None:
        """Rightmost groundable sub-phrase of the text before a comparator."""
        words = phrase.split()
        for size in (3, 2, 1):
            if size > len(words):
                continue
            tail = " ".join(words[-size:])
            try:
                column = self._resolve_column(tail, table, notes, scores)
            except AmbiguousQuestionError:
                column = None
            if column is not None:
                return column
        return None

    # -- plain selects ---------------------------------------------------------------------------------

    def _detect_select_columns(
        self,
        text: str,
        tokens: Sequence[str],
        table: str,
        value_spans: list[str],
        notes: list[str],
        scores: list[float],
    ) -> list[str]:
        match = re.search(
            r"\b(?:list|show|display|give me|what (?:is|are))\s+(?:all\s+|the\s+)?"
            r"([a-z_ ]+?)(?:\s+(?:of|from|in|for|with|where|ordered|per|by)\b|$)",
            text,
        )
        columns: list[str] = []
        if match is not None:
            phrase = match.group(1).strip()
            for part in re.split(r"\s+and\s+|,", phrase):
                part = part.strip()
                if not part or part in value_spans:
                    continue
                try:
                    column = self._resolve_column(part, table, notes, scores)
                except AmbiguousQuestionError:
                    raise
                if column is not None and column not in columns:
                    columns.append(column)
        if not columns and re.search(r"\b(list|show|display)\b", text):
            # "show all employees in zurich": select every column.
            columns = self.schema_kg.columns_of(table)
            notes.append(f"selecting all columns of {table}")
            scores.append(0.6)
        return columns

    def _detect_top_order(
        self,
        text: str,
        tokens: Sequence[str],
        table: str,
        notes: list[str],
        scores: list[float],
    ) -> tuple[OrderSpec, int] | None:
        if "top" not in tokens:
            return None
        count = self._detect_limit(tokens)
        if count is None or count <= 0:
            return None
        match = re.search(r"\bby\s+([a-z_ ]+)$", text)
        if match is None:
            return None
        phrase = match.group(1).strip()
        column = self._resolve_column(phrase, table, notes, scores)
        if column is None:
            return None
        return OrderSpec(column=column, descending=True), count

    def _detect_limit(self, tokens: Sequence[str]) -> int | None:
        for position, token in enumerate(tokens):
            if token != "top":
                continue
            # Allow one filler word between "top" and the count.
            for offset in (1, 2):
                if position + offset >= len(tokens):
                    break
                nxt = tokens[position + offset]
                if nxt.isdigit():
                    return int(nxt)
                if nxt in _NUMBER_WORDS:
                    return _NUMBER_WORDS[nxt]
        return None

    # -- joins -------------------------------------------------------------------------------------------

    def _resolve_group_column(
        self, phrase: str, table: str, notes: list[str], scores: list[float]
    ) -> tuple[str, str] | None:
        """Resolve a grouping phrase in the base table or an FK neighbour.

        "revenue per category" groups orders by a *products* column: the
        group key may legitimately live one FK hop away.
        """
        try:
            column = self._resolve_column(phrase, table, notes, scores)
        except AmbiguousQuestionError:
            raise
        if column is not None:
            return column, table
        if not self.config.use_join_resolution:
            return None
        holders = self._joined_holders(table, phrase)
        if len(holders) == 1:
            column, holder = holders[0]
            notes.append(
                f"group column {column!r} found in joined table {holder!r}"
            )
            scores.append(0.8)
            return column, holder
        return None

    def _joined_holders(self, table: str, phrase: str) -> list[tuple[str, str]]:
        """``(column, holder)`` of each column named ``phrase`` (singular or
        plural) in a table other than ``table`` that an FK path joins to it."""
        target = _singularise(phrase.lower())
        return [
            (column, other)
            for other in self._surface_tables.get(target, [])
            if other.lower() != table.lower() and self.schema_kg.join_path(table, other)
            for column, surface in self._column_surfaces[other].items()
            if surface == target
        ]

    def _resolve_join(
        self,
        table: str,
        filters: list[FilterSpec],
        group_table: str | None,
        notes: list[str],
    ) -> tuple[str, str, str] | None:
        if not self.config.use_join_resolution:
            return None
        foreign_tables = {
            spec.table
            for spec in filters
            if spec.table is not None and spec.table.lower() != table.lower()
        }
        if group_table is not None and group_table.lower() != table.lower():
            foreign_tables.add(group_table)
        if not foreign_tables:
            return None
        if len(foreign_tables) > 1:
            raise TranslationError(
                f"filters span several foreign tables: {sorted(foreign_tables)}"
            )
        other = next(iter(foreign_tables))
        path = self.schema_kg.join_path(table, other)
        if not path:
            raise TranslationError(
                f"no foreign-key path between {table!r} and {other!r}"
            )
        if len(path) > 1:
            raise TranslationError(
                f"join between {table!r} and {other!r} needs {len(path)} hops; "
                "only single-hop joins are supported"
            )
        source_table, source_column, target_table, target_column = path[0]
        if source_table.lower() == table.lower():
            join = (other, source_column, target_column)
        else:
            join = (other, target_column, source_column)
        notes.append(
            f"joined {table} with {other} on "
            f"{join[1]} = {other}.{join[2]} (foreign key)"
        )
        return join


#: Hedging adverbs and politeness fillers stripped before parsing — they
#: carry no analytical content and only break phrase-boundary detection.
_FILLER_WORDS = frozenset(
    {
        "roughly", "overall", "actually", "really", "basically", "please",
        "kindly", "just", "approximately", "about",
    }
)

_FILLER_PREFIXES = (
    "please tell me",
    "could you tell me",
    "i would like to know",
    "i am wondering",
    "can you tell me",
    "tell me",
)


def _parser_text(question: str) -> str:
    """``question`` lower-cased, without its question mark, politeness
    prefix and hedging adverbs."""
    text = question.strip().rstrip("?").lower()
    for prefix in _FILLER_PREFIXES:
        if text.startswith(prefix):
            text = text[len(prefix):].strip()
            break
    words = [word for word in text.split() if word not in _FILLER_WORDS]
    return " ".join(words)


def _singular_ngrams(
    tokens: Sequence[str],
    max_size: int,
    singular: Sequence[str] | None = None,
    heads: AbstractSet[str] | None = None,
) -> dict[str, str]:
    """Singular form -> first word n-gram of ``tokens`` with it, shortest n-grams
    first; :func:`_singularise` changes only an n-gram's last word.

    ``singular`` is each token made singular, when the caller has it.  With
    ``heads``, an n-gram of two or more words is formed only if its first
    word is one of them: the n-grams left out cannot equal a phrase of two
    or more words whose first word is not a head.
    """
    if singular is None:
        singular = [_singularise(token) for token in tokens]
    grams: dict[str, str] = {}
    for size in range(1, max_size + 1):
        for end in range(size - 1, len(tokens)):
            start = end - size + 1
            if size > 1 and heads is not None and tokens[start] not in heads:
                continue
            prefix = " ".join([*tokens[start:end], ""])
            grams.setdefault(prefix + singular[end], prefix + tokens[end])
    return grams
