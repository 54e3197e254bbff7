"""The CDA engine: every user turn goes through here.

``CDAEngine.ask(text)`` is the whole system of Figure 1 behind one
method: intent routing, grounding, translation (grounded parser first,
LLM fallback with constrained decoding and consistency UQ), execution
with provenance, verification, confidence fusion, abstention,
clarification, explanation, and proactive suggestions — each piece
switchable through :class:`~repro.core.config.ReliabilityConfig`.
"""

from __future__ import annotations

import re
from dataclasses import replace
from time import perf_counter

from repro.core.answer import Answer, AnswerKind
from repro.core.config import ReliabilityConfig
from repro.core.session import Session
from repro.obs.metrics import TurnTally, counter, histogram
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import span, start_trace
from repro.datasets.registry import DataSourceRegistry
from repro.errors import (
    AmbiguousQuestionError,
    CDAError,
    TranslationError,
)
from repro.guidance.clarification import ClarificationPolicy
from repro.guidance.conversation_graph import TurnKind
from repro.guidance.planner import ConversationPlanner
from repro.guidance.suggestions import SuggestionEngine
from repro.kg.schema_kg import SchemaKnowledgeGraph
from repro.kg.vocabulary import DomainVocabulary, QuestionTokens
from repro.nl.constrained import ConstrainedDecoder, SQLValidator
from repro.nl.generation import AnswerGenerator
from repro.nl.grammar import FilterSpec
from repro.nl.intent import IntentKind, classify_intent
from repro.nl.llmsim import LLMOutput, SimulatedLLM
from repro.nl.nl2sql import GroundedSemanticParser, ParseOutcome
from repro.nl.sqlgen import compile_intent
from repro.provenance.explanation import ExplanationBuilder
from repro.provenance.model import ProvenanceNodeKind
from repro.retrieval.dataset_search import DatasetSearchEngine
from repro.retrieval.hybrid import HybridRetriever
from repro.soundness.abstention import SelectiveAnsweringPolicy
from repro.soundness.confidence import ConfidenceBreakdown, fuse_confidence
from repro.soundness.consistency import ConsistencyUQ
from repro.soundness.verifier import AnswerVerifier
from repro.sqldb import ast
from repro.sqldb.cache import referenced_tables
from repro.sqldb.database import QueryResult
from repro.sqldb.types import ColumnType
from repro.analytics.seasonality import detect_seasonality
from repro.analytics.timeseries import InsufficientDataError, decompose
from repro.analytics.outliers import iqr_outliers

# Turn-level telemetry handles (registry reset zeroes these in place).
# ``*.latency`` names auto-attach the quantile sketch, so the scorecard's
# p50/p95 stay relative-error-bounded at any traffic volume.
_TURN_LATENCY = histogram("core.engine.turn.latency")
_CONFIDENCE = histogram(
    "core.engine.confidence",
    buckets=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
)
#: Stage name → its ``core.stage.<name>.latency`` handle, made on first use.
_STAGE_LATENCY: dict = {}
_DATA_ANSWERS = counter("core.engine.data_answers")
_EXPLAINED_ANSWERS = counter("core.engine.explained_answers")
_SUGGESTIONS_OFFERED = counter("guidance.suggestions.offered")
_CLARIFICATIONS_RESOLVED = counter("guidance.clarifications.resolved")


class CDAEngine:
    """The reliable Conversational Data Analytics system."""

    def __init__(
        self,
        registry: DataSourceRegistry,
        vocabulary: DomainVocabulary | None = None,
        config: ReliabilityConfig | None = None,
        llm: SimulatedLLM | None = None,
    ):
        self.registry = registry
        self.database = registry.database
        self.vocabulary = vocabulary
        self.config = config or ReliabilityConfig.full()
        if self.config.query_cache_size and self.database.cache is None:
            from repro.sqldb.cache import QueryCache

            self.database.cache = QueryCache(
                max_entries=self.config.query_cache_size
            )
        self.llm = llm
        self.schema_kg = SchemaKnowledgeGraph(self.database.catalog)
        self.parser = GroundedSemanticParser(
            self.schema_kg, vocabulary, self.config.grounding
        )
        self.search_engine = DatasetSearchEngine(registry, vocabulary)
        self.doc_retriever = HybridRetriever(registry.documents)
        self.suggestion_engine = SuggestionEngine(self.schema_kg)
        self.clarification = ClarificationPolicy(self.config.clarification_mode)
        self.planner = ConversationPlanner()
        self.verifier = AnswerVerifier(self.database)
        self.uq = ConsistencyUQ(self.database)
        self.validator = SQLValidator(self.database.catalog)
        self.generator = AnswerGenerator()
        self.policy = SelectiveAnsweringPolicy(self.config.abstention_threshold)
        self.explainer = ExplanationBuilder(self.database)
        self.session = Session()
        # The per-session flight recorder (see repro.obs.recorder): the
        # fingerprint hook is a callable so the hash over every row is
        # only paid when a black box actually leaves the process.
        self.recorder: FlightRecorder | None = None
        if self.config.record_turns:
            self.recorder = FlightRecorder(capacity=self.config.recorder_capacity)
            self.recorder.context.update(
                config=self.config.to_dict(),
                fingerprint=registry.fingerprint,
            )

    # ------------------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------------------

    def ask(self, text: str, llm_gold_sql: str | None = None) -> Answer:
        """Process one user turn and return the annotated answer.

        ``llm_gold_sql`` is the oracle query for the *simulated* LLM —
        benchmarks supply it so the generator's error process can act; it
        is never consulted by the reliability machinery itself.

        With :attr:`ReliabilityConfig.tracing` on, the turn runs under a
        root span and the finished span tree is attached as
        ``answer.trace`` — the system-side provenance of the answer
        itself (which stages ran, where the time and confidence went).
        """
        capture = self.recorder is not None
        if capture:
            # The session only changes inside ask(), so the previous
            # turn's post-digest IS this turn's pre-digest — recomputing
            # it would double the capture cost for nothing.
            last = self.recorder.last()
            if last is not None:
                pre_digest = last.post_digest
            else:
                pre_digest = self.session.state_digest()
        # Every increment, observation and event of the turn lands on its
        # tally (as well as in the process registry).
        with TurnTally() as tally:
            started = perf_counter()
            if not self.config.tracing:
                answer = self._ask(text, llm_gold_sql)
                root = None
            else:
                with start_trace("engine.ask", question=text) as root:
                    answer = self._ask(text, llm_gold_sql)
                    root.set_attribute("answer.kind", answer.kind.value)
                    if answer.confidence is not None:
                        root.set_attribute(
                            "answer.confidence", round(answer.confidence.value, 4)
                        )
                answer.trace = root
            seconds = perf_counter() - started
            self._record_turn(answer, seconds, root)
        tally.fold_into(self.session.metrics)
        if capture:
            self._capture_turn(text, llm_gold_sql, pre_digest, tally, answer, seconds)
        return answer

    def _record_turn(self, answer: Answer, seconds: float, root) -> None:
        """Fold one finished turn into the cross-turn aggregates: the
        turn latency sketch, the fused-confidence distribution and, when
        traced, one observation per stage latency histogram.  The turn's
        own timings stay in its span tree and the recorder's
        ``latency_s``; no event copies them."""
        _TURN_LATENCY.observe(seconds)
        if answer.confidence is not None:
            _CONFIDENCE.observe(answer.confidence.value)
        if root is not None:
            for stage in root.children:
                handle = _STAGE_LATENCY.get(stage.name)
                if handle is None:
                    name = f"core.stage.{stage.name}.latency"
                    handle = _STAGE_LATENCY[stage.name] = histogram(name)
                handle.observe(stage.duration_seconds)

    def _capture_turn(
        self,
        text: str,
        llm_gold_sql: str | None,
        pre_digest: str,
        tally: TurnTally,
        answer: Answer,
        seconds: float,
    ) -> None:
        """Fold one finished turn into the flight recorder, by reference
        (with the turn's events and counter delta off its tally), then
        check it for anomalies (dump-on-anomaly)."""
        recording = self.recorder.record(
            question=text,
            answer=answer,
            post_digest=self.session.state_digest(),
            latency_s=seconds,
            events=tally.events,
            metrics_delta=tally.counts,
            gold_sql=llm_gold_sql,
            pre_digest=pre_digest,
        )
        self._flag_anomalies(recording, answer, seconds)

    def _flag_anomalies(self, recording, answer: Answer, seconds: float) -> None:
        """Dump-on-anomaly: a turn that errors, abstains despite
        above-threshold confidence (only the verifier forces that), or
        breaches the p95 latency SLO gets its reasons on
        ``recording.anomaly`` and — when ``config.recorder_dump_dir`` is
        set — is written out as a black-box file while the evidence is
        still in the ring."""
        reasons = []
        if answer.kind is AnswerKind.ERROR:
            reasons.append("error")
        if (
            answer.kind is AnswerKind.ABSTENTION
            and answer.confidence is not None
            and answer.confidence.value >= self.policy.threshold
        ):
            reasons.append("unexpected_abstention")
        if seconds > self.config.slo.turn_p95_seconds:
            reasons.append("latency_slo_breach")
        if not reasons:
            return
        recording.anomaly = ",".join(reasons)
        if self.config.recorder_dump_dir:
            import os

            os.makedirs(self.config.recorder_dump_dir, exist_ok=True)
            path = os.path.join(
                self.config.recorder_dump_dir,
                f"blackbox-turn{recording.turn_index:04d}.jsonl",
            )
            self.recorder.dump(path)

    def scorecard(self, thresholds=None):
        """This session's P1–P5 reliability verdicts, judged on the
        session's own registry (see :mod:`repro.obs.scorecard`);
        thresholds default to ``config.slo``."""
        return self.session.scorecard(
            thresholds if thresholds is not None else self.config.slo
        )

    def _ask(self, text: str, llm_gold_sql: str | None) -> Answer:
        """The untraced turn pipeline (see :meth:`ask`)."""
        if self.session.expecting_clarification_reply:
            turn_id = self.session.record_user_turn(
                text, TurnKind.CLARIFICATION_REPLY
            )
            return self._handle_clarification_reply(text, turn_id, llm_gold_sql)
        # Short follow-ups ("and for bern?") refine the previous question
        # regardless of what the intent classifier would make of them.
        turn_id = None
        followup = None
        if self.session.last_intent is not None:
            turn_id = self.session.record_user_turn(text, TurnKind.USER_QUESTION)
            followup = self._try_followup(text, turn_id)
            if followup is not None:
                return followup
        # The turn's one tokenisation: intent, parser and grounding read it.
        question = QuestionTokens(text)
        with span("engine.intent") as intent_span:
            intent = classify_intent(question)
            intent_span.set_attribute("kind", intent.kind.value)
        if turn_id is None:
            turn_id = self.session.record_user_turn(text, TurnKind.USER_QUESTION)
        if intent.kind is IntentKind.DATASET_DISCOVERY:
            answer = self._handle_discovery(text, turn_id)
        elif intent.kind is IntentKind.METADATA:
            answer = self._handle_metadata(question, turn_id)
        elif intent.kind is IntentKind.ANALYSIS:
            answer = self._handle_analysis(question, turn_id)
        elif intent.kind is IntentKind.CHITCHAT:
            answer = self._chitchat(turn_id)
        else:
            answer = self._handle_data_query(
                text, turn_id, llm_gold_sql, question=question
            )
        return answer

    def discover(self, texts: list[str], k: int = 3) -> list[list]:
        """Batched dataset discovery for many topical requests at once.

        The batched retrieval hot path (P1 Efficiency): all requests are
        expanded, embedded, and ranked together, sharing kernel launches
        across the batch — the path a high-traffic deployment uses to
        amortise retrieval over concurrent discovery turns.  Unlike
        :meth:`ask`, this is side-effect free: no session turns are
        recorded and no clarification is opened.  Each element ranks the
        same as the corresponding single-query discovery turn.
        """
        return self.search_engine.search_batch(texts, k)

    # ------------------------------------------------------------------------------
    # clarification replies
    # ------------------------------------------------------------------------------

    def _handle_clarification_reply(
        self, reply: str, turn_id: int, llm_gold_sql: str | None
    ) -> Answer:
        pending = self.session.close_clarification()
        assert pending is not None
        chosen = self.clarification.resolve_reply(reply, pending.question)
        if chosen is not None:
            _CLARIFICATIONS_RESOLVED.inc()
        if chosen is None:
            answer = Answer(
                kind=AnswerKind.CLARIFICATION,
                text=(
                    "Sorry, I did not catch which option you meant. "
                    + pending.question.text
                ),
                clarification=pending.question,
            )
            self.session.open_clarification(
                pending.original_question, pending.question, pending.subject
            )
            self.session.record_system_turn(
                answer.text, TurnKind.CLARIFICATION_REQUEST, turn_id
            )
            return answer
        chosen_name = str(chosen).split(".")[-1].replace("table:", "")
        if pending.subject == "dataset":
            self.session.focus_table = (
                chosen_name if chosen_name in self.database.catalog else None
            )
            return self._dataset_overview(chosen_name, turn_id)
        # Table disambiguation: re-run the original question, forcing the
        # user's pick.
        return self._handle_data_query(
            pending.original_question,
            turn_id,
            llm_gold_sql,
            preferred_table=chosen_name,
        )

    # ------------------------------------------------------------------------------
    # discovery / metadata / analysis
    # ------------------------------------------------------------------------------

    def _handle_discovery(self, text: str, turn_id: int) -> Answer:
        with span("engine.retrieval") as retrieval_span:
            suggestions = self.search_engine.suggestions_for_prose(text, k=3)
            retrieval_span.set_attribute("hits", len(suggestions))
        self.session.tracker.record(
            component="retrieval",
            kind=ProvenanceNodeKind.QUERY,
            description=f"dataset discovery for {text!r}",
            outputs=[f"dataset:{name}" for name, _d, _s in suggestions],
        )
        if not suggestions:
            return self._abstain(
                turn_id, "I could not find any data source relevant to your question."
            )
        prose = self.generator.render_dataset_suggestions(text, suggestions)
        question = self.clarification.build_question(
            text, [name for name, _d, _s in suggestions], subject="dataset"
        )
        self.session.open_clarification(text, question, subject="dataset")
        answer = Answer(
            kind=AnswerKind.DISCOVERY,
            text=prose,
            clarification=question,
            confidence=ConfidenceBreakdown(
                value=min(1.0, max(score for _n, _d, score in suggestions) * 10),
                parts={"retrieval": suggestions[0][2]},
            ),
            sources=sorted(
                {
                    self.registry.info(name).source_url
                    for name, _d, _s in suggestions
                    if self.registry.info(name).source_url
                }
            ),
        )
        self.session.record_system_turn(
            answer.text, TurnKind.CLARIFICATION_REQUEST, turn_id
        )
        return answer

    def _dataset_overview(self, name: str, turn_id: int) -> Answer:
        """Summarise one data source, with its origin cited (Fig 1 turn 3)."""
        info = self.registry.info(name)
        sources = [info.source_url] if info.source_url else []
        lines = [f"{name.replace('_', ' ').title()}: {info.description}"]
        if info.kind == "table":
            table = self.database.catalog.table(name)
            columns = ", ".join(column.name for column in table.schema)
            lines.append(f"It has {len(table)} rows with columns: {columns}.")
        suggestions = (
            self.suggestion_engine.suggest(
                name if info.kind == "table" else None,
                self.session.used_group_columns,
            )
            if self.config.offer_suggestions
            else []
        )
        _SUGGESTIONS_OFFERED.inc(len(suggestions))
        answer = Answer(
            kind=AnswerKind.METADATA,
            text="\n".join(lines),
            sources=sources,
            suggestions=suggestions,
            confidence=ConfidenceBreakdown(value=0.95, parts={"registry": 1.0}),
        )
        self.session.record_system_turn(answer.text, TurnKind.SYSTEM_ANSWER, turn_id)
        return answer

    def _handle_metadata(self, question: QuestionTokens, turn_id: int) -> Answer:
        text = question.text
        # Named source? Answer from the registry directly.
        for info in self.registry.sources():
            surface = info.name.replace("_", " ").lower()
            if surface in text.lower():
                return self._dataset_overview(info.name, turn_id)
        with span("engine.retrieval") as retrieval_span:
            hits = self.doc_retriever.search(text, k=2)
            if not hits and self.vocabulary is not None:
                expansions = []
                for grounded in question.grounding(self.vocabulary):
                    expansions.extend(self.vocabulary.expand(grounded.term.name))
                if expansions:
                    hits = self.doc_retriever.search(
                        text + " " + " ".join(expansions), k=2
                    )
            retrieval_span.set_attribute("hits", len(hits))
        if not hits:
            return self._abstain(turn_id, "I have no documentation that answers this.")
        document = self.registry.documents.get(hits[0].doc_id)
        self.session.tracker.record(
            component="retrieval",
            kind=ProvenanceNodeKind.QUERY,
            description=f"document lookup for {text!r}",
            outputs=[f"doc:{document.doc_id}"],
        )
        answer = Answer(
            kind=AnswerKind.METADATA,
            text=f"{document.title}: {document.snippet(400)}",
            sources=[document.source] if document.source else [],
            confidence=ConfidenceBreakdown(
                value=0.9, parts={"retrieval": hits[0].score}
            ),
        )
        self.session.record_system_turn(answer.text, TurnKind.SYSTEM_ANSWER, turn_id)
        return answer

    def _handle_analysis(self, question: QuestionTokens, turn_id: int) -> Answer:
        text = question.text
        table_name = self._analysis_target(question)
        if table_name is None:
            return self._abstain(
                turn_id,
                "Which dataset should I analyse? Mention it by name or "
                "explore one first.",
            )
        series_info = self._time_series_for(table_name)
        if series_info is None:
            return self._abstain(
                turn_id,
                f"The {table_name.replace('_', ' ')} dataset has no "
                "time dimension I can analyse for trends or seasonality.",
            )
        sql, series, value_label = series_info
        if "outlier" in text.lower() or "anomal" in text.lower():
            return self._outlier_answer(table_name, sql, series, value_label, turn_id)
        result = detect_seasonality(series)
        lines = []
        code_lines = [
            "from repro.analytics import detect_seasonality, decompose",
            f"series = [row[0] for row in db.execute({sql!r}).rows]",
            "result = detect_seasonality(series)",
        ]
        if result.abstained:
            lines.append(result.describe())
            confidence_value = 0.3 if result.sufficient else 0.2
        else:
            lines.append(
                f"Given the statistics of {value_label.replace('_', ' ')}, "
                + result.describe() + "."
            )
            try:
                decomposition = decompose(series, result.period)
                lines.append(
                    "I decomposed the series into trend, seasonality and "
                    f"residual components: {decomposition.describe()}."
                )
                code_lines.append("parts = decompose(series, result.period)")
            except InsufficientDataError as error:
                lines.append(
                    "I did not decompose the series: "
                    f"only {error.available} observations where "
                    f"{error.needed} are needed."
                )
            confidence_value = result.confidence
        lines.append("Here is the python snippet that reproduces this analysis:")
        lines.append("\n".join(code_lines))
        self.session.tracker.record(
            component="analytics",
            kind=ProvenanceNodeKind.COMPUTATION,
            description=f"seasonality analysis of {table_name}.{value_label}",
            inputs=[f"dataset:{table_name}"],
            outputs=[f"answer:{self.session.answers_given}"],
            metadata={"sql": sql},
        )
        answer = Answer(
            kind=AnswerKind.ANALYSIS,
            text="\n".join(lines),
            sql=sql,
            confidence=ConfidenceBreakdown(
                value=confidence_value, parts={"analysis": confidence_value}
            ),
            sources=[
                self.registry.info(table_name).source_url
            ]
            if table_name in self.registry and self.registry.info(table_name).source_url
            else [],
            metadata={"period": result.period, "n_observations": result.n_observations},
        )
        self.session.record_system_turn(
            answer.text, TurnKind.SYSTEM_ANSWER, turn_id, confidence=confidence_value
        )
        self.session.focus_table = table_name
        return answer

    def _outlier_answer(
        self, table_name: str, sql: str, series: list, value_label: str, turn_id: int
    ) -> Answer:
        report = iqr_outliers(series)
        text = (
            f"Outlier check on {value_label.replace('_', ' ')} of "
            f"{table_name.replace('_', ' ')}: {report.describe()}"
        )
        answer = Answer(
            kind=AnswerKind.ANALYSIS,
            text=text,
            sql=sql,
            confidence=ConfidenceBreakdown(value=0.9, parts={"analysis": 0.9}),
            metadata={"outliers": report.count},
        )
        self.session.record_system_turn(answer.text, TurnKind.SYSTEM_ANSWER, turn_id)
        return answer

    def _analysis_target(self, question: QuestionTokens) -> str | None:
        lowered = question.text.lower()
        for table in self.database.catalog.table_names:
            if table.replace("_", " ").lower() in lowered:
                return table
        if self.vocabulary is not None:
            for grounded in question.grounding(self.vocabulary):
                for binding in grounded.term.schema_bindings:
                    if binding.startswith("table:"):
                        return binding.split(":", 1)[1]
        return self.session.focus_table

    _TIME_COLUMN_NAMES = ("month_index", "day_index", "date", "year", "month", "period")

    def _time_series_for(self, table_name: str) -> tuple[str, list, str] | None:
        """(sql, ordered values, value label) for a table's main series."""
        table = self.database.catalog.table(table_name)
        time_column = None
        for column in table.schema:
            if column.type is ColumnType.DATE or (
                column.name.lower() in self._TIME_COLUMN_NAMES
            ):
                time_column = column.name
                break
        if time_column is None:
            return None
        value_column = None
        for column in table.schema:
            if column.name == time_column:
                continue
            if column.type in (ColumnType.INTEGER, ColumnType.FLOAT) and (
                column.name.lower() not in ("id", "year", "month")
                and not column.name.lower().endswith("_id")
            ):
                value_column = column.name
                break
        time, source = ast.ColumnRef(time_column), ast.TableRef(table_name)
        if value_column is not None and len(set(table.column_values(time_column))) == len(table):
            value = ast.SelectItem(ast.ColumnRef(value_column))
            statement = ast.SelectStatement((value,), source, order_by=(ast.OrderItem(time),))
            result = self.database.execute_select(statement)
            return statement.to_sql(), [row[0] for row in result.rows], value_column
        # No one-value-per-tick measure: use counts per time bucket.
        count = ast.SelectItem(ast.AggregateCall("COUNT", ast.Star()), alias="n")
        statement = ast.SelectStatement(
            (ast.SelectItem(time), count), source,
            group_by=(time,), order_by=(ast.OrderItem(time),),
        )
        sql = statement.to_sql()
        result = self.database.execute_select(statement)
        ticks = [row[0] for row in result.rows]
        counts = {row[0]: row[1] for row in result.rows}
        if ticks and all(isinstance(tick, int) for tick in ticks):
            # Fill gaps with zero counts: a missing month means "no events",
            # and dropping it would misalign every later phase.
            series = [
                counts.get(tick, 0)
                for tick in range(min(ticks), max(ticks) + 1)
            ]
        else:
            series = [row[1] for row in result.rows]
        return sql, series, f"{table_name} volume"

    def _chitchat(self, turn_id: int) -> Answer:
        answer = Answer(
            kind=AnswerKind.CHITCHAT,
            text=(
                "Happy to help with your data questions — ask me about the "
                "available datasets or any analytical question."
            ),
        )
        self.session.record_system_turn(answer.text, TurnKind.SYSTEM_ANSWER, turn_id)
        return answer

    # ------------------------------------------------------------------------------
    # the data-question pipeline
    # ------------------------------------------------------------------------------

    _FOLLOWUP_PATTERN = (
        r"^(?:what about|how about|same (?:thing )?for|and for|and in|"
        r"now for|what if|and)\s+(?:the\s+)?([a-z0-9_ ]+?)\s*\??$"
    )

    def _try_followup(self, text: str, turn_id: int) -> Answer | None:
        """Refine the previous question with a new filter value.

        "Throughout the interaction, the system maintains context,
        allowing for follow-up questions" (Section 2.1): a short turn
        like "and for bern?" re-runs the last intent with its matching
        equality filter swapped to the new literal.
        """
        if self.session.last_intent is None:
            return None
        match = re.match(self._FOLLOWUP_PATTERN, text.strip().lower())
        if match is None:
            return None
        phrase = match.group(1).strip()
        hits = self.schema_kg.exact_value_columns(phrase)
        previous = self.session.last_intent
        # Prefer a column of the previous intent's table.
        hits = [
            hit for hit in hits if hit[0].lower() == previous.table.lower()
        ] or hits
        if len(hits) != 1:
            return None
        table, column, value = hits[0]
        if table.lower() != previous.table.lower():
            return None
        filters = [
            spec for spec in previous.filters if spec.column.lower() != column.lower()
        ]
        filters.append(FilterSpec(column=column, operator="=", value=value))
        intent = replace(previous, filters=filters)
        note = f"follow-up: refined previous question with {column} = {value!r}"
        outcome = ParseOutcome(intent, compile_intent(intent), 0.9, [note])
        return self._answer_from_statement(text, turn_id, outcome)

    def _handle_data_query(
        self,
        text: str,
        turn_id: int,
        llm_gold_sql: str | None,
        preferred_table: str | None = None,
        question: QuestionTokens | None = None,
    ) -> Answer:
        if question is None:
            question = QuestionTokens(text)
        outcome: ParseOutcome | None = None
        ambiguity_candidates: list[str] = []
        parse_failure: str | None = None
        if self.config.use_grounded_parser:
            try:
                outcome = self.parser.parse(
                    text, preferred_table=preferred_table, tokens=question
                )
            except AmbiguousQuestionError as error:
                ambiguity_candidates = [str(c) for c in error.candidates]
            except TranslationError as error:
                parse_failure = str(error)
        # Ambiguity: clarify (policy permitting) or force the best guess.
        if ambiguity_candidates:
            if self.clarification.should_ask(ambiguous=True):
                decision = self.planner.plan(
                    self.session.graph,
                    turn_id,
                    confidence=None,
                    ambiguous=True,
                    can_suggest=False,
                )
                if decision.action == "clarify":
                    return self._ask_clarification(
                        text, turn_id, ambiguity_candidates, subject="table"
                    )
            outcome = self._parse_with_preference(
                question, ambiguity_candidates[0].split(".")[-1]
            )
            if outcome is None:
                parse_failure = "ambiguous question; forced reading failed"
        # ALWAYS mode: confirm the interpretation before answering.
        if (
            outcome is not None
            and self.clarification.should_ask(ambiguous=False, confidence=None)
            and preferred_table is None
        ):
            return self._ask_clarification(
                text, turn_id, [outcome.intent.table], subject="table"
            )
        if outcome is not None:
            return self._answer_from_statement(text, turn_id, outcome)
        return self._answer_from_llm(
            question, turn_id, llm_gold_sql, parse_failure
        )

    def _parse_with_preference(
        self, question: QuestionTokens, table: str
    ) -> ParseOutcome | None:
        try:
            return self.parser.parse(
                question.text, preferred_table=table, tokens=question
            )
        except (AmbiguousQuestionError, TranslationError):
            return None

    def _named_source(self, question: QuestionTokens) -> str | None:
        """A registered data source explicitly named in the question, if any."""
        lowered = question.text.lower()
        for info in self.registry.sources():
            surface = info.name.replace("_", " ").lower()
            if surface in lowered:
                if info.kind == "table":
                    self.session.focus_table = info.name
                return info.name
        if self.vocabulary is not None:
            for grounded in question.grounding(self.vocabulary):
                if grounded.score < 0.999:
                    continue
                for binding in grounded.term.schema_bindings:
                    if binding.startswith("table:"):
                        name = binding.split(":", 1)[1]
                        if name in self.registry:
                            self.session.focus_table = name
                            return name
        return None

    def _ask_clarification(
        self, text: str, turn_id: int, candidates: list[str], subject: str
    ) -> Answer:
        options = [candidate.split(".")[-1] for candidate in candidates]
        question = self.clarification.build_question(text, options, subject=subject)
        self.session.open_clarification(text, question, subject=subject)
        answer = Answer(
            kind=AnswerKind.CLARIFICATION,
            text=question.text,
            clarification=question,
        )
        self.session.record_system_turn(
            answer.text, TurnKind.CLARIFICATION_REQUEST, turn_id, role="clarifies"
        )
        return answer

    # -- LLM fallback path ------------------------------------------------------------

    def _answer_from_llm(
        self,
        question: QuestionTokens,
        turn_id: int,
        llm_gold_sql: str | None,
        parse_failure: str | None,
    ) -> Answer:
        text = question.text
        # "I am interested in the barometer": not a computable question,
        # but it names a data source — give its overview and focus it.
        named = self._named_source(question)
        if named is not None:
            return self._dataset_overview(named, turn_id)
        if not self.config.use_llm_fallback or self.llm is None or llm_gold_sql is None:
            reason = parse_failure or "I could not translate this question."
            return self._abstain(
                turn_id,
                "I cannot answer this reliably: "
                f"{reason} Could you rephrase or name the dataset?",
            )
        with span("nl.llm.translate") as llm_span:
            samples = self.llm.generate_sql(
                text, llm_gold_sql, n_samples=max(1, self.config.consistency_samples)
            )
            llm_span.set_attribute("samples", len(samples))
        candidates = samples
        if self.config.use_constrained_decoding:
            with span("nl.decoder.validate") as decode_span:
                candidates = ConstrainedDecoder(self.validator).filter(samples)
                decode_span.set_attribute("valid", len(candidates))
            if not candidates:
                return self._abstain(
                    turn_id,
                    "None of my candidate translations passed validation, "
                    "so I will not guess. Could you rephrase the question?",
                )
        if len(candidates) > 1:
            with span("soundness.uq.vote") as uq_span:
                vote = self.uq.assess(candidates)
                uq_span.set_attribute("candidates", len(candidates))
                uq_span.set_attribute("agreement", round(vote.confidence, 4))
            chosen = vote.chosen
            consistency: float | None = vote.confidence
        else:
            chosen = candidates[0]
            consistency = None
        if chosen is None:
            return self._error_answer(turn_id, "no candidate query was executable")
        return self._answer_from_statement(text, turn_id, chosen, consistency)

    # -- shared answer assembly ----------------------------------------------------------

    def _answer_from_statement(
        self, text: str, turn_id: int, source: ParseOutcome | LLMOutput,
        consistency: float | None = None,
    ) -> Answer:
        """Execute ``source.statement``, verify it, fuse confidence, answer.

        Both translation paths end here.  ``source.sql`` is the text the
        answer records: the canonical rendering for the grounded parser,
        the generation as written for the LLM.
        """
        if isinstance(source, ParseOutcome):
            # The grounded parser is deterministic, so its "self-report" is
            # a high constant; the grounding score carries the real signal.
            outcome, self_reported, grounding = source, 0.95, source.confidence
        else:
            outcome, self_reported, grounding = None, source.self_confidence, None
        try:
            with span("engine.execution") as exec_span:
                result = self.database.execute_select(source.statement, sql=source.sql)
                exec_span.set_attribute("rows", len(result.rows))
                exec_span.set_attribute("scanned_rows", result.scanned_rows)
        except CDAError as error:
            failed = "query failed" if outcome is not None else "generated query failed"
            return self._error_answer(turn_id, f"{failed}: {error}")
        verification = self._verify(result)
        confidence = fuse_confidence(
            self_reported=self_reported,
            consistency=consistency,
            grounding=grounding,
            verification_passed=None if verification is None else verification.passed,
        )
        return self._finalise_data_answer(
            text, turn_id, result, confidence, verification, outcome
        )

    def _verify(self, result: QueryResult):
        if self.config.verification_depth == "none":
            return None
        with span("engine.verification") as verify_span:
            report = self.verifier.verify(
                result, depth=self.config.verification_depth
            )
            verify_span.set_attribute("depth", report.depth)
            verify_span.set_attribute("passed", report.passed)
        return report

    def _finalise_data_answer(
        self,
        text: str,
        turn_id: int,
        result: QueryResult,
        confidence: ConfidenceBreakdown,
        verification,
        outcome: ParseOutcome | None,
    ) -> Answer:
        if self.config.allow_abstention:
            with span("engine.abstention") as abstention_span:
                decision = self.policy.decide(
                    confidence.value,
                    None if verification is None else verification.passed,
                )
                abstention_span.set_attribute("abstained", decision.abstained)
                abstention_span.set_attribute("threshold", self.policy.threshold)
            if decision.abstained:
                answer = Answer(
                    kind=AnswerKind.ABSTENTION,
                    text=self.generator.render_abstention(
                        confidence.value, self.policy.threshold
                    ),
                    confidence=confidence,
                    verification=verification,
                )
                self.session.record_system_turn(
                    answer.text, TurnKind.ABSTENTION, turn_id,
                    confidence=confidence.value,
                )
                return answer
        terse = (
            self.config.adapt_to_expertise
            and self.session.profiler.profile().prefers_terse_answers
        )
        if outcome is not None:
            prose = self.generator.render_answer(outcome.intent, result)
            if terse:
                # Experts get the numbers; the interpretation restatement
                # is novice scaffolding (Section 3.2: interact differently
                # according to the inferred expertise).
                text_out = prose
            else:
                interpretation = self.generator.render_interpretation(outcome.intent)
                text_out = f"{interpretation}\n{prose}"
            query_intent = outcome.intent
            grounding_notes = outcome.grounding_notes
        else:
            prose = self.generator._render_table(result)
            text_out = prose
            query_intent = None
            grounding_notes = []
        explanation = None
        if self.config.attach_explanations:
            explanation = self.explainer.from_query_result(
                result, question=text, grounding_notes=grounding_notes
            )
        _DATA_ANSWERS.inc()
        if explanation is not None:
            _EXPLAINED_ANSWERS.inc()
        suggestions = []
        focus = query_intent.table if query_intent is not None else None
        if focus is not None:
            self.session.focus_table = focus
            self.session.last_intent = query_intent
            self.session.used_group_columns.update(
                column.lower() for column in query_intent.group_by
            )
        if self.config.offer_suggestions and self.session.focus_table:
            suggestions = self.suggestion_engine.suggest(
                self.session.focus_table,
                self.session.used_group_columns,
                max_suggestions=1,
            )
            _SUGGESTIONS_OFFERED.inc(len(suggestions))
        # The tables the statement reads, under their registered names, plus
        # the cited ones: an answer citing no rows still rests on its tables.
        catalog = self.database.catalog
        read = {
            catalog.table(name).name
            for name in referenced_tables(result.statement)
            if name in catalog
        }
        self.session.tracker.record(
            component="sqldb",
            kind=ProvenanceNodeKind.QUERY,
            description=result.sql,
            inputs=[
                f"dataset:{table}"
                for table in sorted(read.union(result.lineage_index.tables))
            ],
            outputs=[f"answer:{self.session.answers_given}"],
        )
        metadata: dict = {}
        if verification is not None and verification.row_verdicts is not None:
            # Part-scored answer: each group row carries its own verified
            # flag ("a confidence score ... for parts of the answer with
            # differing scores", Section 3.2).
            metadata["row_verification"] = [
                verdict.verified for verdict in verification.row_verdicts
            ]
        answer = Answer(
            kind=AnswerKind.DATA,
            text=text_out,
            confidence=confidence,
            rows=list(result.rows),
            columns=list(result.columns),
            sql=result.sql,
            intent=query_intent,
            explanation=explanation,
            verification=verification,
            suggestions=suggestions,
            metadata=metadata,
        )
        self.session.record_system_turn(
            answer.text, TurnKind.SYSTEM_ANSWER, turn_id, confidence=confidence.value
        )
        return answer

    # ------------------------------------------------------------------------------
    # where-to analysis (P3 applied forward)
    # ------------------------------------------------------------------------------

    def impact_of_source(self, source_name: str) -> list[str]:
        """Every answer of this session that rests on ``source_name``.

        The paper's *where-to* analysis (Section 3.2): when a source
        changes or rots, the system can enumerate the answers it
        influenced, so they can be re-derived or retracted.
        """
        graph = self.session.tracker.build_graph()
        node_id = f"dataset:{source_name}"
        if node_id not in graph:
            return []
        return sorted(
            node.node_id for node in graph.answers_touched_by(node_id)
        )

    def _error_answer(self, turn_id: int, message: str) -> Answer:
        return self._abstain(turn_id, f"Something went wrong: {message}", AnswerKind.ERROR)

    def _abstain(
        self, turn_id: int, text: str, kind: AnswerKind = AnswerKind.ABSTENTION
    ) -> Answer:
        """An answer without content, recorded as an abstention turn."""
        answer = Answer(kind=kind, text=text)
        self.session.record_system_turn(answer.text, TurnKind.ABSTENTION, turn_id)
        return answer
