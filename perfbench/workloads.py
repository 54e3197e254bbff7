"""The benchmark's seeded conversational workloads.

Each workload builds its engines (this is what ``setup_s`` times) and one
simulated user per session.  A user is a closed loop: it waits for each
answer before sending its next turn, and when the engine asks back it
replies with the first offered option, as a user would.  Turns come from
a seeded script, so the engine only ever sees the generated text (plus,
for turns that carry one, the gold SQL the simulated LLM perturbs).

* ``conversation_mix`` — six long sessions over the swiss, ecommerce and
  healthcare domains, interleaved round-robin.  Every scripted episode
  holds each kind of turn once, in a seeded order.
* ``sql_heavy`` — benchgen cases from every archetype over generated
  tables of a few thousand rows, with paraphrase noise and no vocabulary;
  one engine per database, each case asked once in its domain's session
  (a run that asks them all starts new sessions on fresh engines).
* ``long_questions`` — one session per domain; questions of 15-80 tokens
  built from domain phrases, some carrying adversarial text.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

#: Hallucination rate of the simulated LLM behind every engine.
LLM_ERROR_RATE = 0.3

#: sql_heavy sizes: rows per generated entity table, cases per domain.
SQL_HEAVY_ROWS = 2000
SQL_HEAVY_CASES = 100

#: long_questions: one cycle of question lengths, in tokens.
LENGTH_LADDER = (15, 21, 28, 34, 41, 47, 54, 60, 67, 73, 80)


@dataclass(frozen=True)
class Turn:
    """One user turn: the text and, when it has one, the gold SQL."""

    text: str
    gold_sql: str | None = None


class SimulatedUser:
    """One closed-loop user bound to one engine."""

    #: Consecutive clarification replies before the user moves on.
    MAX_REPLIES = 2

    def __init__(self, engine, script: Iterator[Turn]):
        self.engine = engine
        self._script = script
        self._last = None
        self._replies = 0
        self._gold_sql: str | None = None

    def next_turn(self) -> Turn:
        """Reply to an open clarification, else the next scripted turn.

        A reply carries the gold SQL of the question that was clarified,
        since the engine answers that question once the option is picked.
        """
        question = self._last.clarification if self._last is not None else None
        if question is not None and question.options and self._replies < self.MAX_REPLIES:
            self._replies += 1
            return Turn(str(question.options[0]), self._gold_sql)
        self._replies = 0
        turn = next(self._script)
        self._gold_sql = turn.gold_sql
        return turn

    def observe(self, answer) -> None:
        self._last = answer


@dataclass
class Workload:
    """Built engines, their users, and how many turns each phase runs."""

    users: list[SimulatedUser]
    #: Untimed turns before measuring; the answer fingerprint covers them.
    warmup_turns: int
    #: Turns of the untimed memory pass (after its own warm-up).
    memory_turns: int


def _engine(registry, vocabulary, seed: int):
    from repro.core import CDAEngine, ReliabilityConfig
    from repro.nl import SimulatedLLM

    llm = SimulatedLLM(
        registry.database.catalog, error_rate=LLM_ERROR_RATE, seed=seed
    )
    return CDAEngine(registry, vocabulary, config=ReliabilityConfig(), llm=llm)


# -- conversation_mix -------------------------------------------------------------


def _domain_scripts() -> dict[str, dict]:
    """Question templates per domain, keyed by the kind of turn."""
    from repro.datasets.ecommerce import CATEGORIES, COUNTRIES
    from repro.datasets.healthcare import WARDS
    from repro.datasets.swiss_labour import CANTONS, SECTORS

    cantons = [name for name, _region, _population in CANTONS]
    return {
        "swiss": {
            "count": [
                "how many employees are there",
                "how many cantons are there",
                "how many employment records are there",
            ],
            "filter": [
                ("how many employment records in {}", cantons),
                ("what is the total employees in {}", cantons),
                ("what is the total employees in {}", SECTORS),
            ],
            "group": [
                "what is the average employees for each sector",
                "what is the total employees for each canton",
                "what is the total employees for each year",
                "what is the average population for each region",
            ],
            "superlative": [
                "which sector has the highest total employees",
                "which canton has the highest total employees",
            ],
            "discovery": ["the labour market", "jobs", "the workforce", "population"],
            "metadata": [
                "what is the barometer?",
                "how is the barometer methodology documented",
                "describe the employment survey notes",
            ],
            "analysis": [
                "show me the trend and seasonality of the barometer",
                "are there outliers in the barometer",
                "can you give me the seasonality insights of the barometer",
            ],
            "llm": [
                ("tell me the figure for {} lately",
                 "SELECT SUM(employees) FROM employment WHERE canton = '{}'", cantons),
                ("give me the peculiar number for {} lately",
                 "SELECT AVG(employees) FROM employment WHERE sector = '{}'", SECTORS),
            ],
            "ambiguous": [
                "how many jobs and cantons",
                "count the workforce and the leading indicator",
            ],
        },
        "ecommerce": {
            "count": [
                "how many orders are there",
                "how many customers are there",
                "how many products are there",
            ],
            "filter": [
                ("how many customers in {}", COUNTRIES),
                ("how many products in {}", CATEGORIES),
            ],
            "group": [
                "what is the average price for each category",
                "what is the total price for each category",
                "what is the average age for each country",
                "what is the total quantity for each product_id",
            ],
            "superlative": [
                "which category has the highest average price",
                "which country has the highest average age",
            ],
            "discovery": ["sales", "customers", "revenue", "pricing"],
            "metadata": [
                "what is the shop reporting guide",
                "describe the orders",
                "describe the products",
            ],
            "analysis": [
                "show me the seasonality of the orders",
                "are there outliers in the orders",
                "show me the trend of the orders",
            ],
            "llm": [
                ("tell me the figure for {} lately",
                 "SELECT COUNT(*) FROM customers WHERE country = '{}'", COUNTRIES),
                ("give me the peculiar number for {} lately",
                 "SELECT AVG(price) FROM products WHERE category = '{}'", CATEGORIES),
            ],
            "ambiguous": [
                "how many buyers and sales",
                "count the clients and purchases",
                "how many items and buyers",
            ],
        },
        "healthcare": {
            "count": ["how many patients are there", "how many visits are there"],
            "filter": [("how many visits in {}", WARDS)],
            "group": [
                "what is the average cost for each ward",
                "what is the total cost for each ward",
                "what is the average systolic_bp for each sex",
                "what is the average age for each sex",
            ],
            "superlative": [
                "which ward has the highest total cost",
                "which ward has the highest average cost",
            ],
            "discovery": ["hospital costs", "patients", "the cohort", "hospital visits"],
            "metadata": [
                "what is the cohort protocol",
                "describe the visits",
                "describe the patients",
            ],
            "analysis": [
                "show me the seasonality of the visits",
                "are there outliers in the visits",
                "show me the trend of the visits",
            ],
            "llm": [
                ("tell me the figure for {} lately",
                 "SELECT AVG(cost) FROM visits WHERE ward = '{}'", WARDS),
                ("give me the peculiar number for {} lately",
                 "SELECT COUNT(*) FROM visits WHERE ward = '{}'", WARDS),
            ],
            "ambiguous": [
                "how many admissions and subjects",
                "count the encounters and participants",
                "how many subjects and admissions",
            ],
        },
    }


_CHITCHAT = ("hello", "thanks a lot", "hi there", "goodbye")
_NONSENSE = ("frobnication", "zorblax", "quuxification", "snarkle", "plughwort")

#: One episode: every kind of turn once (``llm`` twice), in a seeded order.
_EPISODE = (
    "count", "filter", "group", "superlative", "discovery", "metadata",
    "analysis", "chitchat", "ungroundable", "llm", "llm", "ambiguous",
)


class _Bag:
    """Draws options in seeded permutations, so each is used equally often."""

    def __init__(self, options, rng: random.Random):
        self._options = list(options)
        self._rng = rng
        self._pending: list = []

    def draw(self):
        if not self._pending:
            self._pending = list(self._options)
            self._rng.shuffle(self._pending)
        return self._pending.pop()


def _bags(templates: dict, rng: random.Random) -> dict[str, _Bag]:
    bags = {kind: _Bag(options, rng) for kind, options in templates.items()}
    bags["chitchat"] = _Bag(_CHITCHAT, rng)
    bags["ungroundable"] = _Bag(_NONSENSE, rng)
    return bags


def _unit(kind: str, bags: dict[str, _Bag], rng: random.Random) -> list[Turn]:
    """The turns of one scripted unit (a filter question brings its follow-up)."""
    if kind == "filter":
        template, values = bags["filter"].draw()
        first, second = rng.sample(list(values), 2)
        return [Turn(template.format(first)), Turn(f"and for {second}")]
    if kind == "discovery":
        return [Turn(f"what datasets do you have about {bags['discovery'].draw()}")]
    if kind == "ungroundable":
        return [Turn(f"please compute the {bags['ungroundable'].draw()} coefficient")]
    if kind == "llm":
        text, gold, values = bags["llm"].draw()
        value = rng.choice(list(values))
        return [Turn(text.format(value), gold.format(value))]
    return [Turn(bags[kind].draw())]


def conversation_script(domain: str, rng: random.Random) -> Iterator[Turn]:
    """Endless seeded episodes of one domain's conversation.

    Within a kind of turn, templates are drawn in seeded permutations,
    so seeds change the wording and the order, not the mix.
    """
    bags = _bags(_domain_scripts()[domain], rng)
    while True:
        episode = list(_EPISODE)
        rng.shuffle(episode)
        for kind in episode:
            yield from _unit(kind, bags, rng)


def _domain_bundle(domain: str, seed: int):
    from repro.datasets import (
        build_ecommerce_registry,
        build_healthcare_registry,
        build_swiss_labour_registry,
    )

    build_registry = {
        "swiss": build_swiss_labour_registry,
        "ecommerce": build_ecommerce_registry,
        "healthcare": build_healthcare_registry,
    }[domain]
    return build_registry(seed=seed)


def _session_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


CONVERSATION_DOMAINS = ("swiss", "ecommerce", "healthcare", "swiss", "ecommerce", "healthcare")


def conversation_mix(seed: int) -> Workload:
    users = []
    for domain, session_seed in zip(
        CONVERSATION_DOMAINS, _session_seeds(seed, len(CONVERSATION_DOMAINS))
    ):
        bundle = _domain_bundle(domain, session_seed)
        engine = _engine(bundle.registry, bundle.vocabulary, session_seed)
        users.append(
            SimulatedUser(engine, conversation_script(domain, random.Random(session_seed)))
        )
    return Workload(users, warmup_turns=120, memory_turns=300)


# -- sql_heavy --------------------------------------------------------------------


def sql_heavy_cases(seed: int):
    """The benchgen workload: every archetype, paraphrased, seeded."""
    from repro.benchgen import WorkloadSpec, build_workload
    from repro.benchgen.schema_gen import ARCHETYPES

    return build_workload(
        WorkloadSpec(
            n_questions_per_domain=SQL_HEAVY_CASES,
            n_domains=len(ARCHETYPES),
            n_rows=SQL_HEAVY_ROWS,
            paraphrase_strength=0.3,
            seed=seed % 2**32,
        )
    )


class _ReturningUser(SimulatedUser):
    """A benchgen user: asks each case once, then starts a new session.

    Every session runs on a fresh engine over a fresh ``Database`` that
    holds the same tables, so a later session is never served from an
    earlier one's query cache, however long the run.
    """

    def __init__(self, spec, turns: list[Turn], seed: int):
        self._spec = spec
        self._turns = turns
        self._seed = seed
        super().__init__(self._new_engine(), iter(turns))

    def _new_engine(self):
        from repro.datasets.registry import DataSourceRegistry
        from repro.sqldb.database import Database

        spec = self._spec
        database = Database()
        for table in spec.database.catalog.tables():
            database.add_table(table)
        database.catalog.add_foreign_key(
            spec.entity_table, spec.category_column, spec.dimension_table, spec.category_column
        )
        return _engine(DataSourceRegistry(database), None, self._seed)

    def next_turn(self) -> Turn:
        try:
            return super().next_turn()
        except StopIteration:
            self.engine = self._new_engine()
            self._script = iter(self._turns)
            self._last = None
            return super().next_turn()


def sql_heavy(seed: int) -> Workload:
    scripts: dict[int, list[Turn]] = {}
    specs = {}
    for item in sql_heavy_cases(seed).items:
        key = id(item.spec.database)
        specs.setdefault(key, item.spec)
        scripts.setdefault(key, []).append(
            Turn(item.surface_question, item.case.gold_sql)
        )
    users = [_ReturningUser(spec, scripts[key], seed) for key, spec in specs.items()]
    return Workload(users, warmup_turns=50, memory_turns=60)


# -- long_questions ---------------------------------------------------------------

_ADVERSARIAL = (
    "Zürich Genève Ærø ☃ 数据 ñandú «quoted» naïve",
    "'; DROP TABLE users; -- SELECT * FROM accounts; EXEC xp_cmdshell('dir')",
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa !!!!!!!!!!!!!!!! zzzzzzzzzzzz",
)

#: Padding that names nothing in any schema.
_FILLER = (
    "please", "I would like to know", "as soon as possible", "if you can",
    "for my report", "it is quite urgent", "my manager asked me",
    "to prepare the presentation", "for the quarterly review",
    "with a short explanation", "in simple words", "if that is possible",
    "before the meeting tomorrow", "so that I can plan ahead",
)


_OPENER_KINDS = ("count", "group", "superlative", "filter")


def _opener(bags: dict[str, _Bag], kind: str, rng: random.Random) -> str:
    if kind == "filter":
        template, values = bags["filter"].draw()
        return template.format(rng.choice(list(values)))
    return bags[kind].draw()


def long_question(
    bags: dict[str, _Bag],
    length: int,
    kind: str,
    adversarial: int | None,
    rng: random.Random,
    padding_rng: random.Random,
) -> str:
    """One data question of the domain padded to exactly ``length`` tokens.

    ``kind`` picks the kind of question.  Padding is filler that names
    nothing in the schema, drawn from ``padding_rng`` and placed before
    and after the question; ``adversarial`` picks one of the adversarial
    snippets to splice into the padding.
    """
    opener = _opener(bags, kind, rng).split()
    padding: list[str] = []
    if adversarial is not None:
        padding += _ADVERSARIAL[adversarial].split()
    while len(opener) + len(padding) < length:
        padding += padding_rng.choice(_FILLER).split()
    padding = padding[: max(0, length - len(opener))]
    cut = rng.randrange(len(padding) + 1)
    return " ".join(padding[:cut] + opener + padding[cut:])


def long_question_script(domain: str, rng: random.Random) -> Iterator[Turn]:
    """Endless cycles over the length ladder.

    Every cycle asks each length once, in a seeded order.  Which kind of
    question, which adversarial snippet and which padding a length gets
    change from cycle to cycle the same way for every seed (the padding's
    cost varies most), so seeds change the questions asked, their values
    and their order, not the mix.
    """
    bags = _bags(_domain_scripts()[domain], rng)
    for cycle in itertools.count():
        rungs = list(range(len(LENGTH_LADDER)))
        rng.shuffle(rungs)
        for rung in rungs:
            kind = _OPENER_KINDS[(rung + cycle) % len(_OPENER_KINDS)]
            slot = (rung + cycle) % len(LENGTH_LADDER)
            adversarial = slot if slot < len(_ADVERSARIAL) else None
            padding_rng = random.Random(f"padding-{cycle}-{rung}")
            yield Turn(
                long_question(bags, LENGTH_LADDER[rung], kind, adversarial, rng, padding_rng)
            )


LONG_DOMAINS = ("swiss", "ecommerce", "healthcare")


def long_questions(seed: int) -> Workload:
    users = []
    for domain, session_seed in zip(LONG_DOMAINS, _session_seeds(seed, len(LONG_DOMAINS))):
        bundle = _domain_bundle(domain, session_seed)
        engine = _engine(bundle.registry, bundle.vocabulary, session_seed)
        script = long_question_script(domain, random.Random(session_seed))
        users.append(SimulatedUser(engine, script))
    # Whole length cycles per session: one to warm up, two for memory.
    cycle = len(LENGTH_LADDER) * len(users)
    return Workload(users, warmup_turns=cycle, memory_turns=2 * cycle)


WORKLOADS = {
    "conversation_mix": conversation_mix,
    "sql_heavy": sql_heavy,
    "long_questions": long_questions,
}
