"""Seeded word salad through ``CDAEngine.ask``: no raise, no ERROR answer.

Each domain gets a few hundred questions glued together from its own
schema words (table and column names, plural and typo'd), aggregate and
grouping cues, select verbs, stored values, SQL-looking text and unicode.
Whatever the engine makes of them, it must answer with one of the
designed kinds — data, clarification, abstention and so on — and never
raise or fall through to an ERROR answer.  The questions are drawn from a
fixed seed, so a failure reproduces; the message names the question.
"""

from __future__ import annotations

import random

import pytest

from repro.core import CDAEngine, ReliabilityConfig
from repro.core.answer import AnswerKind
from repro.datasets import (
    build_ecommerce_registry,
    build_healthcare_registry,
    build_swiss_labour_registry,
)

BUILDERS = {
    "swiss": build_swiss_labour_registry,
    "ecommerce": build_ecommerce_registry,
    "healthcare": build_healthcare_registry,
}

QUESTIONS_PER_DOMAIN = 300

VERBS = ["show", "list", "display", "give me", "what is", "what are", ""]
AGGREGATES = [
    "how many", "average", "total", "sum of", "count", "highest", "lowest",
    "mean", "number of", "max", "",
]
GROUPINGS = ["per", "by", "for each", "grouped by", "in", "of", "from", "top 3 by"]
NOISE = [
    "SELECT * FROM", "'; DROP TABLE users; --", "WHERE 1=1", "UNION SELECT",
    "Zürich", "数据", "İİ", "☃", "ñandú", "straße", "«quoted»", "?!", "and",
    "the", "please", "roughly", "0", "42", "-1", "3.5",
]


def typo(word: str, rng: random.Random) -> str:
    """Delete, double, transpose or substitute one character."""
    if len(word) < 2:
        return word
    position = rng.randrange(len(word) - 1)
    edit = rng.randrange(4)
    if edit == 0:
        return word[:position] + word[position + 1 :]
    if edit == 1:
        return word[:position] + word[position] + word[position:]
    if edit == 2:
        return word[:position] + word[position + 1] + word[position] + word[position + 2 :]
    return word[:position] + rng.choice("aeiorst") + word[position + 1 :]


def schema_words(engine: CDAEngine) -> tuple[list[str], list[str]]:
    """Table and column surfaces (with plurals), and some stored text values."""
    names: list[str] = []
    values: list[str] = []
    for table in engine.database.catalog.tables():
        names += [table.name, table.name.replace("_", " ")]
        for column in table.schema:
            surface = column.name.replace("_", " ")
            names += [column.name, surface, surface + "s"]
            stored = {v for v in table.column_values(column.name) if isinstance(v, str)}
            values += sorted(stored)[:5]
    return names, values


def word_salad(names: list[str], values: list[str], rng: random.Random) -> str:
    """One question: a select/aggregate/grouping skeleton plus noise."""

    def name() -> str:
        choice = rng.choice(names)
        return typo(choice, rng) if rng.random() < 0.2 else choice

    parts: list[str] = []
    shape = rng.randrange(4)
    if shape == 0:
        # "show price per category": a grouped select without an aggregate.
        parts += [rng.choice(VERBS), name(), rng.choice(GROUPINGS), name()]
    elif shape == 1:
        parts += [rng.choice(AGGREGATES), name(), rng.choice(GROUPINGS), name()]
    elif shape == 2:
        parts += [rng.choice(VERBS), name(), "and", name(), "in", rng.choice(values)]
    else:
        pool = names + values + VERBS + AGGREGATES + GROUPINGS + NOISE
        parts += [rng.choice(pool) for _ in range(rng.randrange(1, 12))]
    for _ in range(rng.randrange(3)):
        parts.insert(rng.randrange(len(parts) + 1), rng.choice(NOISE))
    return " ".join(part for part in parts if part)


@pytest.mark.parametrize("domain", sorted(BUILDERS))
def test_word_salad_never_errors(domain):
    bundle = BUILDERS[domain](seed=5)
    engine = CDAEngine(bundle.registry, bundle.vocabulary, config=ReliabilityConfig())
    rng = random.Random(f"word-salad-{domain}")
    names, values = schema_words(engine)
    errors = []
    for _ in range(QUESTIONS_PER_DOMAIN):
        question = word_salad(names, values, rng)
        answer = engine.ask(question)
        if answer.kind is AnswerKind.ERROR:
            errors.append((question, answer.text))
    assert errors == []
