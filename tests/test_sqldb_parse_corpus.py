"""Golden parse corpus: each recorded input parses, or fails, as recorded.

``tests/data/parse_corpus.jsonl`` holds one JSON object per input: the
text, whether it is read as a ``statement`` (:func:`parse_sql`) or an
``expression`` (:func:`parse_expression`), and either the canonical
``to_sql()`` of the result (``"sql"``) or the error as
``[type, message, position]`` (``"error"``).

A recorded ``ValueError`` (the parser once let ``int()``/``float()``
fail on a malformed number) must now be a :class:`TokenizeError` at the
literal.

The inputs come from :func:`build_corpus`, a seeded generator over:

* the SQL strings of the other ``tests/test_sqldb_*.py`` files;
* benchgen gold SQL and :class:`SimulatedLLM`'s seven mutations of it;
* token-level deletions, duplications, adjacent swaps and replacements
  of all of the above, drawn from keywords, operators, punctuation and
  lexically awkward pieces (``1e``, ``'x``, ``"``, ``--``, ``²``, ``٣``,
  ``é``);
* hand-written precedence and number-literal cases.

Re-record (after a deliberate change of the dialect) with
``PYTHONPATH=src python tests/test_sqldb_parse_corpus.py``.
"""

from __future__ import annotations

import ast as pyast
import json
import random
import re
import sys
from pathlib import Path

import numpy as np

from repro.errors import TokenizeError
from repro.sqldb.parser import parse_expression, parse_sql
from repro.sqldb.tokenizer import KEYWORDS, tokenize

TESTS = Path(__file__).resolve().parent
CORPUS = TESTS / "data" / "parse_corpus.jsonl"
SEED = 25

#: Replacement pieces for token-level edits.
PIECES = sorted(KEYWORDS) + [
    "=", "<>", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "||",
    "(", ")", ",", ".", ";",
    "1e", "'x", '"', "--", "²", "٣", "é",
]

#: Unparenthesised precedence, associativity and literal cases.
HAND_WRITTEN = {
    "expression": [
        "NOT a = 1 AND b",
        "- - 1",
        "a NOT BETWEEN 1 + 2 AND 3 * 4",
        "x IS NOT NULL = TRUE",
        "-a * b || c",
        "NOT NOT a",
        "a IN (SELECT b FROM t WHERE c > 1)",
        "a NOT IN (SELECT b FROM t) OR c",
        "a = b = c",
        "a = NOT b",
        "a + NOT b",
        "- NOT a",
        "NOT a = b = c",
        "a AND b = c = d",
        "(a = b) = c",
        "a < b IS NULL",
        "a IS NULL IS NULL",
        "a BETWEEN 1 AND 2 AND b",
        "a BETWEEN b = 1 AND 2",
        "a LIKE 'x' || 'y' OR b NOT LIKE 'z'",
        "a + b * c - d / e % f || g",
        "+a * -b",
        "a * -b + +c",
        "NOT a IN (1, 2) AND NOT b BETWEEN 1 AND 2",
        "a NOT = b",
        "a NOT IS NULL",
        "a IS 5",
        "a IN ()",
        "a IN 1",
        "CASE WHEN a THEN b END = c",
        "a || b = c || d",
        "1 - 2 - 3",
        "1 / 2 * 3",
        "a OR b AND c OR d",
        "(SELECT 1) + 2",
        "COUNT(*) > 1 AND SUM(DISTINCT a) < 2",
        "t.* = 1",
        "f()",
        "f(,)",
        "x.",
        "NOT",
        "",
    ],
    "statement": [
        "SELECT 1e FROM orders",
        "SELECT 2e+ FROM orders",
        "SELECT 1.5e- FROM orders",
        "SELECT CASE WHEN x THEN 1else 2 END FROM orders",
        "SELECT ² FROM orders",
        "SELECT 1² FROM orders",
        "SELECT a FROM orders LIMIT ²",
        "SELECT a FROM orders LIMIT 1 OFFSET 1e",
        "SELECT ٣ FROM orders",
        "SELECT ٣.٥ FROM orders",
        "SELECT a² FROM orders",
        "SELECT é FROM orders",
        "SELECT ½ FROM orders",
        "SELECT FROM 1e",
        "SELECT a FROM t 1²",
        "SELECT a FROM t WHERE a IN (1, 2",
        "SELECT a FROM t LIMIT -1",
        "SELECT a FROM t LIMIT 1.5",
        "SELECT a, FROM t",
        "SELECT a FROM t JOIN u",
        "SELECT a FROM t LEFT OUTER JOIN u ON t.a = u.a CROSS JOIN v",
        "SELECT a FROM t UNION ALL SELECT b FROM u UNION SELECT c FROM v",
        "SELECT a FROM t -- trailing comment",
        "SELECT 'it''s' AS \"select\" FROM t;",
        "SELECT 1.e5, .5e-3, 1..2, 1e5e6 FROM t",
        "CREATE TABLE t (a INT PRIMARY KEY NOT NULL, b TEXT)",
        "CREATE TABLE t (a INT NOT)",
        "INSERT INTO t (a, b) VALUES (1, -2.5), (NULL, 'x')",
        "INSERT INTO t VALUES",
        "DELETE FROM t",
    ],
}


#: Nesting at and past the parser's depth limit of 100 levels, plus the
#: 600-parenthesis and 3,000-term inputs that once overflowed the stack;
#: recorded after every seeded input.
DEEP = {
    "expression": [
        "(" * 99 + "1" + ")" * 99,
        "(" * 100 + "1" + ")" * 100,
        # 98 operators, each with its right operand, under the outer level.
        "1" + " + 1" * 98,
        "1" + " + 1" * 99,
        "NOT " * 99 + "a",
        "NOT " * 100 + "a",
    ],
    "statement": [
        "SELECT " + "(" * 600 + "1" + ")" * 600 + " FROM cantons",
        "SELECT " + " + ".join(["1"] * 3000) + " FROM cantons",
    ],
}


def _test_file_inputs() -> dict[str, list[str]]:
    """SQL statements and expressions written in the other SQL test files."""
    inputs: dict[str, list[str]] = {"statement": [], "expression": []}
    for path in sorted(TESTS.glob("test_sqldb_*.py")):
        if path.name == Path(__file__).name:
            continue
        for node in pyast.walk(pyast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, pyast.Call) and node.args:
                name = getattr(node.func, "id", getattr(node.func, "attr", ""))
                first = node.args[0]
                if name in ("parse_expression", "evaluate") and isinstance(
                    first, pyast.Constant
                ) and isinstance(first.value, str):
                    inputs["expression"].append(first.value)
            if isinstance(node, pyast.Constant) and isinstance(node.value, str):
                if re.match(r"(?i)\s*(SELECT|CREATE|INSERT)\b", node.value):
                    inputs["statement"].append(node.value)
    return inputs


def _benchgen_inputs() -> list[str]:
    """Benchgen gold SQL plus each of SimulatedLLM's mutations of it."""
    from repro.benchgen import WorkloadSpec, build_workload
    from repro.nl.llmsim import MUTATIONS, SimulatedLLM

    workload = build_workload(
        WorkloadSpec(n_questions_per_domain=18, n_domains=3, n_rows=40, seed=SEED)
    )
    texts: list[str] = []
    for index, item in enumerate(workload.items):
        gold = item.case.gold_sql
        texts.append(gold)
        llm = SimulatedLLM(item.spec.database.catalog, seed=SEED)
        rng = np.random.default_rng([SEED, index])
        statement = parse_sql(gold)
        for mutation in MUTATIONS:
            if mutation == "syntax_error":
                texts.append(llm._syntax_error(gold, rng))
                continue
            changed = getattr(llm, f"_{mutation}")(statement, rng)
            if changed is not None:
                texts.append(changed.to_sql())
    return texts


def _pieces(text: str) -> tuple[list[str], list[str]] | None:
    """``text`` cut at token starts: each token's text and the gap after it."""
    try:
        starts = [token.position for token in tokenize(text)]
    except TokenizeError:
        return None
    words: list[str] = []
    gaps: list[str] = []
    for start, end in zip(starts, starts[1:]):
        chunk = text[start:end]
        word = chunk.rstrip()
        words.append(word)
        gaps.append(chunk[len(word):])
    return (words, gaps) if words else None


def _edit(text: str, rng: random.Random) -> str | None:
    """One random token-level deletion, duplication, swap or replacement."""
    cut = _pieces(text)
    if cut is None:
        return None
    words, gaps = cut
    index = rng.randrange(len(words))
    operation = rng.choice(("delete", "duplicate", "swap", "replace"))
    if operation == "delete":
        del words[index], gaps[index]
    elif operation == "duplicate":
        words.insert(index, words[index])
        gaps.insert(index, " ")
    elif operation == "swap":
        if index + 1 >= len(words):
            return None
        words[index], words[index + 1] = words[index + 1], words[index]
    else:
        words[index] = rng.choice(PIECES)
    return "".join(word + gap for word, gap in zip(words, gaps)).strip()


def build_corpus() -> list[tuple[str, str]]:
    """The seeded list of ``(kind, text)`` inputs, without duplicates."""
    rng = random.Random(SEED)
    found = _test_file_inputs()
    bases = {
        "statement": found["statement"] + _benchgen_inputs(),
        "expression": found["expression"],
    }
    corpus: dict[tuple[str, str], None] = {}
    for kind in ("statement", "expression"):
        for text in HAND_WRITTEN[kind] + bases[kind]:
            corpus[(kind, text)] = None
        for text in bases[kind] + HAND_WRITTEN[kind]:
            for _ in range(3):
                edited = _edit(text, rng)
                if edited is not None:
                    corpus[(kind, edited)] = None
    for kind, texts in DEEP.items():
        for text in texts:
            corpus[(kind, text)] = None
    return list(corpus)


def outcome(kind: str, text: str) -> dict:
    """The recorded form of parsing ``text``: its canonical SQL or its error."""
    parse = parse_sql if kind == "statement" else parse_expression
    try:
        return {"sql": parse(text).to_sql()}
    except Exception as exc:  # noqa: BLE001 - every failure is recorded
        return {"error": [type(exc).__name__, str(exc), getattr(exc, "position", None)]}


def _load() -> list[dict]:
    with CORPUS.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


ENTRIES = _load() if CORPUS.exists() else []


def test_corpus_is_large_and_mixed():
    assert 2000 <= len(ENTRIES) <= 3500
    errors = {entry["error"][0] for entry in ENTRIES if "error" in entry}
    assert {"ParseError", "TokenizeError"} <= errors
    assert sum("sql" in entry for entry in ENTRIES) >= 500
    assert {entry["kind"] for entry in ENTRIES} == {"statement", "expression"}


def test_every_entry_matches_its_recorded_outcome():
    mismatches = []
    for entry in ENTRIES:
        if entry.get("error", [None])[0] == "ValueError":
            continue
        recorded = {key: entry[key] for key in ("sql", "error") if key in entry}
        got = outcome(entry["kind"], entry["text"])
        if got != recorded:
            mismatches.append((entry["kind"], entry["text"], recorded, got))
    assert not mismatches, f"{len(mismatches)} mismatches, first: {mismatches[:5]}"


def test_recorded_number_crashes_are_tokenize_errors_at_the_literal():
    # The recorded parser leaked int()'s or float()'s ValueError for a
    # malformed number (``1e``, ``2e+``, ``²``, ``1²``); each is now a
    # TokenizeError at the position where the literal starts.
    crashes = [entry for entry in ENTRIES if entry.get("error", [None])[0] == "ValueError"]
    assert len(crashes) == 19
    for entry in crashes:
        literal = pyast.literal_eval(entry["error"][1].rsplit(": ", 1)[1])
        got = outcome(entry["kind"], entry["text"])["error"]
        assert got[:2] == ["TokenizeError", f"malformed number {literal!r}"], entry
        assert entry["text"].startswith(literal, got[2]), entry


if __name__ == "__main__":
    CORPUS.parent.mkdir(exist_ok=True)
    with CORPUS.open("w", encoding="utf-8") as handle:
        for kind, text in build_corpus():
            record = {"kind": kind, "text": text, **outcome(kind, text)}
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    print(f"wrote {CORPUS}", file=sys.stderr)
