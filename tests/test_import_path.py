"""A conversation needs neither scipy nor networkx.

The child interpreter blocks both packages before importing ``repro``
(a ``None`` entry in ``sys.modules`` makes any import of them raise),
then runs a session that reaches every graph and analytics path a turn
uses: a DATA turn, a follow-up, a seasonality analysis and a
clarification, then where-to analysis and a conversation-graph round
trip.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SESSION = r"""
import json
import sys

sys.modules["scipy"] = None
sys.modules["networkx"] = None

from repro.core import AnswerKind, CDAEngine
from repro.datasets import build_swiss_labour_registry
from repro.guidance.conversation_graph import ConversationGraph

domain = build_swiss_labour_registry(seed=5)
engine = CDAEngine(domain.registry, domain.vocabulary)
questions = [
    "what is the total employees in zurich",
    "and for bern?",
    "show me the trend and seasonality of the barometer",
    "what datasets do you have about jobs",
    "xyzzy plugh",
]
answers = [engine.ask(question) for question in questions]
graph = engine.session.graph
rebuilt = ConversationGraph.from_dict(graph.to_dict())
print(json.dumps({
    "kinds": [answer.kind.value for answer in answers],
    "followup_sql": answers[1].sql,
    "period": answers[2].metadata.get("period"),
    "impact": engine.impact_of_source("employment"),
    "same_dict": rebuilt.to_dict() == graph.to_dict(),
    "same_digest": ConversationGraph.from_dict(rebuilt.to_dict()).digest() == rebuilt.digest(),
    "blocked": [name for name in ("scipy", "networkx") if sys.modules.get(name) is not None],
}))
"""


def test_session_runs_with_scipy_and_networkx_blocked():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", SESSION],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["kinds"] == ["data", "data", "analysis", "discovery", "clarification"]
    assert "bern" in result["followup_sql"]
    assert result["period"] == 6
    assert result["impact"] == ["answer:0", "answer:1"]
    assert result["same_dict"] and result["same_digest"]
    assert result["blocked"] == []
