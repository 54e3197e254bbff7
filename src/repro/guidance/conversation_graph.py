"""The conversation graph: turns, actors, artefacts, and their relations.

Section 3.2 (Guidance) proposes "a new graph-based data model that
captures the intricacies of relying on a mix of structured queries, LLMs,
and human interactions", with nodes representing LLMs or humans.  Here:

* nodes are :class:`TurnNode` objects — a user question, a system answer,
  a clarification exchange, a suggestion, or a *speculative* turn the
  planner imagined but never uttered;
* edges are typed: ``replies_to``, ``clarifies``, ``answers``,
  ``suggests``, ``speculates`` — so where-from/where-to analysis works on
  conversations exactly like it does on data provenance.

Speculative nodes are first-class: the planner writes its alternative
scenarios into the same graph (flagged ``speculative=True``), which is
what makes "running alternative scenarios behind the scenes" inspectable
after the fact.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
from dataclasses import dataclass, field

from repro.errors import GuidanceError


class TurnKind(enum.Enum):
    """What a conversation-graph node represents."""

    USER_QUESTION = "user_question"
    SYSTEM_ANSWER = "system_answer"
    CLARIFICATION_REQUEST = "clarification_request"
    CLARIFICATION_REPLY = "clarification_reply"
    SUGGESTION = "suggestion"
    ABSTENTION = "abstention"
    SPECULATIVE = "speculative"


#: Edge roles the graph accepts.
EDGE_ROLES = frozenset(
    {"replies_to", "clarifies", "answers", "suggests", "speculates", "follows"}
)


@dataclass
class TurnNode:
    """One node: who said what (or what the planner imagined)."""

    turn_id: int
    actor: str  # "user" | "system" | "llm" | "planner"
    kind: TurnKind
    text: str
    confidence: float | None = None
    speculative: bool = False
    metadata: dict = field(default_factory=dict)


class ConversationGraph:
    """Typed digraph over conversation turns.

    Adjacency is two insertion-ordered dicts: ``_succ[turn]`` maps each
    successor to the edge's role, ``_pred[turn]`` holds the predecessors.
    """

    def __init__(self) -> None:
        self._nodes: dict[int, TurnNode] = {}
        self._succ: dict[int, dict[int, str]] = {}
        self._pred: dict[int, dict[int, None]] = {}
        self._counter = itertools.count()
        self._hash = hashlib.sha256(b"conversation-graph-v2")

    def __len__(self) -> int:
        return len(self._nodes)

    def add_turn(
        self,
        actor: str,
        kind: TurnKind,
        text: str,
        confidence: float | None = None,
        replies_to: int | None = None,
        role: str = "replies_to",
        speculative: bool = False,
        metadata: dict | None = None,
    ) -> TurnNode:
        """Append a turn, optionally linked to the turn it responds to."""
        turn = TurnNode(
            turn_id=next(self._counter),
            actor=actor,
            kind=kind,
            text=text,
            confidence=confidence,
            speculative=speculative,
            metadata=metadata or {},
        )
        self._nodes[turn.turn_id] = turn
        self._succ[turn.turn_id] = {}
        self._pred[turn.turn_id] = {}
        self._hash.update(repr((
            turn.turn_id, actor, kind.value, text, confidence, speculative,
            sorted(turn.metadata.items()),
        )).encode("utf-8"))
        if replies_to is not None:
            self.link(replies_to, turn.turn_id, role=role)
        return turn

    def link(self, from_id: int, to_id: int, role: str = "follows") -> None:
        """Add a typed edge between two existing turns."""
        if role not in EDGE_ROLES:
            raise GuidanceError(f"unknown edge role {role!r}")
        if from_id not in self._nodes or to_id not in self._nodes:
            raise GuidanceError("both turns must exist before linking")
        self._succ[from_id][to_id] = role
        self._pred[to_id][from_id] = None
        self._hash.update(repr((from_id, to_id, role)).encode("utf-8"))

    # -- running digest ---------------------------------------------------------

    def digest(self) -> str:
        """A SHA-256 chain over every mutation since creation.

        Each mutation ``update``s one running ``hashlib.sha256`` with the
        UTF-8 ``repr`` of a fixed-order tuple: a turn's id, actor, kind
        value, text, confidence, speculative flag and sorted metadata
        items, or an edge's from, to and role.  Graphs built by the same
        sequence of ``add_turn``/``link`` calls share a digest; any
        divergence in that sequence changes it.  Reading it is O(1) no
        matter how long the conversation — which is what lets the flight
        recorder digest the session after every turn without
        re-serialising a growing graph (see ``Session.state_digest``).
        """
        return self._hash.hexdigest()

    def turn(self, turn_id: int) -> TurnNode:
        """Fetch a turn by id."""
        if turn_id not in self._nodes:
            raise GuidanceError(f"no turn {turn_id}")
        return self._nodes[turn_id]

    def edges(self) -> list[tuple[int, int, str]]:
        """All edges as ``(from_turn, to_turn, role)``, grouped by source turn."""
        return [
            (source, target, role)
            for source, targets in self._succ.items()
            for target, role in targets.items()
        ]

    # -- traversal -----------------------------------------------------------------

    def turns(self, include_speculative: bool = False) -> list[TurnNode]:
        """All turns in utterance order."""
        return [
            node
            for node in self._nodes.values()
            if include_speculative or not node.speculative
        ]

    def history_text(self, limit: int | None = None) -> list[str]:
        """The uttered conversation as "actor: text" lines."""
        lines = [
            f"{node.actor}: {node.text}" for node in self.turns()
        ]
        if limit is not None:
            return lines[-limit:]
        return lines

    def last_turn(self, kind: TurnKind | None = None) -> TurnNode | None:
        """Most recent (non-speculative) turn, optionally of one kind."""
        for node in reversed(self.turns()):
            if kind is None or node.kind is kind:
                return node
        return None

    def open_clarification(self) -> TurnNode | None:
        """The pending clarification request, if the user has not replied."""
        for node in reversed(self.turns()):
            if node.kind is TurnKind.CLARIFICATION_REPLY:
                return None
            if node.kind is TurnKind.CLARIFICATION_REQUEST:
                return node
            if node.kind is TurnKind.USER_QUESTION:
                return None
        return None

    def replies_to(self, turn_id: int) -> list[TurnNode]:
        """Turns that respond to ``turn_id`` (any edge role)."""
        self.turn(turn_id)
        return [self._nodes[nid] for nid in self._succ[turn_id]]

    def thread_of(self, turn_id: int) -> list[TurnNode]:
        """The chain of turns leading to ``turn_id`` (where-from analysis)."""
        self.turn(turn_id)
        chain = [turn_id]
        seen = {turn_id}
        current = turn_id
        while self._pred[current]:
            current = min(self._pred[current])  # earliest parent keeps chains linear
            if current in seen:  # ``link`` accepts cycles; stop at the first repeat
                break
            seen.add(current)
            chain.append(current)
        return [self._nodes[nid] for nid in reversed(chain)]

    def speculative_children(self, turn_id: int) -> list[TurnNode]:
        """The planner's imagined continuations of ``turn_id``."""
        self.turn(turn_id)
        return [
            self._nodes[nid]
            for nid in self._succ[turn_id]
            if self._nodes[nid].speculative
        ]

    # -- statistics the profiler and planner consume --------------------------------

    def count_by_kind(self) -> dict[TurnKind, int]:
        """How many (uttered) turns of each kind the conversation holds."""
        counts: dict[TurnKind, int] = {kind: 0 for kind in TurnKind}
        for node in self.turns():
            counts[node.kind] += 1
        return counts

    # -- serialisation (session persistence / audit export) ---------------------

    def to_dict(self) -> dict:
        """A JSON-serialisable snapshot of the whole graph.

        Conversation logs are themselves data sources in the paper's
        architecture (layer d includes "past conversations between the
        user and the system"); the export is what feeds them back in.
        """
        return {
            "turns": [
                {
                    "turn_id": node.turn_id,
                    "actor": node.actor,
                    "kind": node.kind.value,
                    "text": node.text,
                    "confidence": node.confidence,
                    "speculative": node.speculative,
                    "metadata": dict(node.metadata),
                }
                for node in self._nodes.values()
            ],
            "edges": [
                {"from": source, "to": target, "role": role}
                for source, target, role in self.edges()
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ConversationGraph":
        """Rebuild a graph exported by :meth:`to_dict`.

        A session links each edge right after the later of its two turns
        is added, so the rebuild does the same (in exported edge order):
        the rebuilt graph's :meth:`digest` then equals the live one's.
        Successor order is restored from the export afterwards, so
        ``from_dict(g.to_dict()).to_dict() == g.to_dict()`` for any graph.
        """
        graph = cls()
        turns = sorted(payload.get("turns", []), key=lambda t: t["turn_id"])
        known = {turn["turn_id"] for turn in turns}
        edges = payload.get("edges", [])
        edges_after: dict[int, list[dict]] = {}
        for edge in edges:
            if edge["from"] not in known or edge["to"] not in known:
                raise GuidanceError("edge references a missing turn")
            edges_after.setdefault(max(edge["from"], edge["to"]), []).append(edge)
        id_map: dict[int, int] = {}
        for turn in turns:
            node = graph.add_turn(
                actor=turn["actor"],
                kind=TurnKind(turn["kind"]),
                text=turn["text"],
                confidence=turn.get("confidence"),
                speculative=turn.get("speculative", False),
                metadata=turn.get("metadata", {}),
            )
            id_map[turn["turn_id"]] = node.turn_id
            for edge in edges_after.get(turn["turn_id"], ()):
                graph.link(
                    id_map[edge["from"]],
                    id_map[edge["to"]],
                    role=edge.get("role", "follows"),
                )
        exported: dict[int, list[int]] = {}
        for edge in edges:
            exported.setdefault(id_map[edge["from"]], []).append(id_map[edge["to"]])
        for source, targets in exported.items():
            successors = graph._succ[source]
            graph._succ[source] = {target: successors[target] for target in targets}
        return graph

    def mean_confidence(self) -> float | None:
        """Mean confidence over system answers (None with no answers)."""
        values = [
            node.confidence
            for node in self.turns()
            if node.kind is TurnKind.SYSTEM_ANSWER and node.confidence is not None
        ]
        if not values:
            return None
        return sum(values) / len(values)
