"""Typed provenance graph: the data model behind every explanation.

Nodes represent sources (base rows, datasets, documents), activities
(queries, analytics computations, model calls, user turns), and outputs
(answers).  Directed edges point from inputs to the activities that
consumed them and from activities to what they produced — the classic
provenance DAG, specialised with the node kinds a CDA pipeline needs.

The graph supports both directions the paper asks for (Section 3.2,
Explainability): *where-from* analysis (walk backwards from an answer to
its sources) and *where-to* analysis (walk forwards from a source to every
answer it influenced — which the guidance layer uses to warn about stale
or biased sources).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ProvenanceError


class ProvenanceNodeKind(enum.Enum):
    """The vocabulary of node types in a provenance graph."""

    SOURCE_ROW = "source_row"  # one base-table row
    DATASET = "dataset"  # a table or registered data source
    DOCUMENT = "document"  # an unstructured source
    QUERY = "query"  # a SQL/KG query execution
    COMPUTATION = "computation"  # an analytics routine invocation
    MODEL_CALL = "model_call"  # an NL-model (LLM) invocation
    USER_TURN = "user_turn"  # a user utterance
    ANSWER = "answer"  # a produced answer (or answer part)


#: Node kinds that are legitimate derivation *sources* (leaves).
SOURCE_KINDS = frozenset(
    {
        ProvenanceNodeKind.SOURCE_ROW,
        ProvenanceNodeKind.DATASET,
        ProvenanceNodeKind.DOCUMENT,
        ProvenanceNodeKind.USER_TURN,
    }
)


@dataclass(frozen=True)
class ProvenanceNode:
    """One node: a stable id, a kind, a human label, and open metadata."""

    node_id: str
    kind: ProvenanceNodeKind
    label: str
    metadata: dict = field(default_factory=dict, compare=False, hash=False)


class ProvenanceGraph:
    """A DAG of provenance nodes with where-from / where-to traversal.

    Adjacency is two insertion-ordered dicts: ``_succ[node]`` maps each
    successor to the edge's role, ``_pred[node]`` holds the predecessors.
    Every traversal therefore follows insertion order and is
    deterministic.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, ProvenanceNode] = {}
        self._succ: dict[str, dict[str, str]] = {}
        self._pred: dict[str, dict[str, None]] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    @property
    def node_ids(self) -> list[str]:
        """All node ids, in insertion order."""
        return list(self._nodes)

    def add_node(self, node: ProvenanceNode) -> ProvenanceNode:
        """Add ``node``; re-adding an identical id is a no-op."""
        existing = self._nodes.get(node.node_id)
        if existing is not None:
            if existing.kind is not node.kind:
                raise ProvenanceError(
                    f"node {node.node_id!r} re-added with kind "
                    f"{node.kind.value}, was {existing.kind.value}"
                )
            return existing
        self._nodes[node.node_id] = node
        self._succ[node.node_id] = {}
        self._pred[node.node_id] = {}
        return node

    def node(self, node_id: str) -> ProvenanceNode:
        """Fetch a node by id."""
        if node_id not in self._nodes:
            raise ProvenanceError(f"no provenance node {node_id!r}")
        return self._nodes[node_id]

    def add_edge(self, from_id: str, to_id: str, role: str = "derives") -> None:
        """Add a derivation edge; cycles are rejected (provenance is a DAG).

        Re-adding an edge updates its role in place.  The cycle check
        walks only when ``to_id`` has successors and ``from_id`` has
        predecessors, so an edge into a fresh activity node costs O(1).
        """
        if from_id not in self._nodes or to_id not in self._nodes:
            raise ProvenanceError("both edge endpoints must be added first")
        if from_id == to_id or (
            self._succ[to_id]
            and self._pred[from_id]
            and to_id in self._reach(from_id, self._pred)
        ):
            raise ProvenanceError(
                f"edge {from_id!r} -> {to_id!r} would create a cycle"
            )
        self._succ[from_id][to_id] = role
        self._pred[to_id][from_id] = None

    def edges(self) -> list[tuple[str, str, str]]:
        """All edges as ``(from, to, role)``, grouped by source node."""
        return [
            (source, target, role)
            for source, targets in self._succ.items()
            for target, role in targets.items()
        ]

    # -- traversal ---------------------------------------------------------------

    def _reach(self, node_id: str, adjacency: dict) -> dict[str, None]:
        """Every node reachable from ``node_id`` along ``adjacency``, in
        breadth-first order."""
        seen: dict[str, None] = {}
        frontier = [node_id]
        for current in frontier:
            for neighbour in adjacency[current]:
                if neighbour not in seen:
                    seen[neighbour] = None
                    frontier.append(neighbour)
        return seen

    def where_from(self, node_id: str) -> list[ProvenanceNode]:
        """All ancestors of ``node_id`` (what it was derived from)."""
        self.node(node_id)
        return [self._nodes[nid] for nid in self._reach(node_id, self._pred)]

    def where_to(self, node_id: str) -> list[ProvenanceNode]:
        """All descendants of ``node_id`` (everything it influenced)."""
        self.node(node_id)
        return [self._nodes[nid] for nid in self._reach(node_id, self._succ)]

    def sources_of(self, node_id: str) -> list[ProvenanceNode]:
        """The *leaf* sources an answer rests on (where-from, sources only)."""
        return [
            node for node in self.where_from(node_id) if node.kind in SOURCE_KINDS
        ]

    def answers_touched_by(self, node_id: str) -> list[ProvenanceNode]:
        """Every answer node downstream of ``node_id`` (where-to analysis)."""
        return [
            node
            for node in self.where_to(node_id)
            if node.kind is ProvenanceNodeKind.ANSWER
        ]

    def derivation_path(self, source_id: str, answer_id: str) -> list[ProvenanceNode]:
        """One shortest derivation chain from a source to an answer
        (breadth-first from the source, in edge order)."""
        self.node(source_id)
        self.node(answer_id)
        parent: dict[str, str | None] = {source_id: None}
        frontier = [source_id]
        for current in frontier:
            if current == answer_id:
                break
            for successor in self._succ[current]:
                if successor not in parent:
                    parent[successor] = current
                    frontier.append(successor)
        if answer_id not in parent:
            raise ProvenanceError(f"{source_id!r} does not derive {answer_id!r}")
        path = [answer_id]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return [self._nodes[nid] for nid in reversed(path)]

    def topological_order(self) -> list[ProvenanceNode]:
        """All nodes in a topological order (sources before answers):
        Kahn's algorithm, first-in first-out from the zero-indegree nodes
        in insertion order."""
        indegree = {nid: len(preds) for nid, preds in self._pred.items()}
        order = [nid for nid, degree in indegree.items() if degree == 0]
        for current in order:
            for successor in self._succ[current]:
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    order.append(successor)
        return [self._nodes[nid] for nid in order]


def source_row_id(table: str, row_id: int) -> str:
    """Canonical node id for a base-table row."""
    return f"row:{table}:{row_id}"


def dataset_id(name: str) -> str:
    """Canonical node id for a dataset/table."""
    return f"dataset:{name}"


def document_id(name: str) -> str:
    """Canonical node id for a document."""
    return f"doc:{name}"
