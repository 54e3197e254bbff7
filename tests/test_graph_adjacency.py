"""The dict-adjacency graphs against brute-force oracles.

``ProvenanceGraph`` and ``ConversationGraph`` keep their edges in two
insertion-ordered dicts.  Every traversal here is checked against a
reference computed independently from a flat edge list: a brute-force
transitive closure for where-from / where-to and cycle rejection, a
list-scanning Kahn's algorithm for the topological order, and
Bellman-Ford-style relaxation for shortest derivation paths.
"""

import signal
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CDAEngine
from repro.datasets import build_swiss_labour_registry
from repro.errors import ProvenanceError
from repro.guidance.conversation_graph import ConversationGraph, TurnKind
from repro.provenance import tracker as tracker_module
from repro.provenance.model import ProvenanceGraph, ProvenanceNode, ProvenanceNodeKind
from repro.provenance.tracker import ProvenanceTracker

KINDS = list(ProvenanceNodeKind)
ROLES = ["used", "generated", "derives"]


def _closure(nodes: list[str], edges: dict) -> dict[str, set[str]]:
    """``reach[u]``: every node reachable from ``u`` by one or more edges."""
    reach = {node: {target for source, target in edges if source == node} for node in nodes}
    changed = True
    while changed:
        changed = False
        for node in nodes:
            extended = set(reach[node])
            for middle in reach[node]:
                extended |= reach[middle]
            if extended != reach[node]:
                reach[node] = extended
                changed = True
    return reach


def _kahn(nodes: list[str], edge_list: list[tuple[str, str]]) -> list[str]:
    """Kahn's algorithm, FIFO, zero-indegree nodes seeded in insertion order."""
    indegree = {node: 0 for node in nodes}
    for _source, target in edge_list:
        indegree[target] += 1
    queue = deque(node for node in nodes if indegree[node] == 0)
    order = []
    while queue:
        current = queue.popleft()
        order.append(current)
        for source, target in edge_list:
            if source == current:
                indegree[target] -= 1
                if indegree[target] == 0:
                    queue.append(target)
    return order


def _distances(nodes: list[str], edge_list: list[tuple[str, str]], start: str) -> dict:
    """Shortest hop counts from ``start`` by repeated relaxation."""
    distance = {start: 0}
    for _ in nodes:
        for source, target in edge_list:
            if source in distance and distance[source] + 1 < distance.get(target, len(nodes) + 1):
                distance[target] = distance[source] + 1
    return distance


graphs = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.tuples(
        st.lists(st.sampled_from(KINDS), min_size=n, max_size=n),
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(ROLES)
            ),
            max_size=30,
        ),
    )
)


def _build(kinds, attempts):
    """Replay ``attempts`` on a graph and on a flat oracle edge map."""
    nodes = [f"n{index}" for index in range(len(kinds))]
    graph = ProvenanceGraph()
    for node_id, kind in zip(nodes, kinds):
        graph.add_node(ProvenanceNode(node_id, kind, node_id))
    oracle: dict[tuple[str, str], str] = {}
    for source_index, target_index, role in attempts:
        source, target = nodes[source_index], nodes[target_index]
        before = graph.edges()
        reach = _closure(nodes, oracle)
        if source == target or source in reach[target]:
            with pytest.raises(ProvenanceError):
                graph.add_edge(source, target, role)
            assert graph.edges() == before
        else:
            graph.add_edge(source, target, role)
            oracle[(source, target)] = role
    return nodes, graph, oracle


class TestProvenanceGraphOracle:
    @settings(max_examples=150, deadline=None)
    @given(graphs)
    def test_edges_keep_source_then_insertion_order(self, case):
        nodes, graph, oracle = _build(*case)
        expected = sorted(
            ((source, target, role) for (source, target), role in oracle.items()),
            key=lambda edge: nodes.index(edge[0]),
        )
        assert graph.edges() == expected

    @settings(max_examples=150, deadline=None)
    @given(graphs)
    def test_where_from_and_where_to_match_the_closure(self, case):
        nodes, graph, oracle = _build(*case)
        reach = _closure(nodes, oracle)
        for node in nodes:
            ancestors = {other for other in nodes if node in reach[other]}
            assert {n.node_id for n in graph.where_from(node)} == ancestors
            assert {n.node_id for n in graph.where_to(node)} == reach[node]
            assert len(graph.where_to(node)) == len(reach[node])

    @settings(max_examples=150, deadline=None)
    @given(graphs)
    def test_topological_order_is_fifo_kahn(self, case):
        nodes, graph, oracle = _build(*case)
        order = [node.node_id for node in graph.topological_order()]
        assert sorted(order) == sorted(nodes)
        position = {node: index for index, node in enumerate(order)}
        assert all(position[source] < position[target] for source, target in oracle)
        edge_list = [(source, target) for source, target, _role in graph.edges()]
        assert order == _kahn(nodes, edge_list)

    @settings(max_examples=150, deadline=None)
    @given(graphs)
    def test_derivation_path_is_a_shortest_path(self, case):
        nodes, graph, oracle = _build(*case)
        edge_list = list(oracle)
        for source in nodes:
            distance = _distances(nodes, edge_list, source)
            for target in nodes:
                if target not in distance:
                    with pytest.raises(ProvenanceError):
                        graph.derivation_path(source, target)
                    continue
                path = [node.node_id for node in graph.derivation_path(source, target)]
                assert path[0] == source and path[-1] == target
                assert all(step in oracle for step in zip(path, path[1:]))
                assert len(path) - 1 == distance[target]


def _counting_graph(visits: list[int]):
    """A ``ProvenanceGraph`` factory whose instances count the nodes each
    reachability walk visits."""

    def make():
        graph = ProvenanceGraph()
        walk = graph._reach

        def counted(node_id, adjacency):
            reached = walk(node_id, adjacency)
            visits.append(len(reached))
            return reached

        graph._reach = counted
        return graph

    return make


def _engine_shaped_tracker(records: int) -> ProvenanceTracker:
    """A tracker with the record shapes the engine writes, cycled."""
    tracker = ProvenanceTracker()
    tables = ["employment", "cantons", "barometer"]
    for index in range(records):
        table = tables[index % len(tables)]
        shape = index % 4
        if shape == 0:
            tracker.record(
                "retrieval", ProvenanceNodeKind.QUERY, "discovery",
                outputs=[f"dataset:{name}" for name in tables],
            )
        elif shape == 1:
            tracker.record(
                "retrieval", ProvenanceNodeKind.QUERY, "document lookup",
                outputs=[f"doc:{table}"],
            )
        elif shape == 2:
            tracker.record(
                "analytics", ProvenanceNodeKind.COMPUTATION, "seasonality",
                inputs=[f"dataset:{table}"], outputs=[f"answer:{index}"],
            )
        else:
            tracker.record(
                "sqldb", ProvenanceNodeKind.QUERY, "SELECT ...",
                inputs=[f"dataset:{name}" for name in tables[: 1 + index % 3]],
                outputs=[f"answer:{index}"],
            )
    return tracker


class TestCycleCheckWork:
    @pytest.mark.parametrize("records", [100, 1000])
    def test_tracker_graph_visits_linear_nodes(self, monkeypatch, records):
        visits: list[int] = []
        monkeypatch.setattr(tracker_module, "ProvenanceGraph", _counting_graph(visits))
        graph = _engine_shaped_tracker(records).build_graph()
        assert len(graph) > records
        assert sum(visits) <= records

    def test_engine_session_graph_visits_linear_nodes(self, monkeypatch):
        domain = build_swiss_labour_registry(seed=5)
        engine = CDAEngine(domain.registry, domain.vocabulary)
        questions = [
            "what is the total employees in zurich",
            "and for bern?",
            "show me the trend and seasonality of the barometer",
            "what datasets do you have about the labour market",
            "employment",
            "how many cantons are there",
            "what is the barometer?",
        ]
        for question in questions * 4:
            engine.ask(question)
        visits: list[int] = []
        monkeypatch.setattr(tracker_module, "ProvenanceGraph", _counting_graph(visits))
        engine.session.tracker.build_graph()
        assert sum(visits) <= len(engine.session.tracker)

    def test_a_walk_runs_when_a_cycle_is_possible(self):
        visits: list[int] = []
        graph = _counting_graph(visits)()
        for name in "abc":
            graph.add_node(ProvenanceNode(name, ProvenanceNodeKind.DATASET, name))
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        with pytest.raises(ProvenanceError):
            graph.add_edge("c", "a")
        assert visits == [2]


links = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from(["replies_to", "clarifies", "follows", "speculates"]),
            ),
            max_size=20,
        ),
    )
)


class TestConversationGraphOracle:
    @settings(max_examples=150, deadline=None)
    @given(links)
    def test_edges_successors_and_round_trip(self, case):
        count, attempts = case
        graph = ConversationGraph()
        for index in range(count):
            graph.add_turn("user", TurnKind.USER_QUESTION, f"q{index}", speculative=index % 3 == 2)
        oracle: dict[tuple[int, int], str] = {}
        for source, target, role in attempts:
            graph.link(source, target, role=role)
            oracle[(source, target)] = role
        expected = sorted(
            ((source, target, role) for (source, target), role in oracle.items()),
            key=lambda edge: edge[0],
        )
        assert graph.edges() == expected
        for turn in range(count):
            successors = [target for source, target in oracle if source == turn]
            assert [node.turn_id for node in graph.replies_to(turn)] == successors
            assert [node.turn_id for node in graph.speculative_children(turn)] == [
                target for target in successors if target % 3 == 2
            ]
        # The digest chains mutations in call order; a rebuild links each
        # edge after its later turn, so arbitrary link orders are compared
        # with a second rebuild (engine sessions match the live digest).
        rebuilt = ConversationGraph.from_dict(graph.to_dict())
        assert rebuilt.to_dict() == graph.to_dict()
        assert ConversationGraph.from_dict(rebuilt.to_dict()).digest() == rebuilt.digest()

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(list(TurnKind)), st.booleans()), max_size=40))
    def test_count_by_kind_matches_a_full_scan(self, turns):
        graph = ConversationGraph()
        for index, (kind, speculative) in enumerate(turns):
            graph.add_turn("user", kind, f"t{index}", speculative=speculative)
        expected = {
            kind: sum(1 for node in graph.turns(include_speculative=True)
                      if node.kind is kind and not node.speculative)
            for kind in TurnKind
        }
        assert graph.count_by_kind() == expected
        assert {kind: graph.count(kind) for kind in TurnKind} == expected
        graph.count_by_kind()[TurnKind.USER_QUESTION] = -1  # a copy
        assert graph.count_by_kind() == expected
        assert ConversationGraph.from_dict(graph.to_dict()).count_by_kind() == expected

    def test_thread_of_follows_the_earliest_parent(self):
        graph = ConversationGraph()
        for index in range(4):
            graph.add_turn("user", TurnKind.USER_QUESTION, f"q{index}")
        graph.link(0, 2, role="replies_to")
        graph.link(1, 3, role="replies_to")
        graph.link(2, 3, role="follows")
        assert [node.turn_id for node in graph.thread_of(3)] == [1, 3]

    def test_thread_of_stops_on_a_cycle(self):
        graph = ConversationGraph()
        for index in range(2):
            graph.add_turn("user", TurnKind.USER_QUESTION, f"q{index}")
        graph.link(0, 1, role="replies_to")
        graph.link(1, 0, role="follows")

        def hang(signum, frame):
            raise TimeoutError("thread_of did not stop on a cycle")

        # An unbounded walk grows its chain forever: cut it off early.
        previous = signal.signal(signal.SIGALRM, hang)
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        try:
            thread = graph.thread_of(1)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert [node.turn_id for node in thread] == [0, 1]

    def test_every_turn_field_and_edge_role_moves_the_digest(self):
        # Two graphs that differ in one field of one turn, or in one
        # edge, never share a digest.
        from dataclasses import fields

        from repro.guidance.conversation_graph import EDGE_ROLES, TurnNode

        base = dict(actor="user", kind=TurnKind.USER_QUESTION, text="q")
        variants = {
            "turn_id": [dict(skip=1)],
            "actor": [dict(actor="system")],
            "kind": [
                dict(kind=kind) for kind in TurnKind if kind is not TurnKind.USER_QUESTION
            ],
            "text": [dict(text="q2")],
            "confidence": [dict(confidence=0.5), dict(confidence=0.25)],
            "speculative": [dict(speculative=True)],
            "metadata": [
                dict(metadata={"a": 1}), dict(metadata={"a": 2}), dict(metadata={"b": 1})
            ],
        }
        assert set(variants) == {field.name for field in fields(TurnNode)}

        def digest(skip=0, edge=None, **changes):
            graph = ConversationGraph()
            graph.add_turn("user", TurnKind.USER_QUESTION, "first")
            for _ in range(skip):
                next(graph._counter)
            graph.add_turn(**{**base, **changes})
            if edge is not None:
                graph.link(*edge)
            return graph.digest()

        turn_variants = [change for options in variants.values() for change in options]
        turn_digests = {digest()} | {digest(**changes) for changes in turn_variants}
        assert len(turn_digests) == 1 + len(turn_variants)
        edges = [(0, 1, role) for role in sorted(EDGE_ROLES)] + [(1, 0, "follows")]
        edge_digests = {digest(edge=edge) for edge in edges}
        assert len(edge_digests) == len(edges)
        assert not edge_digests & turn_digests

    def test_rebuilt_engine_session_matches_the_live_digest(self):
        domain = build_swiss_labour_registry(seed=5)
        engine = CDAEngine(domain.registry, domain.vocabulary)
        kinds = [
            engine.ask(question).kind.value
            for question in (
                "how many employees are there",
                "what datasets do you have about jobs",
                "xyzzy plugh",
                "employment",
                "how many employees are there in zurich",
                "and for bern?",
            )
        ]
        assert kinds == ["data", "discovery", "clarification", "metadata", "data", "data"]
        graph = engine.session.graph
        rebuilt = ConversationGraph.from_dict(graph.to_dict())
        assert rebuilt.to_dict() == graph.to_dict()
        assert rebuilt.digest() == graph.digest()
