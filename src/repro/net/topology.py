"""Ground-network topologies for the discovery-time experiments.

The paper's testbed: one subject and 20 Pi objects, either all one hop
away (Fig. 6(e)) or split 5-per-hop across 1–4 hops behind bridging
relays (Fig. 6(g)/(h)). Each layout function returns a
:class:`Topology`: an undirected graph whose nodes carry a role in
{"subject", "object", "relay"}.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterator

SUBJECT = "S"


class Topology:
    """A small undirected graph of named nodes, each with a role.

    Adjacency is kept in insertion-ordered dicts, so :meth:`neighbors`
    yields a node's neighbours in the order their edges were added.  The
    simulated broadcast draws each neighbour's loss and fault fate in
    that order, which makes it part of the run's determinism.
    """

    def __init__(self) -> None:
        #: node -> role, in the order the nodes were added.
        self.roles: dict[str, str] = {}
        self._adj: dict[str, dict[str, None]] = {}

    def add_node(self, node: str, role: str) -> None:
        """Add *node* (or re-label an existing one) with *role*."""
        self.roles[node] = role
        self._adj.setdefault(node, {})

    def add_edge(self, a: str, b: str) -> None:
        """Link two nodes that are already in the graph."""
        for node in (a, b):
            if node not in self._adj:
                raise ValueError(f"{node!r} is not in the topology")
        self._adj[a][b] = None
        self._adj[b][a] = None

    def __contains__(self, node: object) -> bool:
        return node in self._adj

    def neighbors(self, node: str) -> Iterator[str]:
        return iter(self._adj[node])

    def degree(self, node: str) -> int:
        return len(self._adj[node])

    def has_edge(self, a: str, b: str) -> bool:
        return b in self._adj.get(a, ())

    def edges(self) -> Iterator[tuple[str, str]]:
        """Each edge once, as ``(earlier node, later neighbour)``."""
        seen: set[str] = set()
        for node, adjacent in self._adj.items():
            seen.add(node)
            for neighbor in adjacent:
                if neighbor not in seen:
                    yield node, neighbor

    def shortest_path(self, src: str, dst: str) -> list[str]:
        """A fewest-hops path from *src* to *dst*, both ends included.

        Breadth-first.  Every layout built here is a tree, or links each
        subject straight to each object, so a subject–object path is the
        only shortest one.
        """
        for node in (src, dst):
            if node not in self._adj:
                raise ValueError(f"{node!r} is not in the topology")
        parent: dict[str, str | None] = {src: None}
        frontier = deque([src])
        while frontier:
            node = frontier.popleft()
            if node == dst:
                path = [dst]
                while (node := parent[node]) is not None:
                    path.append(node)
                return path[::-1]
            for neighbor in self._adj[node]:
                if neighbor not in parent:
                    parent[neighbor] = node
                    frontier.append(neighbor)
        raise ValueError(f"no path from {src!r} to {dst!r}")


def star(object_ids: list[str]) -> Topology:
    """All objects one hop from the subject (the Fig. 6(e) testbed)."""
    graph = Topology()
    graph.add_node(SUBJECT, "subject")
    for object_id in object_ids:
        graph.add_node(object_id, "object")
        graph.add_edge(SUBJECT, object_id)
    return graph


def multihop(groups: list[list[str]]) -> Topology:
    """Objects grouped by hop distance behind a relay chain.

    ``groups[k]`` lists the objects (k+1) hops from the subject: group 0
    attaches directly to the subject, group k>0 attaches to relay k,
    with relays chained S - r1 - r2 - ... (the paper's 4-hop mixture is
    ``multihop([g1, g2, g3, g4])`` with 5 objects per group).
    """
    graph = Topology()
    graph.add_node(SUBJECT, "subject")
    previous = SUBJECT
    for hop, members in enumerate(groups, start=1):
        if hop == 1:
            anchor = SUBJECT
        else:
            relay = f"relay-{hop - 1}"
            if relay not in graph:
                graph.add_node(relay, "relay")
                graph.add_edge(previous, relay)
            anchor = relay
            previous = relay
        for object_id in members:
            graph.add_node(object_id, "object")
            graph.add_edge(anchor, object_id)
    return graph


def paper_multihop(object_ids: list[str], hops: int = 4) -> Topology:
    """Split *object_ids* into equal per-hop groups (Fig. 6(g))."""
    if hops < 1:
        raise ValueError("need at least one hop")
    per_group = len(object_ids) // hops
    if per_group == 0:
        raise ValueError(f"{len(object_ids)} objects cannot fill {hops} hops")
    groups = [object_ids[i * per_group : (i + 1) * per_group] for i in range(hops)]
    # Leftovers join the last hop.
    groups[-1].extend(object_ids[hops * per_group :])
    return multihop(groups)


def hop_distance(graph: Topology, node: str, subject: str = SUBJECT) -> int:
    """Hops from *subject* to *node*; ``ValueError`` if there is no path."""
    return len(graph.shortest_path(subject, node)) - 1


def random_building(
    object_ids: list[str],
    n_relays: int = 3,
    seed: int = 0,
    max_backbone_degree: int = 3,
) -> Topology:
    """A randomized building layout: a relay backbone tree rooted at the
    subject, objects attached to random backbone nodes.

    More irregular than the paper's clean per-hop rings — used by the
    integration tests to check the discovery pipeline is topology-
    agnostic (any connected layout works; hop counts just fall out of
    the generated tree).
    """
    rng = random.Random(seed)
    graph = Topology()
    graph.add_node(SUBJECT, "subject")
    backbone = [SUBJECT]
    for i in range(n_relays):
        relay = f"relay-{i + 1}"
        # attach to a random backbone node with spare degree
        candidates = [
            n for n in backbone
            if graph.degree(n) < max_backbone_degree or n == SUBJECT
        ]
        parent = rng.choice(candidates)
        graph.add_node(relay, "relay")
        graph.add_edge(parent, relay)
        backbone.append(relay)
    for object_id in object_ids:
        graph.add_node(object_id, "object")
        graph.add_edge(rng.choice(backbone), object_id)
    return graph


def shared_floor(subject_ids: list[str], object_ids: list[str]) -> Topology:
    """Several subjects and objects in one collision domain.

    Models a busy office floor: every subject hears every object (and
    every other subject's traffic contends for the same medium). Used by
    the concurrent-discovery extension experiment.
    """
    graph = Topology()
    for subject_id in subject_ids:
        graph.add_node(subject_id, "subject")
    for object_id in object_ids:
        graph.add_node(object_id, "object")
        for subject_id in subject_ids:
            graph.add_edge(subject_id, object_id)
    return graph
