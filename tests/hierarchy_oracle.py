"""The control-hierarchy helpers that ``phasekit.analysis.hierarchy_ranks``
and ``phasekit.export.to_dot`` ran before both learned to read ranks and
cycles off one depth-first walk, kept verbatim as an oracle.

They walk the in-scope control-action graph three times: a depth-first walk
for the edges that close a cycle (``_back_edges``), Kahn's breadth-first pass
for ranks over the other edges (``_longest_path_ranks``) and Kosaraju's two
passes for the cycles (``_strongly_connected_components``). For a scope of
unique node ids, ``oracle_hierarchy_ranks`` and ``oracle_scope_ranks`` give
the ranks, in value and key order, and the hints the current code must
return. (With a node id declared twice Kahn's pass queues it twice and
misranks the nodes below it, so the two are compared on unique ids only.)
"""

from __future__ import annotations

from collections import deque

from phasekit.analysis import Hint, HintCode
from phasekit.model import Edge, EdgeKind, Model, Node, Ref, elements_in_boundary


def _control_subgraph(
    model: Model, node_ids: list[str]
) -> tuple[dict[str, list[tuple[int, str]]], list[Edge]]:
    """Adjacency over control-action edges with both endpoints in scope.

    Self-loops are excluded from ranking; they are reported elsewhere.
    """
    in_scope = set(node_ids)
    edges = [
        e
        for e in model.edges
        if e.kind == EdgeKind.CONTROL_ACTION
        and e.source in in_scope
        and e.target in in_scope
        and e.source != e.target
    ]
    adjacency: dict[str, list[tuple[int, str]]] = {nid: [] for nid in node_ids}
    for index, edge in enumerate(edges):
        adjacency[edge.source].append((index, edge.target))
    return adjacency, edges


def _back_edges(node_ids: list[str], adjacency: dict[str, list[tuple[int, str]]]) -> set[int]:
    """Edges that close a cycle under a depth-first walk in declaration order."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {nid: WHITE for nid in node_ids}
    back: set[int] = set()
    for root in node_ids:
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        stack: list[tuple[str, "object"]] = [(root, iter(adjacency[root]))]
        while stack:
            node, edge_iter = stack[-1]
            descended = False
            for edge_index, target in edge_iter:
                if color[target] == GRAY:
                    back.add(edge_index)
                elif color[target] == WHITE:
                    color[target] = GRAY
                    stack.append((target, iter(adjacency[target])))
                    descended = True
                    break
            if not descended:
                color[node] = BLACK
                stack.pop()
    return back


def _longest_path_ranks(
    node_ids: list[str], forward: list[tuple[str, str]]
) -> dict[str, int]:
    """Least rank assignment with rank(target) >= rank(source) + 1 per edge."""
    indegree = {nid: 0 for nid in node_ids}
    out: dict[str, list[str]] = {nid: [] for nid in node_ids}
    for source, target in forward:
        out[source].append(target)
        indegree[target] += 1
    ranks = {nid: 0 for nid in node_ids}
    queue = deque(nid for nid in node_ids if indegree[nid] == 0)
    while queue:
        node = queue.popleft()
        for target in out[node]:
            ranks[target] = max(ranks[target], ranks[node] + 1)
            indegree[target] -= 1
            if indegree[target] == 0:
                queue.append(target)
    return ranks


def _strongly_connected_components(
    node_ids: list[str], adjacency: dict[str, list[tuple[int, str]]]
) -> list[list[str]]:
    """Kosaraju's algorithm; component members sorted by id."""
    order: list[str] = []
    seen: set[str] = set()
    for root in node_ids:
        if root in seen:
            continue
        seen.add(root)
        stack: list[tuple[str, "object"]] = [(root, iter(adjacency[root]))]
        while stack:
            node, edge_iter = stack[-1]
            descended = False
            for _, target in edge_iter:
                if target not in seen:
                    seen.add(target)
                    stack.append((target, iter(adjacency[target])))
                    descended = True
                    break
            if not descended:
                order.append(node)
                stack.pop()

    reverse: dict[str, list[str]] = {nid: [] for nid in node_ids}
    for source, targets in adjacency.items():
        for _, target in targets:
            reverse[target].append(source)

    components: list[list[str]] = []
    assigned: set[str] = set()
    for root in reversed(order):
        if root in assigned:
            continue
        members = [root]
        assigned.add(root)
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for source in reverse[node]:
                if source not in assigned:
                    assigned.add(source)
                    members.append(source)
                    frontier.append(source)
        components.append(sorted(members))
    return components


def oracle_scope_ranks(model: Model, nodes: list[Node]) -> dict[str, int]:
    """Hierarchy ranks over an explicit node scope (the whole model, say)."""
    node_ids = [n.id for n in nodes]
    adjacency, edges = _control_subgraph(model, node_ids)
    back = _back_edges(node_ids, adjacency)
    forward = [
        (edge.source, edge.target)
        for index, edge in enumerate(edges)
        if index not in back
    ]
    return _longest_path_ranks(node_ids, forward)


def oracle_hierarchy_ranks(
    model: Model, boundary_id: str
) -> tuple[dict[str, int], list[Hint]]:
    """``hierarchy_ranks`` over the helpers above."""
    nodes, _ = elements_in_boundary(model, boundary_id)
    node_ids = [n.id for n in nodes]
    adjacency, _ = _control_subgraph(model, node_ids)
    hints = [
        Hint(
            HintCode.HIERARCHY_CYCLE,
            tuple(Ref("node", nid) for nid in component),
            "control actions form a cycle among nodes "
            + ", ".join(f"'{nid}'" for nid in component),
        )
        for component in _strongly_connected_components(node_ids, adjacency)
        if len(component) >= 2
    ]
    hints.sort(key=lambda h: (h.code.value, tuple(ref.id for ref in h.subjects)))
    return oracle_scope_ranks(model, list(nodes)), hints
