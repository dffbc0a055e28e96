"""Max-flow/min-cut minimization of submodular quadratics.

The capacity form of a submodular quadratic is literally an s-t network:
its one arc map, with node 0 the source and node n + 1 the sink.  A
labeling corresponds to the cut whose source side is the source and
{i : x_i = 1}, and the cut capacity equals the cost minus the constant,
so the minimum labeling is read off a maximum flow.

The flow is exact: ``build_network`` wraps the capacity form's integer
arcs, at the form's own scale and without a copy, and Dinic's algorithm
(BFS level graph, blocking flow by an iterative DFS) runs on those plain
ints.  Before a result is returned an O(E) certificate is checked on the
ints -- every arc within its capacity, flow conserved at every internal
node, and the sink's inflow and the source-side cut capacity both equal
to the flow value -- so a wrong cut raises ``InvariantError`` instead of
reaching the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .pbf import CapacityForm, QuadraticPoly, _require, to_capacity_form


@dataclass(frozen=True)
class FlowNetwork:
    """Integer s-t network: source 0, sink n_internal + 1, and each arc's
    capacity ``arcs[u, v] / scale``.  Only ``build_network`` makes one,
    around a capacity form's own arc map."""

    n_internal: int
    arcs: dict[tuple[int, int], int]
    scale: int

    @property
    def sink(self) -> int:
        return self.n_internal + 1


@dataclass(frozen=True)
class CutResult:
    flow_value: Fraction
    labeling: int


def build_network(c: CapacityForm) -> FlowNetwork:
    """Network whose min cut, plus c_empty and over the scale, is the
    minimum of the quadratic: the capacity form's own arc map and scale,
    which ``CapacityForm`` has already checked."""
    return FlowNetwork(c.n_nodes, c.arcs, c.scale)


def max_flow(net: FlowNetwork) -> CutResult:
    """Maximum flow value and the minimal minimum cut, exactly.

    Dinic's algorithm runs on the network's integer capacities; the value
    returned is the integer flow divided by the network's scale.  Each arc
    is an even edge in paired forward/reverse arrays (edge e's partner is
    e ^ 1), and each phase builds a BFS level graph and saturates it by an
    iterative DFS, so deep grids never meet the recursion limit.

    The cut is the set reachable from the source in the final residual
    graph.  For any maximum flow that set is the intersection of all
    minimum cuts, so it does not depend on the order of augmentations; its
    internal nodes are reported as the 1-labeling, which is therefore the
    minimizer with the fewest ones.  The result is checked by
    ``_check_certificate`` before it is returned.
    """
    n = net.sink + 1
    s, t = 0, net.sink
    head: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for (u, v), c in net.arcs.items():
        adj[u].append(len(head))
        head.append(v)
        cap.append(c)
        adj[v].append(len(head))
        head.append(u)
        cap.append(0)
    full = cap[:]
    total = 0
    while True:
        level = _levels(s, n, adj, head, cap)
        if level[t] < 0:
            break
        total += _blocking_flow(s, t, level, adj, head, cap)
    reach = level  # nodes the last BFS reached: the source side
    _check_certificate(s, t, reach, head, full, cap, total)
    labeling = 0
    for v in range(1, t):
        if reach[v] >= 0:
            labeling |= 1 << (v - 1)
    return CutResult(Fraction(total, net.scale), labeling)


def _levels(s: int, n: int, adj, head, cap) -> list[int]:
    """BFS distance from s over residual edges; -1 where unreachable."""
    level = [-1] * n
    level[s] = 0
    queue = [s]
    for u in queue:
        nxt = level[u] + 1
        for e in adj[u]:
            v = head[e]
            if cap[e] and level[v] < 0:
                level[v] = nxt
                queue.append(v)
    return level


def _blocking_flow(s: int, t: int, level, adj, head, cap) -> int:
    """Saturate every s-t path of the level graph; returns the flow pushed.

    ``it[u]`` is the next edge of u to try.  An exhausted node is cut out
    of the level graph and the search retreats one edge; after an
    augmentation it resumes at the tail of the first saturated edge.
    """
    it = [0] * len(adj)
    pushed = 0
    path: list[int] = []
    u = s
    while True:
        if u == t:
            f = min(cap[e] for e in path)
            for e in path:
                cap[e] -= f
                cap[e ^ 1] += f
            pushed += f
            k = next(k for k, e in enumerate(path) if not cap[e])
            u = head[path[k] ^ 1]
            del path[k:]
            continue
        edges = adj[u]
        i = it[u]
        want = level[u] + 1
        while i < len(edges):
            e = edges[i]
            if cap[e] and level[head[e]] == want:
                break
            i += 1
        it[u] = i
        if i < len(edges):
            path.append(edges[i])
            u = head[edges[i]]
        elif u == s:
            return pushed
        else:
            level[u] = -1
            u = head[path.pop() ^ 1]
            it[u] += 1


def _check_certificate(s: int, t: int, reach, head, full, cap, total: int) -> None:
    """Exact optimality certificate over the integer edge arrays.

    A flow within capacities and conserved at internal nodes, whose value
    equals the capacity of a cut, is a maximum flow and that cut a minimum
    one (weak duality); a failure here means the flow code is wrong.
    """
    excess = [0] * len(reach)
    cut = 0
    for e in range(0, len(head), 2):
        flow = full[e] - cap[e]
        _require(
            0 <= flow <= full[e] and cap[e ^ 1] == flow,
            "max-flow puts an arc outside [0, capacity]",
        )
        v, u = head[e], head[e ^ 1]
        excess[u] -= flow
        excess[v] += flow
        if reach[u] >= 0 and reach[v] < 0:
            cut += full[e]
    _require(reach[s] >= 0 and reach[t] < 0, "max-flow cut does not separate s and t")
    _require(
        all(excess[v] == 0 for v in range(len(excess)) if v not in (s, t)),
        "max-flow breaks conservation",
    )
    _require(excess[t] == total == -excess[s], "max-flow value differs from the sink inflow")
    _require(cut == total, "max-flow value differs from the cut capacity")


def minimize_quadratic(h: QuadraticPoly) -> tuple[Fraction, int]:
    """Exact global minimum of a submodular quadratic over all variables.

    Returns the value and one argmin mask over the joint x and z blocks;
    among minimizers the labeling with the fewest 1s is produced, which in
    particular parks tied auxiliary variables at 0.
    """
    cf = to_capacity_form(h)
    result = max_flow(build_network(cf))
    return Fraction(cf.c_empty, cf.scale) + result.flow_value, result.labeling
