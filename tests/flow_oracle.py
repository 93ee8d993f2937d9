"""Brute-force routing reference used to cross-check the production path.

Deliberately naive: a plain BFS per source, parents picked by scanning the
sorted neighbor list for the lowest id one hop closer, and every O-D pair's
path walked edge by edge.  Reads only g.n and g.edges, so it shares no code
with netelast.routing or the graph's own neighbor structure.
"""

from collections import deque


def _neighbors(g):
    """Ascending neighbor lists built from the edge list alone."""
    nbrs = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return [sorted(vs) for vs in nbrs]


def brute_force_flows(g):
    """Return (link_load dict keyed by canonical edge, delivered, max_load)."""
    loads = {e: 0 for e in g.edges}
    nbrs = _neighbors(g)
    delivered = 0
    for s in range(g.n):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in nbrs[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        parent = {}
        for v in dist:
            if v == s:
                continue
            for u in nbrs[v]:
                if dist.get(u) == dist[v] - 1:
                    parent[v] = u
                    break
        for t in dist:
            if t == s:
                continue
            delivered += 1
            v = t
            while v != s:
                u = parent[v]
                key = (u, v) if u < v else (v, u)
                loads[key] += 1
                v = u
    max_load = max(loads.values()) if loads else 0
    return loads, delivered, max_load


def total_path_length(g):
    """Sum of shortest-path distances over all deliverable ordered pairs."""
    nbrs = _neighbors(g)
    total = 0
    for s in range(g.n):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in nbrs[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        total += sum(dist.values())
    return total
