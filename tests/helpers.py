"""Inputs shared by several test modules."""

import itertools
from pathlib import Path

from hyparr.arrangement import build
from hyparr.graphs import make_graph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

THETA = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])


def boolean(n):
    return build(n, [[1 if j == i else 0 for j in range(n)] for i in range(n)])


def coxeter_b(d):
    normals = [[int(k == i) for k in range(d)] for i in range(d)]
    for i, j in itertools.combinations(range(d), 2):
        for s in (1, -1):
            normals.append([1 if k == i else s if k == j else 0 for k in range(d)])
    return build(d, normals)


def is_connected(g):
    """Depth-first search from vertex 0 reaches every vertex."""
    nbrs = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {0} if g.vertex_count else set()
    stack = list(seen)
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.vertex_count
