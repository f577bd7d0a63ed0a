"""Inputs and oracles shared by several test modules."""

import itertools
from pathlib import Path

from hyparr.arrangement import build
from hyparr.cli import _random_2generic_instances
from hyparr.graphs import make_graph
from hyparr.intlinalg import SparseHermite

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


def random2g(seed, max_size, count):
    """The search's random 2-generic stream as (key, dim, normals) triples.

    The stream's arrangements carry the tables their filter grew, so a test
    that counts work on a fresh table builds its own from these.
    """
    for key, arr in _random_2generic_instances(seed, max_size, count):
        yield key, arr.ambient_dim, arr.normals


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


def forest_rank(graph, s):
    """Rank of the edge set s of a graph: touched vertices minus connected
    components, by union-find on the edges alone."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for i in s:
        u, v = graph.edges[i]
        parent[find(u)] = find(v)
    return len(parent) - len({find(x) for x in parent})


def transpose(m):
    return [list(col) for col in zip(*m)]


# Rank oracles by fresh elimination: they read only the normals, so they stay
# independent of the independent-set table and the lattice they check.  A
# normal lies in the span of a set's normals exactly when inserting it into
# a copy of the set's echelon does not grow the rank.


def echelon(arr, s):
    """A Hermite echelon of the normals of the hyperplanes in s."""
    h = SparseHermite()
    for i in s:
        h.insert(arr.normals[i])
    return h


def closure(arr, s, among):
    """s plus every hyperplane in ``among`` whose normal lies in the span of
    those in s."""
    h = echelon(arr, s)
    spanned = (i for i in among if i not in s and not h.copy().insert(arr.normals[i]))
    return frozenset(s).union(spanned)


def is_modular(arr, x, rank_of):
    """r(x v y) + r(x ^ y) = r(x) + r(y) for every flat y, by the definition.

    ``rank_of`` maps every flat to its rank; x v y has the rank of x + y,
    read by inserting the normals of y - x into a copy of x's echelon.
    Comparable pairs hold trivially and are skipped, and the higher flats
    come first, where a non-modular x tends to fail.
    """
    base = echelon(arr, x)
    for y in reversed(rank_of):
        if y <= x or x <= y:
            continue
        h = base.copy()
        join = base.rank + sum(h.insert(arr.normals[i]) for i in y - x)
        if join + rank_of[x & y] != rank_of[x] + rank_of[y]:
            return False
    return True
