"""Finite simple graphs: canonical forms, chromatic polynomials, chordality.

A graph here is an immutable vertex count plus a sorted tuple of edges
(u, v) with u < v.  The canonical form of a graph is its minimal adjacency
bit-string over all vertex permutations, an exact value that keys the
graphic search output.  It is found level by level over int bitmasks:
only the prefixes that tie for the minimal string so far are extended,
each only by the vertices that give the minimal next segment, and twin
vertices are expanded once.  The form is the deduplication key for
isomorphism classes and the memoization key for deletion-contraction.

The same search yields generators of the automorphism group: the maps
between its tied vertex orders plus the swaps of twins.  The connected
graph enumeration uses them to canonicalize one attachment mask per
automorphism orbit of the parent instead of every mask (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        seen = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise InputError(f"loop at vertex {u}")
            if not (0 <= u < v < self.vertex_count):
                raise InputError(f"edge {e} out of range or unordered")
            if e in seen:
                raise InputError(f"multi-edge {e}")
            seen.add(e)


def make_graph(vertex_count: int, edges) -> Graph:
    """Orient edge pairs as (min, max) and sort them; ``Graph`` checks them."""
    return Graph(vertex_count, tuple(sorted((u, v) if u < v else (v, u) for u, v in edges)))


def canonical_form(g: Graph) -> int:
    """Minimal adjacency bit-string over all vertex permutations.

    The bit-string of a vertex order lists the pairs (0,1),(0,2),(1,2),
    (0,3),... and is returned packed as an integer with the pair (0,1) in
    the most significant position, so numeric order equals lexicographic
    order on the bit-strings.
    """
    return _lexmin_search(g)[0]


def _lexmin_search(g: Graph) -> tuple[int, list[tuple[tuple[int, ...], int]], list[int]]:
    """The canonical form, the tied leaves of its search and the twin classes.

    Placing the vertex at position j appends a segment of exactly j bits,
    its adjacency to the vertices at positions 0..j-1, so the minimal
    string is the minimal first segment, then the minimal second segment
    among the orders that reach it, and so on.  The search keeps every
    prefix that ties for the minimum and, per level, only the children
    whose segment is minimal: starting from the unplaced vertices, each
    placed vertex in turn keeps the candidates not adjacent to it when
    there are any (segment bit 0) and all of them otherwise (bit 1).
    Among unplaced twins (N(u) minus v equal to N(v) minus u) only the
    lowest is expanded, because swapping twins is an automorphism fixing
    every other vertex; this keeps empty, complete and multipartite
    graphs from branching factorially.

    A leaf is a full order that spells the minimal string, given as its
    tuple of placed masks.  Twin classes are returned as vertex masks
    with at least two members.
    """
    n = g.vertex_count
    nbrs = [0] * n
    for u, v in g.edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    # twinhood is an equivalence relation; key each class by its lowest vertex
    classes: dict[int, int] = {}
    for v in range(n):
        for u in range(v + 1):
            if nbrs[u] & ~(1 << v) == nbrs[v] & ~(1 << u):
                classes[u] = classes.get(u, 0) | 1 << v
                break
    twin_classes = [c for c in classes.values() if c & (c - 1)]
    # the non-neighbours of v, with bit n + v cleared to tag the vertex;
    # candidates never reach that high, so the tag changes no intersection
    non_nbrs = [~(m | 1 << (n + v)) for v, m in enumerate(nbrs)]
    form = 0
    # a prefix: the non-neighbour masks of its placed vertices, in order,
    # and the mask of the vertices not yet placed
    frontier: list[tuple[tuple[int, ...], int]] = [((), (1 << n) - 1)]
    for j in range(n):
        best = -1
        keep = []
        for placed, unplaced in frontier:
            cand = unplaced
            for c in twin_classes:
                m = c & unplaced
                cand &= ~(m & (m - 1))
            seg = 0
            for non in placed:
                t = cand & non
                if t:
                    cand = t
                    seg <<= 1
                else:
                    seg = seg << 1 | 1
            if best < 0 or seg < best:
                best = seg
                keep = [(placed, unplaced, cand)]
            elif seg == best:
                keep.append((placed, unplaced, cand))
        form = form << j | best
        frontier = []
        for placed, unplaced, cand in keep:
            while cand:
                low = cand & -cand
                cand ^= low
                frontier.append((placed + (non_nbrs[low.bit_length() - 1],), unplaced ^ low))
    return form, frontier, twin_classes


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Generators of Aut(g), each a tuple sending vertex v to image[v].

    Every leaf order of the canonical-form search spells the minimal
    string, so mapping the first leaf order onto any other, position by
    position, preserves adjacency.  The minimal orders are the images of
    the first leaf order under the whole group, and the leaves are those
    that place each twin class in ascending order, which any minimal
    order reaches by twin swaps.  So the leaf maps together with the
    swaps of consecutive members of each twin class generate the group.
    """
    n = g.vertex_count
    _, leaves, twin_classes = _lexmin_search(g)
    # each placed mask names its vertex v by the tag bit n + v
    orders = [[(~non >> n).bit_length() - 1 for non in placed] for placed, _ in leaves]
    first = orders[0]
    gens = []
    for order in orders[1:]:
        image = [0] * n
        for u, v in zip(first, order):
            image[u] = v
        gens.append(tuple(image))
    for c in twin_classes:
        members = [v for v in range(n) if c >> v & 1]
        for u, v in zip(members, members[1:]):
            image = list(range(n))
            image[u], image[v] = v, u
            gens.append(tuple(image))
    return gens


def is_chordal(g: Graph) -> bool:
    """Simplicial-vertex elimination; succeeds exactly on chordal graphs."""
    nbrs = {v: set() for v in range(g.vertex_count)}
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    remaining = set(range(g.vertex_count))
    while remaining:
        simplicial = None
        for v in remaining:
            nv = nbrs[v]
            if all(b in nbrs[a] for a in nv for b in nv if a < b):
                simplicial = v
                break
        if simplicial is None:
            return False
        for w in nbrs[simplicial]:
            nbrs[w].discard(simplicial)
        del nbrs[simplicial]
        remaining.discard(simplicial)
    return True


_chromatic_cache: dict[tuple[int, int], tuple[int, ...]] = {}


def chromatic_polynomial(g: Graph) -> list[int]:
    """Coefficients of the chromatic polynomial, index = power of k.

    Deletion-contraction, memoized on (vertex count, canonical form) for
    graphs small enough to canonicalize quickly.
    """
    n = g.vertex_count
    if not g.edges:
        return [0] * n + [1]
    key = None
    if n <= 8:
        key = (n, canonical_form(g))
        hit = _chromatic_cache.get(key)
        if hit is not None:
            return list(hit)
    u, v = g.edges[0]
    deleted = Graph(n, g.edges[1:])
    # contract v into u: relabel w > v down by one
    cedges = set()
    for a, b in g.edges[1:]:
        a2 = u if a == v else (a - 1 if a > v else a)
        b2 = u if b == v else (b - 1 if b > v else b)
        if a2 != b2:
            cedges.add((a2, b2) if a2 < b2 else (b2, a2))
    contracted = Graph(n - 1, tuple(sorted(cedges)))
    pd = chromatic_polynomial(deleted)
    pc = chromatic_polynomial(contracted)
    out = [a - b for a, b in zip(pd, pc + [0] * (len(pd) - len(pc)))]
    if key is not None:
        _chromatic_cache[key] = tuple(out)
    return out


def connected_graph_reps(max_vertices: int) -> list[Graph]:
    """One representative per isomorphism class of connected simple graphs.

    Built incrementally: every connected graph on n vertices arises from a
    connected graph on n-1 vertices by attaching one new vertex to a
    nonempty neighbor set (delete any non-cut vertex to see this).  Masks
    in one orbit of the parent's automorphism group give isomorphic
    children, so only the smallest mask of each orbit is canonicalized.
    The representative of a class is its first candidate, parents in
    order and masks ascending, and that candidate is always the smallest
    mask of its orbit, so skipping the rest of the orbit changes no
    representative.  Deterministic order: by vertex count, then canonical
    form.
    """
    return [g for _, g in _keyed_connected_graph_reps(max_vertices)]


def _keyed_connected_graph_reps(max_vertices: int) -> list[tuple[int, Graph]]:
    """``connected_graph_reps`` with each graph's canonical form beside it."""
    if max_vertices < 1:
        return []
    levels: list[list[tuple[int, Graph]]] = [[(0, Graph(1, ()))]]
    for n in range(2, max_vertices + 1):
        seen: dict[int, Graph] = {}
        for _, g in levels[-1]:
            tables = [_mask_images(image) for image in automorphism_generators(g)]
            marked = [False] * (1 << (n - 1))
            for mask in range(1, 1 << (n - 1)):
                if marked[mask]:
                    continue
                # mask is the smallest of its orbit: mark the rest
                marked[mask] = True
                stack = [mask]
                while stack:
                    m = stack.pop()
                    for table in tables:
                        image = table[m]
                        if not marked[image]:
                            marked[image] = True
                            stack.append(image)
                edges = list(g.edges)
                for w in range(n - 1):
                    if mask >> w & 1:
                        edges.append((w, n - 1))
                cand = Graph(n, tuple(sorted(edges)))
                key = canonical_form(cand)
                if key not in seen:
                    seen[key] = cand
        levels.append(sorted(seen.items()))
    return [item for level in levels for item in level]


def _mask_images(image: tuple[int, ...]) -> list[int]:
    """The image of every vertex mask under the vertex map ``image``."""
    table = [0] * (1 << len(image))
    for m in range(1, len(table)):
        low = m & -m
        table[m] = table[m ^ low] | 1 << image[low.bit_length() - 1]
    return table
