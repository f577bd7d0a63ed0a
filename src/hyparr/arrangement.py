"""Central hyperplane arrangements and their matroid data.

An arrangement is an ordered list of nonzero integer normal vectors, no two
proportional, in a fixed ambient dimension; it is the single source of
truth for ranks, circuits, flats and everything built on top.  Graphic
arrangements remember their source graph, which routes subset-rank queries
through a union-find shortcut (cross-checked against the generic
elimination in the test suite).
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import InputError
from .graphs import Graph
from .intlinalg import int_rank


class Arrangement:
    """Immutable after construction; all queries are pure and cached."""

    def __init__(
        self,
        ambient_dim: int,
        normals: Sequence[Sequence[int]],
        labels: Optional[Sequence[str]] = None,
        source_graph: Optional[Graph] = None,
    ):
        if ambient_dim < 1:
            raise InputError(f"ambient dimension must be positive, got {ambient_dim}")
        norm = []
        for idx, v in enumerate(normals):
            vec = tuple(int(x) for x in v)
            if len(vec) != ambient_dim:
                raise InputError.about_hyperplanes(
                    f": normal has {len(vec)} coordinates, expected {ambient_dim}", idx
                )
            if not any(vec):
                raise InputError.about_hyperplanes(": zero normal vector", idx)
            norm.append(vec)
        for i, j in itertools.combinations(range(len(norm)), 2):
            if _proportional(norm[i], norm[j]):
                raise InputError.about_hyperplanes(
                    f" are proportional: {norm[i]} ~ {norm[j]}", i, j
                )
        self.ambient_dim = ambient_dim
        self.normals = tuple(norm)
        if labels is None:
            labels = [f"H{i}" for i in range(len(norm))]
        if len(labels) != len(norm):
            raise InputError("label count does not match hyperplane count")
        self.labels = tuple(str(s) for s in labels)
        self.source_graph = source_graph
        self._rank_cache: dict[frozenset[int], int] = {}
        self._circuits: list[tuple[int, ...]] = []
        self._circuit_masks: list[int] = []
        self._circuits_upto = -1
        self._lattice = None
        self._pair_closures: list[list[int]] | None = None
        self.cache: dict = {}  # scratch space for higher layers (os data etc.)

    @property
    def n(self) -> int:
        return len(self.normals)

    def __repr__(self) -> str:
        src = " graphic" if self.source_graph else ""
        return f"Arrangement(dim={self.ambient_dim}, n={self.n}{src})"

    # ----------------------------------------------------------- ranks

    def subset_rank(self, indices: Iterable[int]) -> int:
        """Rank over Q of the chosen normals (exact fraction-free elimination)."""
        s = frozenset(indices)
        for i in s:
            if not 0 <= i < self.n:
                raise InputError(f"hyperplane index {i} out of range")
        return int_rank([self.normals[i] for i in s])

    def rank(self) -> int:
        return self._rank(frozenset(range(self.n)))

    def _rank(self, s: frozenset[int]) -> int:
        hit = self._rank_cache.get(s)
        if hit is not None:
            return hit
        if self.source_graph is not None:
            r = self._graphic_rank(s)
        else:
            r = int_rank([self.normals[i] for i in s])
        self._rank_cache[s] = r
        return r

    def _graphic_rank(self, s: frozenset[int]) -> int:
        # rank of an edge set = touched vertices - components (union-find)
        parent: dict[int, int] = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        edges = self.source_graph.edges
        comps = 0
        verts = 0
        for i in s:
            u, v = edges[i]
            for w in (u, v):
                if w not in parent:
                    parent[w] = w
                    verts += 1
                    comps += 1
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                comps -= 1
        return verts - comps

    def is_dependent(self, s: Iterable[int]) -> bool:
        s = frozenset(s)
        return self._rank(s) < len(s)

    # --------------------------------------------------------- circuits

    def circuits(self, max_size: int | None = None) -> list[tuple[int, ...]]:
        """All circuits of size <= max_size, lexicographically sorted.

        A circuit has size at most rank+1, so the enumeration never looks
        past that.  Minimality comes for free from the ascending sweep: a
        dependent set containing no smaller circuit is itself a circuit.
        """
        if max_size is None:
            max_size = self.n
        if max_size > self.n:
            raise InputError(f"max_size {max_size} exceeds {self.n} hyperplanes")
        cap = min(max_size, self.rank() + 1)
        found = self._circuits
        masks = self._circuit_masks
        # sizes up to _circuits_upto are complete; extend from there
        for size in range(max(3, self._circuits_upto + 1), cap + 1):
            for combo in itertools.combinations(range(self.n), size):
                m = _mask(combo)
                if any(cm & m == cm for cm in masks):
                    continue
                if self.is_dependent(combo):
                    found.append(combo)
                    masks.append(m)
        self._circuits_upto = max(self._circuits_upto, cap)
        return [c for c in found if len(c) <= max_size]

    def has_chord(self, circuit: Sequence[int]) -> bool:
        """True when some c outside splits the set into two dependent halves."""
        cset = list(circuit)
        others = [c for c in range(self.n) if c not in circuit]
        k = len(cset)
        for c in others:
            # partitions with cset[0] pinned to the first part
            for bits in range(1 << (k - 1)):
                part1 = [cset[0]] + [cset[i + 1] for i in range(k - 1) if bits >> i & 1]
                if len(part1) == k:
                    continue
                part2 = [x for x in cset if x not in part1]
                if self.is_dependent(part1 + [c]) and self.is_dependent(part2 + [c]):
                    return True
        return False

    def chordless_circuits(self, size: int) -> list[tuple[int, ...]]:
        if size < 3:
            raise InputError(f"circuits have size >= 3, got {size}")
        return [c for c in self.circuits(min(size, self.n)) if len(c) == size and not self.has_chord(c)]

    # ------------------------------------------------- genericity data

    def smallest_dependent_size(self) -> int | None:
        """c(A): size of the smallest dependent subset; None when independent."""
        if self.rank() == self.n:
            return None
        # a dependent set contains a circuit, and circuits() extends its
        # cache one size at a time, so the first size with a circuit is c
        for size in range(3, self.n + 1):
            found = self.circuits(size)
            if found:
                return len(found[0])
        return None

    def c_and_genericity(self) -> tuple[int | None, bool | None]:
        """(c, two_generic); (None, None) for an independent arrangement."""
        c = self.smallest_dependent_size()
        if c is None:
            return None, None
        return c, c > 3

    # ------------------------------------------------------------ flats

    def pair_closures(self) -> list[list[int]]:
        """The collinearity table: ``line[a][b]`` is the int mask of cl{a, b}.

        For a != b that is the rank-2 flat through a and b; ``line[a][a]`` is
        the single bit of a.  Shared by every caller, so never mutate it.
        """
        if self._pair_closures is None:
            n = self.n
            line = [[1 << i if i == j else 0 for j in range(n)] for i in range(n)]
            for i, j in itertools.combinations(range(n), 2):
                m = 1 << i | 1 << j
                for h in range(n):
                    if h != i and h != j and self._rank(frozenset((i, j, h))) == 2:
                        m |= 1 << h
                line[i][j] = line[j][i] = m
            self._pair_closures = line
        return self._pair_closures

    def intersection_lattice(self) -> "IntersectionLattice":
        if self._lattice is None:
            self._lattice = IntersectionLattice(self)
        return self._lattice

    def betti_mobius(self) -> list[int]:
        """Whitney numbers b_0..b_r: sums of |mu| over flats of each rank."""
        lat = self.intersection_lattice()
        out = [0] * (self.rank() + 1)
        for flat in lat.flats:
            out[lat.rank_of[flat]] += abs(lat.mobius[flat])
        return out


def _proportional(a: Sequence[int], b: Sequence[int]) -> bool:
    k = next(i for i, x in enumerate(a) if x)
    if not b[k]:
        return False
    return all(a[k] * y == b[k] * x for x, y in zip(a, b))


def from_graph(g: Graph) -> Arrangement:
    """Graphic arrangement: edge {i, j}, i < j, gives the normal e_i - e_j."""
    normals = []
    labels = []
    for u, v in g.edges:
        vec = [0] * g.vertex_count
        vec[u] = 1
        vec[v] = -1
        normals.append(vec)
        labels.append(f"{u + 1}-{v + 1}")
    return Arrangement(g.vertex_count, normals, labels, source_graph=g)


def build(
    ambient_dim: int,
    normals: Sequence[Sequence[int]],
    labels: Optional[Sequence[str]] = None,
) -> Arrangement:
    return Arrangement(ambient_dim, normals, labels)


class IntersectionLattice:
    """All flats of the arrangement with ranks, Mobius values and joins.

    Flats are frozensets of hyperplane indices; the order relation is
    containment.  Built level by level: the covers of a flat F are the
    closures cl(F + h), computed once each by skipping every h that lies in
    a cover already found for F.

    Supersolvability (a maximal chain of modular flats) is decided by the
    modular-coatom criterion instead of by the definition: a coatom Y of a
    geometric lattice [0, X] is modular exactly when, for every two atoms
    a, b in X but not in Y, the line a v b meets Y (Bjorner-Edelman-Ziegler,
    "Hyperplane arrangements with a lattice of regions", 1990).  A modular
    element of [0, X] with X modular is modular in the whole lattice
    (Stanley, "Modular elements of geometric lattices", 1971), so a chain
    exists iff some modular coatom has one below it.  ``is_modular`` keeps
    the definition (rank additivity against every flat) as a test oracle.
    """

    def __init__(self, arr: Arrangement):
        self.arr = arr
        n = arr.n
        levels: list[set[frozenset[int]]] = [{self.closure(frozenset())}]
        while True:
            nxt: set[frozenset[int]] = set()
            for flat in levels[-1]:
                # cl(F + h') is the same cover G for every h' in G - F
                covered = set(flat)
                for h in range(n):
                    if h not in covered:
                        cover = self.closure(flat | {h})
                        nxt.add(cover)
                        covered |= cover
            if not nxt:
                break
            levels.append(nxt)
        self.flats: list[frozenset[int]] = []
        self.rank_of: dict[frozenset[int], int] = {}
        for r, level in enumerate(levels):
            for flat in sorted(level, key=sorted):
                self.flats.append(flat)
                self.rank_of[flat] = r
        self._join_cache: dict[tuple[frozenset, frozenset], frozenset] = {}

    def closure(self, s: frozenset[int]) -> frozenset[int]:
        arr = self.arr
        r = arr._rank(s)
        out = set(s)
        for h in range(arr.n):
            if h not in out and arr._rank(s | {h}) == r:
                out.add(h)
        return frozenset(out)

    @cached_property
    def mobius(self) -> dict[frozenset[int], int]:
        mob: dict[frozenset[int], int] = {}
        for flat in self.flats:  # rank-ascending order
            below = sum(mob[g] for g in mob if g < flat)
            mob[flat] = 1 if self.rank_of[flat] == 0 else -below
        return mob

    def join(self, x: frozenset[int], y: frozenset[int]) -> frozenset[int]:
        key = (x, y) if sorted(x) <= sorted(y) else (y, x)
        hit = self._join_cache.get(key)
        if hit is None:
            hit = self.closure(x | y)
            self._join_cache[key] = hit
        return hit

    def is_modular(self, x: frozenset[int]) -> bool:
        rx = self.rank_of[x]
        for y in self.flats:
            ry = self.rank_of[y]
            if self.rank_of[self.join(x, y)] + self.rank_of[x & y] != rx + ry:
                return False
        return True

    def has_modular_chain(self) -> bool:
        """Maximal chain of modular flats, one per rank: the supersolvable test.

        Searches down from the top flat through modular coatoms, with flats
        and rank-2 closures as int bitmasks; a flat whose interval has no
        chain is recorded and never searched again.
        """
        n = self.arr.n
        line = self.arr.pair_closures()
        by_rank: list[list[int]] = [[] for _ in range(self.rank_of[self.flats[-1]] + 1)]
        for flat in self.flats:
            by_rank[self.rank_of[flat]].append(_mask(flat))
        dead: set[int] = set()

        def modular_coatom(y: int, x: int) -> bool:
            rest = [h for h in range(n) if (x & ~y) >> h & 1]
            return all(
                line[a][b] & y for i, a in enumerate(rest) for b in rest[i + 1 :]
            )

        def chain_below(x: int, r: int) -> bool:
            if r == 0:
                return True
            if x in dead:
                return False
            for y in by_rank[r - 1]:
                if y & ~x == 0 and modular_coatom(y, x) and chain_below(y, r - 1):
                    return True
            dead.add(x)
            return False

        return chain_below(by_rank[-1][0], len(by_rank) - 1)


def _mask(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m
