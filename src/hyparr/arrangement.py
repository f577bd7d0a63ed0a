"""Central hyperplane arrangements and their matroid data.

An arrangement is an ordered list of nonzero integer normal vectors, no two
proportional, in a fixed ambient dimension; it is the single source of
truth for ranks, circuits, flats and everything built on top.

The matroid data comes from one exact step, ``_reduce``: an integer vector
reduced by one more echelon row, fraction-free, kept primitive and
sign-normalized.  The residuals of the hyperplanes after an independent
set say which of them extend it; that fills a table of the independent
sets by size.  Two facts keep the table's frontier small: a hyperplane in
the closure of a set's prefix lies in the closure of every set grown from
it and closes no circuit with one, so it is dropped; and two hyperplanes
outside cl(T) span the same flat over T iff their residuals modulo T are
equal, so the sets of size rank - 1 and the bases are grown by comparing
residuals and masks, with no residual step.  The residuals modulo each
atom group the others into the lines through it.  The intersection
lattice is read off the table: the cover of a flat spanned by the
independent set B through a hyperplane h is B + h and every x with
B + h + x dependent.  Graphic arrangements remember their source graph
for reporting.
"""

from __future__ import annotations

from functools import cached_property, wraps
from itertools import islice
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import InputError
from .graphs import Graph
from .intlinalg import RATIONALS, rank_over_field

Vector = tuple[int, ...]


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
        # atoms: the normals divided by their content, first nonzero entry
        # positive, so equal exactly when proportional; each hyperplane is
        # paired with the first sharing its atom, and the error names the
        # lexicographically first pair
        self._atoms = tuple(_primitive(v) for v in norm)
        first: dict[Vector, int] = {}
        pairs = [(first.setdefault(a, j), j) for j, a in enumerate(self._atoms)]
        repeats = [(i, j) for i, j in pairs if i < j]
        if repeats:
            i, j = min(repeats)
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
        self._circuits: list[tuple[int, ...]] = []
        # _independent[k]: masks of the independent k-sets built so far;
        # _frontier: the largest of them, T, as (mask of T, mask of its
        # circuit candidates, live).  The candidates are the h > max T in
        # cl(T) but outside cl(T minus its maximum); live holds the
        # h > max T outside cl(T), ascending.  Up to size rank - 2 live is
        # a list of (bit of h, residual of h modulo span(T)); at size
        # rank - 1 only closures are asked of it, so it is a mask, and a
        # basis has none.  n >= 2 gives rank >= 2, as no two normals are
        # proportional, so then the empty set lists its atoms as residuals
        if self.n > 1:
            live = [(1 << h, a) for h, a in enumerate(self._atoms)]
        else:
            live = (1 << self.n) - 1
        self._independent: list[set[int]] = [{0}]
        self._frontier: list[tuple[int, int, list | int]] = [(0, 0, live)]
        self._lattice = None
        # results of the higher layers' @memo functions, keyed by
        # (function, *arguments); nothing else reads or writes it
        self.cache: dict = {}

    @property
    def n(self) -> int:
        return len(self.normals)

    def __repr__(self) -> str:
        src = " graphic" if self.source_graph else ""
        return f"Arrangement(dim={self.ambient_dim}, n={self.n}{src})"

    # ----------------------------------------------------------- ranks

    def subset_rank(self, indices: Iterable[int]) -> int:
        """Rank over Q of the chosen normals (exact Hermite elimination)."""
        m = self._checked_mask(indices)
        return rank_over_field([self.normals[i] for i in _indices(m)], RATIONALS)

    def _checked_mask(self, indices: Iterable[int]) -> int:
        """The int mask of hyperplane indices; InputError names one out of range."""
        m = 0
        for i in indices:
            if not 0 <= i < self.n:
                raise InputError(f"hyperplane index {i} out of range")
            m |= 1 << i
        return m

    def rank(self) -> int:
        return self._full_rank

    @cached_property
    def _full_rank(self) -> int:
        return rank_over_field(self.normals, RATIONALS)

    def is_dependent(self, s: Iterable[int]) -> bool:
        return self._dependent(self._checked_mask(s))

    def _dependent(self, m: int) -> bool:
        k = m.bit_count()
        if k > self._full_rank:
            return True
        # a single query does not grow the table
        table = self._independent
        if k < len(table):
            return m not in table[k]
        return self.subset_rank(_indices(m)) < k

    def independent_sets(self, size: int) -> set[int]:
        """Masks of the independent sets of the given size, at most rank + 1.

        Shared with ``is_dependent``, so never mutate it.  The table grows
        one size at a time and is kept for the arrangement's lifetime.
        Each independent k-set T is reached once, from its sorted prefix P
        = T minus its maximum, and carries only the hyperplanes h > max T
        outside cl(P).  An h in cl(P) lies in the closure of every set
        grown from T, and P + h holds a circuit, so h neither extends such
        a set nor closes a circuit with one (Oxley, "Matroid Theory", 1.4).
        Of the h carried, T + h is independent iff h is outside cl(T), that
        is iff h's residual modulo span(T) is nonzero, and a circuit iff
        every k-subset of T + h is in the table; the circuits of size k + 1
        are recorded on the way, in lexicographic order because the
        frontier stays sorted.  A set T + h of size rank - 1 carries no
        residuals: for x outside cl(T), x lies in cl(T + h) iff the
        primitive, sign-normalized residuals of x and h modulo span(T) are
        equal, the test ``pair_closures`` makes.  With the bases, which
        carry their circuit candidates as a mask, the last two sizes make
        no residual step.
        """
        table = self._independent
        rank = self.rank()
        circuits = self._circuits
        while len(table) <= size:
            k = len(table) - 1  # the size of the frontier's sets
            below = table[-1]
            grown: set[int] = set()
            frontier = []
            for m, zeros, live in self._frontier:
                while zeros:
                    h = zeros & -zeros
                    zeros ^= h
                    c = m | h
                    rest = m
                    while rest:
                        x = rest & -rest
                        if c ^ x not in below:
                            break
                        rest ^= x
                    else:
                        circuits.append(_indices(c))
                if k < rank - 2:
                    for j, (h, v) in enumerate(live):
                        p = _pivot(v)
                        fresh = 0
                        rest = []
                        for x, w in live[j + 1 :]:
                            u = _reduce(w, v, p)
                            if u is None:
                                fresh |= x
                            else:
                                rest.append((x, u))
                        grown.add(m | h)
                        frontier.append((m | h, fresh, rest))
                elif k == rank - 2:  # the children's closures by equal residuals
                    groups: dict[Vector, int] = {}
                    after = 0
                    for h, v in live:
                        groups[v] = groups.get(v, 0) | h
                        after |= h
                    for h, v in live:
                        after ^= h
                        same = groups[v] & after
                        grown.add(m | h)
                        frontier.append((m | h, same, after ^ same))
                else:  # a child is a basis, so every later h is in its closure
                    while live:
                        h = live & -live
                        live ^= h
                        grown.add(m | h)
                        frontier.append((m | h, live, 0))
            table.append(grown)
            self._frontier = frontier
        return table[size]

    # --------------------------------------------------------- circuits

    def circuits(self, max_size: int | None = None) -> list[tuple[int, ...]]:
        """All circuits of size <= max_size, by size, then lexicographically.

        A circuit has size at most rank+1, so the enumeration never looks
        past that.  The circuits of size k + 1 are found while the
        independent-set table grows from size k to k + 1, so the cache is
        complete up to the largest size the table holds.
        """
        if max_size is None:
            max_size = self.n
        if max_size > self.n:
            raise InputError(f"max_size {max_size} exceeds {self.n} hyperplanes")
        self.independent_sets(max(0, min(max_size, self.rank() + 1)))
        return [c for c in self._circuits if len(c) <= max_size]

    def has_chord(self, circuit: Sequence[int]) -> bool:
        """True when some c outside splits the set into two dependent halves.

        Let x be the first member of C and rest = C - x.  A c with
        ``rest + c`` independent lies outside cl(C), since ``rest`` spans
        it; then no half plus c is dependent, as each half is independent
        and spans less than cl(C), so c is skipped.  Otherwise c is a chord
        iff ``half + c`` is dependent, where half is x plus every y in rest
        with ``(rest - y) + c`` dependent: |C| + 1 lookups per c, each a
        table lookup after ``circuits(len(circuit))``.

        Why (Oxley, "Matroid Theory", fundamental circuits and series
        classes): for c in cl(C) outside C, M restricted to E = C + c is
        connected with nullity 2, so its dual has rank 2 and its circuits
        are the complements of the dual's parallel classes.  {c} is one
        class, as C is a circuit.  A half A with A + c and (C - A) + c
        dependent puts A and C - A each inside one class, so a split exists
        iff there are exactly three classes.  The fundamental circuit D of
        c in the basis rest is E minus the class of x, and y in rest lies
        in D iff ``(rest - y) + c`` is independent; so half = C - D is x's
        class, and ``half + c`` is dependent iff C - half lies in one
        class, that is iff no fourth class exists.
        """
        whole = _mask(circuit)
        first = whole & -whole
        rest = whole ^ first
        dependent = self._dependent
        for c in range(self.n):
            bit = 1 << c
            if whole & bit or not dependent(rest | bit):
                continue
            half = first
            for y in _indices(rest):
                if dependent((rest ^ 1 << y) | bit):
                    half |= 1 << y
            if dependent(half | bit):
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

        For a != b that is the rank-2 flat through a and b.  Each such line
        is built once, from its smallest member a: a together with the
        hyperplanes h > a whose residual modulo a equals b's, so a 2-generic
        input makes C(n, 2) residual steps.  ``line[a][a]`` is the single
        bit of a.  Shared by every caller, so never mutate it.
        """
        return self._lines

    @cached_property
    def _lines(self) -> list[list[int]]:
        atoms = self._atoms
        n = self.n
        line = [[0] * n for _ in range(n)]
        for a, p in enumerate(atoms):
            row = line[a]
            k = _pivot(p)
            groups: dict[Vector, int] = {}
            for h in range(a + 1, n):
                if not row[h]:  # else a and h lie on a line with a smaller member
                    r = _reduce(atoms[h], p, k)
                    groups[r] = groups.get(r, 1 << a) | 1 << h
            for m in groups.values():
                members = _indices(m)
                for x in members:
                    for y in members:
                        line[x][y] = m
            row[a] = 1 << a
        return line

    def intersection_lattice(self) -> "IntersectionLattice":
        if self._lattice is None:
            self._lattice = IntersectionLattice(self)
        return self._lattice

    def betti_mobius(self) -> list[int]:
        """Whitney numbers b_0..b_r: sums of |mu| over flats of each rank.

        Summed once per arrangement; each call returns a fresh list.
        """
        return list(self._betti)

    @cached_property
    def _betti(self) -> tuple[int, ...]:
        lat = self.intersection_lattice()
        mu = iter(lat._mu)
        return tuple(sum(map(abs, islice(mu, len(level)))) for level in lat._levels)


def _primitive(v: Sequence[int]) -> Vector | None:
    """v divided by its content, first nonzero entry positive; None for 0."""
    g = gcd(*v)
    if not g:
        return None
    for x in v:
        if x:
            if x < 0:
                g = -g
            break
    return tuple(v) if g == 1 else tuple(x // g for x in v)


def _pivot(p: Vector) -> int:
    for i, x in enumerate(p):
        if x:
            return i


def _reduce(v: Vector, p: Vector, k: int) -> Vector | None:
    """The primitive residual of v modulo one more echelon row p.

    Column k is p's pivot, its first nonzero entry.  Fraction-free: the
    residual spans the same line as ``p[k] * v - v[k] * p`` with column k,
    now zero, dropped.  Residuals reduced by the same rows share their
    coordinates: two are equal iff their vectors span the same line modulo
    the span of the rows, and a residual is None iff its vector lies in it.
    """
    c = v[k]
    if not c:
        return v[:k] + v[k + 1 :]
    a = p[k]
    w = [a * x - c * y for x, y in zip(v, p)]
    del w[k]
    return _primitive(w)


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


def memo(fn):
    """Store ``fn(a, *args)`` in ``a.cache``, keyed by fn and the arguments.

    A call that raises stores nothing; a None result is stored like any
    other, so a repeat call never recomputes it.
    """

    @wraps(fn)
    def wrapper(a: Arrangement, *args):
        key = (fn, *args)
        if key in a.cache:
            return a.cache[key]
        result = a.cache[key] = fn(a, *args)
        return result

    return wrapper


class IntersectionLattice:
    """All flats of the arrangement with their ranks, lower covers and Mobius values.

    Flats are kept as int masks of hyperplane indices, one list per rank;
    within a rank they are in the order of their sorted index tuples, which
    sorting by the bit-reversed mask gives, as no flat's tuple is a prefix
    of another's of the same rank.  ``flats`` (frozensets, rank-ascending),
    ``rank_of`` and ``mobius`` are views written on first read: the
    classification and the Whitney numbers read the masks alone.

    Built level by level from the independent-set table, so no rank or
    residual is computed.  Each flat F of rank k - 1 keeps a basis B: the
    set B' + h of the first cover relation F' < F that reached it.  For a
    hyperplane h outside F and its covers so far, the cover is G = B + h
    plus every x with B + h + x not in the table of independent
    (k + 1)-sets (Oxley, "Matroid Theory", 1.4); at the top rank it is
    every hyperplane.  Only the x in ``reach[h]``, the union of the
    circuits of size <= k + 1 through h, are looked up: B + h + x dependent
    has a unique circuit, which holds x because B + h is independent and h
    because x is outside F = cl(B), so any other x is outside G.  Those
    circuits are all recorded once ``independent_sets(k + 1)`` returns; on
    an input with no circuit smaller than rank + 1 there is no lookup.  The
    lower covers are kept as tuples of flat indices, and Mobius is
    Weisner's recursion over them: for a fixed atom a <= X, mu(X) = -sum
    mu(Y) over the covers Y of X that miss a.

    Supersolvability (a maximal chain of modular flats) is decided by the
    modular-coatom criterion instead of by the definition: a coatom Y of a
    geometric lattice [0, X] is modular exactly when, for every two atoms
    a, b in X but not in Y, the line a v b meets Y (Bjorner-Edelman-Ziegler,
    "Hyperplane arrangements with a lattice of regions", 1990).  A modular
    element of [0, X] with X modular is modular in the whole lattice
    (Stanley, "Modular elements of geometric lattices", 1971), so a chain
    exists iff some modular coatom has one below it.
    """

    def __init__(self, arr: Arrangement):
        # the collinearity table, not the arrangement, which
        # holds the lattice: a reference cycle would keep every arrangement
        # and its caches alive until a full garbage collection
        self._lines = arr.pair_closures()
        self._levels: list[list[int]] = [[0]]
        self._lower: list[tuple[int, ...]] = [()]
        rank = arr.rank()
        full = (1 << arr.n) - 1
        width = f"0{arr.n}b"
        reach = [0] * arr.n
        circuits = arr._circuits  # by size, complete up to the table's largest
        seen = 0
        # (index, mask, basis mask) of each rank-(k - 1) flat
        level = [(0, 0, 0)]
        for k in range(1, rank + 1):
            above = None
            if k < rank:
                above = arr.independent_sets(k + 1)
                while seen < len(circuits) and len(circuits[seen]) <= k + 1:
                    c = _mask(circuits[seen])
                    for h in circuits[seen]:
                        reach[h] |= c
                    seen += 1
            covers: dict[int, tuple[int, list[int]]] = {}
            for i, m, basis in level:
                left = full & ~m  # hyperplanes not yet in a cover of F
                while left:
                    h = left & -left
                    b = basis | h
                    if above is None:
                        g = full
                    else:
                        g = m | h
                        rest = left & reach[h.bit_length() - 1] & ~h
                        while rest:
                            x = rest & -rest
                            if b | x not in above:
                                g |= x
                            rest ^= x
                    left &= ~g
                    hit = covers.get(g)
                    if hit is None:
                        covers[g] = (b, [i])
                    else:
                        hit[1].append(i)
            start = len(self._lower)
            masks = sorted(covers, key=lambda g: format(g, width)[::-1], reverse=True)
            level = [(start + j, g, covers[g][0]) for j, g in enumerate(masks)]
            self._levels.append(masks)
            self._lower.extend(tuple(covers[g][1]) for g in masks)

    @cached_property
    def flats(self) -> list[frozenset[int]]:
        return [frozenset(_indices(m)) for level in self._levels for m in level]

    @cached_property
    def rank_of(self) -> dict[frozenset[int], int]:
        ranks = (k for k, level in enumerate(self._levels) for _ in level)
        return dict(zip(self.flats, ranks))

    @cached_property
    def mobius(self) -> dict[frozenset[int], int]:
        return dict(zip(self.flats, self._mu))

    @cached_property
    def _mu(self) -> list[int]:
        """Mobius values of the flats in rank-ascending order."""
        masks = [m for level in self._levels for m in level]
        mu = [1]
        for x, lower in zip(masks[1:], self._lower[1:]):
            atom = x & -x
            mu.append(-sum(mu[y] for y in lower if not masks[y] & atom))
        return mu

    def has_modular_chain(self) -> bool:
        """Maximal chain of modular flats, one per rank: the supersolvable test.

        Searches down from the top flat through modular coatoms, with flats
        and rank-2 closures as int bitmasks; a flat whose interval has no
        chain is recorded and never searched again.
        """
        levels = self._levels
        return _chain_below(self._lines, levels, set(), levels[-1][0], len(levels) - 1)


def _chain_below(
    line: list[list[int]], by_rank: list[list[int]], dead: set[int], x: int, r: int
) -> bool:
    """A chain of modular flats from the rank-r flat x down to the bottom.

    Flats whose interval has no chain are added to ``dead``.
    """
    if r == 0:
        return True
    if x in dead:
        return False
    for y in by_rank[r - 1]:
        if (
            y & ~x == 0
            and _modular_coatom(line, y, x)
            and _chain_below(line, by_rank, dead, y, r - 1)
        ):
            return True
    dead.add(x)
    return False


def _modular_coatom(line: list[list[int]], y: int, x: int) -> bool:
    """y is modular in [0, x]: every line through two of x - y meets y."""
    rest = _indices(x & ~y)
    return all(line[a][b] & y for i, a in enumerate(rest) for b in rest[i + 1 :])


def _mask(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _indices(m: int) -> tuple[int, ...]:
    """The set bits of m, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)
