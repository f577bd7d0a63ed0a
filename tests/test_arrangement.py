"""Matroid layer: ranks, circuits, chords, flats, Mobius/betti numbers."""

import itertools
import random
from collections import Counter
from math import comb, factorial

import pytest

from hyparr.arrangement import Arrangement, _indices, build, from_graph
from hyparr.cli import _random_2generic_instances, parse_input
from hyparr.errors import InputError
from hyparr.graphs import chromatic_polynomial, connected_graph_reps, make_graph
from hyparr.hypersolvable import classify
from helpers import FIXTURES, THETA, boolean, closure, coxeter_b, echelon, forest_rank, is_modular

K3 = make_graph(3, [(0, 1), (0, 2), (1, 2)])
K4 = make_graph(4, list(itertools.combinations(range(4), 2)))

# xyzt(x+y+z+t)(x-y-z+t) = 0; H = index 4, P = index 5
TWOGEN6 = [
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (1, 1, 1, 1),
    (1, -1, -1, 1),
]

# xyzt(x+y+2z)(x+y+z+t)(x+2y-z+4t) = 0; H = index 5, P = index 6
TWOGEN7 = [
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (1, 1, 2, 0),
    (1, 1, 1, 1),
    (1, 2, -1, 4),
]


def graph_cycles(g):
    """All cycles of a graph as edge-index sets (independent oracle)."""
    edges = g.edges
    n = g.vertex_count
    cycles = set()
    for size in range(3, len(edges) + 1):
        for combo in itertools.combinations(range(len(edges)), size):
            deg = {}
            verts = set()
            for i in combo:
                u, v = edges[i]
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
                verts.update((u, v))
            if any(d != 2 for d in deg.values()):
                continue
            # connected 2-regular = single cycle
            adj = {v: [] for v in verts}
            for i in combo:
                u, v = edges[i]
                adj[u].append(v)
                adj[v].append(u)
            start = next(iter(verts))
            seen = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if seen == verts:
                cycles.add(combo)
    return cycles


def test_build_from_graph_k3():
    arr = from_graph(K3)
    assert arr.ambient_dim == 3
    assert arr.normals == ((1, -1, 0), (1, 0, -1), (0, 1, -1))


def test_build_twogen7():
    arr = build(4, TWOGEN7)
    assert arr.n == 7 and arr.ambient_dim == 4


def test_build_rejects_proportional():
    with pytest.raises(InputError, match="proportional"):
        build(2, [(1, 0), (2, 0)])
    with pytest.raises(InputError, match="proportional"):
        build(2, [(1, -1), (-2, 2)])


def test_proportional_error_names_the_lexicographically_first_pair():
    # (1, 2) is the first pair found scanning by the later index, but
    # (0, 3) comes first in lexicographic order
    with pytest.raises(InputError) as exc:
        build(2, [(1, 0), (0, 1), (0, 2), (-1, 0)])
    assert str(exc.value) == "hyperplanes 0 and 3 are proportional: (1, 0) ~ (-1, 0)"
    assert exc.value.hyperplanes == (0, 3)


def test_build_rejects_zero_normal():
    with pytest.raises(InputError, match="zero normal"):
        build(2, [(0, 0)])


def test_build_errors_carry_hyperplane_indices():
    cases = [
        ([(1, 0), (0, 1), (2, 0)], (0, 2), "hyperplanes 0 and 2 are proportional",
         "lines 7 and 9 are proportional"),
        ([(1, 1), (0, 0)], (1,), "hyperplane 1: zero normal vector",
         "line 8: zero normal vector"),
        ([(1, 1), (1, 0, 0)], (1,), "hyperplane 1: normal has 3 coordinates",
         "line 8: normal has 3 coordinates"),
    ]
    for normals, indices, message, renamed in cases:
        with pytest.raises(InputError) as info:
            build(2, normals)
        assert info.value.hyperplanes == indices
        assert str(info.value).startswith(message)
        assert info.value.naming("line", [7, 8, 9]).startswith(renamed)


def test_subset_rank():
    arr = from_graph(K3)
    assert arr.subset_rank(range(3)) == 2
    assert arr.subset_rank([0]) == 1
    assert arr.subset_rank([]) == 0
    with pytest.raises(InputError):
        arr.subset_rank([5])
    with pytest.raises(InputError, match="index -1 out of range"):
        arr.subset_rank([0, -1])

    arr7 = build(4, TWOGEN7)
    assert arr7.subset_rank([0, 1, 2, 3]) == 4
    # every 4-element subset of C' = {x,y,z,t,H,P} is independent
    for combo in itertools.combinations([0, 1, 2, 3, 5, 6], 4):
        assert arr7.subset_rank(combo) == 4


def test_is_dependent_rejects_out_of_range_indices():
    arr = from_graph(K3)
    for bad in (3, -1):
        with pytest.raises(InputError, match=f"index {bad} out of range"):
            arr.is_dependent([0, bad])


def test_graphic_rank_matches_elimination():
    rng = random.Random(8)
    arr = from_graph(THETA)
    for _ in range(80):
        s = frozenset(i for i in range(arr.n) if rng.random() < 0.5)
        assert arr.subset_rank(s) == forest_rank(THETA, s)
        assert arr.is_dependent(s) == (forest_rank(THETA, s) < len(s))


def test_circuits_k3():
    arr = from_graph(K3)
    assert arr.circuits(3) == [(0, 1, 2)]


def test_circuits_twogen6():
    arr = build(4, TWOGEN6)
    cs = arr.circuits(4)
    assert (1, 2, 4, 5) in cs  # {y, z, H, P}
    assert (0, 3, 4, 5) in cs  # {x, t, H, P}
    assert all(len(c) == 4 for c in cs)


def test_circuits_theta():
    arr = from_graph(THETA)
    cs = arr.circuits()
    sizes = sorted(len(c) for c in cs)
    assert sizes == [4, 4, 6]


def random_normals(rng, dim, count):
    """`count` non-proportional nonzero vectors with entries in -2..2."""
    vecs = []
    while len(vecs) < count:
        v = tuple(rng.randint(-2, 2) for _ in range(dim))
        if not any(v):
            continue
        try:
            build(dim, vecs + [v])
        except InputError:
            continue
        vecs.append(v)
    return vecs


def test_circuits_match_bruteforce_scan():
    rng = random.Random(420)
    inputs = [random_normals(rng, rng.randint(2, 4), rng.randint(2, 7)) for _ in range(10)]
    # ranks 5 and 6, where circuits of several sizes mix
    inputs += [random_normals(rng, dim, count) for dim in (5, 6) for count in (7, 8, 9)]
    assert {build(len(v[0]), v).rank() for v in inputs} >= {5, 6}
    for vecs in inputs:
        dim = len(vecs[0])
        arr = build(dim, vecs)
        # oracle: dependent sets all of whose proper subsets are independent
        expect = []
        for size in range(1, arr.n + 1):
            for combo in itertools.combinations(range(arr.n), size):
                if arr.subset_rank(combo) < size and all(
                    arr.subset_rank(sub) == size - 1
                    for sub in itertools.combinations(combo, size - 1)
                ):
                    expect.append(combo)
        # ascending size caps extend the cached enumeration; each answer
        # must equal a fresh enumeration cut at that size
        fresh = build(dim, vecs).circuits()
        # c read off the circuits on a fresh arrangement: the smallest one
        assert build(dim, vecs).smallest_dependent_size() == min(map(len, expect), default=None)
        for size in range(1, arr.n + 1):
            assert arr.circuits(size) == [c for c in fresh if len(c) <= size]
        # by size, then lexicographically
        assert arr.circuits() == sorted(expect, key=lambda c: (len(c), c))


def test_graphic_circuits_are_cycles():
    for g in [K3, THETA, make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])]:
        arr = from_graph(g)
        assert set(arr.circuits()) == graph_cycles(g)


def test_chordless_theta():
    # edges sort to (0,1),(0,5),(1,2),(1,4),(2,3),(3,4),(4,5); the two
    # 4-cycles each use the middle edge (1,4) = index 3
    arr = from_graph(THETA)
    assert arr.chordless_circuits(4) == [(0, 1, 3, 6), (2, 3, 4, 5)]
    # the hexagon has the middle edge as a chord
    assert arr.chordless_circuits(6) == []


def test_chordless_k3():
    arr = from_graph(K3)
    assert arr.chordless_circuits(3) == [(0, 1, 2)]


def test_chordless_twogen6():
    arr = build(4, TWOGEN6)
    assert arr.chordless_circuits(5) == [(0, 1, 2, 3, 4), (0, 1, 2, 3, 5)]


def test_graphic_chords_match_graph_chords():
    # a circuit has a chord iff the corresponding cycle has a graph chord
    for g in [THETA, make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])]:
        arr = from_graph(g)
        eidx = {e: i for i, e in enumerate(g.edges)}
        for c in arr.circuits():
            verts = set()
            for i in c:
                verts.update(g.edges[i])
            graph_chord = any(
                eidx[e] not in c
                for e in g.edges
                if e[0] in verts and e[1] in verts and eidx.get(e) is not None
            )
            assert arr.has_chord(c) == graph_chord


def test_flats_boolean3():
    arr = boolean(3)
    lat = arr.intersection_lattice()
    assert len(lat.flats) == 8
    assert sorted(lat.rank_of[f] for f in lat.flats) == [0, 1, 1, 1, 2, 2, 2, 3]


def test_flats_k3():
    arr = from_graph(K3)
    lat = arr.intersection_lattice()
    flats = set(lat.flats)
    assert flats == {
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({0, 1, 2}),
    }


def test_flats_twogen7_rank2_all_pairs():
    arr = build(4, TWOGEN7)
    lat = arr.intersection_lattice()
    for f in lat.flats:
        if lat.rank_of[f] == 2:
            assert len(f) == 2  # 2-generic: no collinearity relations


def test_betti_boolean3():
    assert boolean(3).betti_mobius() == [1, 3, 3, 1]


def test_betti_k3():
    assert from_graph(K3).betti_mobius() == [1, 3, 2]


def test_betti_theta():
    arr = from_graph(THETA)
    b = arr.betti_mobius()
    assert arr.rank() == 5
    assert b[1] == 7 and b[5] != 0 and len(b) == 6
    # frozen from the chromatic polynomial k^6-7k^5+21k^4-33k^3+27k^2-9k
    assert b == [1, 7, 21, 33, 27, 9]


def test_betti_matches_chromatic_for_graphs():
    graphs = [
        K3,
        THETA,
        make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)]),
    ]
    for g in graphs:
        arr = from_graph(g)
        coeffs = chromatic_polynomial(g)
        b = arr.betti_mobius()
        n = g.vertex_count
        for i, bi in enumerate(b):
            assert bi == abs(coeffs[n - i])


def test_rank_function_properties():
    rng = random.Random(5150)
    arr = build(4, TWOGEN7)
    subsets = [
        frozenset(i for i in range(arr.n) if rng.random() < 0.5) for _ in range(30)
    ]
    assert arr.subset_rank([]) == 0
    for i in range(arr.n):
        assert arr.subset_rank([i]) == 1
    for s in subsets:
        for t in subsets:
            rs, rt = arr.subset_rank(s), arr.subset_rank(t)
            assert arr.subset_rank(s | t) + arr.subset_rank(s & t) <= rs + rt  # submodular
            if s <= t:
                assert rs <= rt  # monotone


def test_circuit_definition_exhaustive():
    # subset_rank eliminates afresh; is_dependent reads the table that
    # the circuit enumeration fills, so it would not be an independent check
    arr = build(4, TWOGEN6)
    for c in arr.circuits():
        assert arr.subset_rank(c) < len(c)
        for sub in itertools.combinations(c, len(c) - 1):
            assert arr.subset_rank(sub) == len(sub)


def test_c_and_genericity():
    assert build(4, TWOGEN6).c_and_genericity() == (4, True)
    assert from_graph(K3).c_and_genericity() == (3, False)
    assert boolean(4).c_and_genericity() == (None, None)
    assert build(4, TWOGEN7).c_and_genericity() == (4, True)


def test_mobius_alternating_signs():
    # |mu| = (-1)^rank mu on geometric lattices
    for arr in [boolean(3), from_graph(K3), from_graph(THETA), build(4, TWOGEN6)]:
        lat = arr.intersection_lattice()
        for f in lat.flats:
            r = lat.rank_of[f]
            assert lat.mobius[f] * (-1) ** r > 0


def test_modular_chain_boolean_and_k3():
    assert boolean(3).intersection_lattice().has_modular_chain()
    assert from_graph(K3).intersection_lattice().has_modular_chain()
    assert not from_graph(THETA).intersection_lattice().has_modular_chain()


# ------------------------------------------- modular-coatom oracle vs definition


def modular_chain_by_definition(arr):
    """A maximal chain of flats that pass ``is_modular``, searched upwards."""
    lat = arr.intersection_lattice()
    modular = {}

    def is_mod(f):
        if f not in modular:
            modular[f] = is_modular(arr, f, lat.rank_of)
        return modular[f]

    top = lat.rank_of[lat.flats[-1]]
    by_rank = {}
    for f in lat.flats:
        by_rank.setdefault(lat.rank_of[f], []).append(f)

    def extend(cur, r):
        if r == top:
            return True
        return any(cur < g and is_mod(g) and extend(g, r + 1) for g in by_rank[r + 1])

    return is_mod(lat.flats[0]) and extend(lat.flats[0], 0)


def shuffled(arr, rng):
    normals = list(arr.normals)
    rng.shuffle(normals)
    return build(arr.ambient_dim, normals)


def modular_chain_inputs():
    yield from (from_graph(g) for g in connected_graph_reps(6))
    yield from (parse_input(str(p)) for p in sorted(FIXTURES.iterdir()))
    yield coxeter_b(3)
    yield coxeter_b(4)
    for _key, dim, normals in _random_2generic_instances(7, 8, 12):
        yield build(dim, normals)
    # small entries give many collinear triples, unlike the 2-generic family
    rng = random.Random(2718)
    for _ in range(30):
        dim = rng.choice((3, 4))
        vecs = {tuple(rng.randint(-1, 1) for _ in range(dim)) for _ in range(rng.randint(4, 8))}
        normals = []
        for v in sorted(vecs):
            if any(v) and tuple(-x for x in v) not in normals:
                normals.append(v)
        yield build(dim, normals)


def test_modular_chain_matches_definition_and_order():
    rng = random.Random(1990)
    seen = {True: 0, False: 0}
    for arr in modular_chain_inputs():
        expected = modular_chain_by_definition(arr)
        assert arr.intersection_lattice().has_modular_chain() == expected, arr.normals
        assert shuffled(arr, rng).intersection_lattice().has_modular_chain() == expected
        seen[expected] += 1
    assert min(seen.values()) >= 20


def brute_force_flats(arr):
    """Closure of every subset, with ranks from fresh eliminations."""
    rank = {}

    def r(s):
        if s not in rank:
            rank[s] = arr.subset_rank(s)
        return rank[s]

    flats = set()
    for bits in range(1 << arr.n):
        s = frozenset(i for i in range(arr.n) if bits >> i & 1)
        flats.add(frozenset(h for h in range(arr.n) if r(s | {h}) == r(s)))
    return {f: r(f) for f in flats}


def test_lattice_matches_closure_of_every_subset():
    d4 = parse_input(str(FIXTURES / "d4.arr"))
    for arr in [boolean(3), from_graph(K4), d4, build(4, TWOGEN6)]:
        lat = arr.intersection_lattice()
        assert lat.rank_of == brute_force_flats(arr)
        assert lat.flats == sorted(lat.rank_of, key=lambda f: (lat.rank_of[f], sorted(f)))


def test_mobius_is_lazy_and_keeps_identities():
    for arr in [from_graph(K4), from_graph(THETA), coxeter_b(3)]:
        lat = arr.intersection_lattice()
        assert "mobius" not in vars(lat)
        for f in lat.flats:
            assert lat.mobius[f] * (-1) ** lat.rank_of[f] > 0
        assert "mobius" in vars(lat)
    # the classification and the Whitney numbers read the mask levels alone
    _key, dim, normals = next(_random_2generic_instances(0, 8, 1))
    arr = build(dim, normals)
    classify(arr)
    betti = arr.betti_mobius()
    lat = arr.intersection_lattice()
    # no view is written, and no rank oracle state is kept
    absent = {"flats", "rank_of", "mobius", "_normals", "_ranks", "_join_cache"}
    assert not absent & vars(lat).keys()
    assert lat.rank_of == brute_force_flats(arr)
    assert lat.mobius == mobius_by_definition(lat)
    assert betti == [
        sum(abs(m) for f, m in lat.mobius.items() if lat.rank_of[f] == k)
        for k in range(arr.rank() + 1)
    ]
    # chromatic polynomial k(k-1)(k-2)(k-3) of K4; B3 has exponents 1, 3, 5
    assert from_graph(K4).betti_mobius() == [1, 6, 11, 6]
    assert coxeter_b(3).betti_mobius() == [1, 9, 23, 15]
    k4 = from_graph(K4)
    k4.betti_mobius()[0] = 99  # each call returns a fresh list
    assert k4.betti_mobius() == [1, 6, 11, 6]


# ------------- table lookups and residual steps vs the definitions they replace
#
# The independent-set table, the circuits and pair_closures come from
# ``_reduce`` residual steps; the flats, their lower covers and Mobius are
# read off that table.  Each is checked against ranks by fresh elimination.


def chordless_by_split_scan(arr, size):
    """Circuits of the given size with no c outside splitting them into two
    halves that each become dependent with c, ranks by fresh elimination."""

    def dependent(s):
        return arr.subset_rank(s) < len(s)

    out = []
    for circ in arr.circuits(size):
        if len(circ) != size:
            continue
        chord = any(
            dependent(half + (c,)) and dependent(tuple(set(circ) - set(half)) + (c,))
            for c in range(arr.n)
            if c not in circ
            for k in range(1, size)
            for half in itertools.combinations(circ, k)
        )
        if not chord:
            out.append(circ)
    return out


def test_chordless_circuits_match_split_scan():
    inputs = [from_graph(g) for g in connected_graph_reps(6)]
    inputs += [parse_input(str(p)) for p in sorted(FIXTURES.iterdir())]
    assert len(inputs) == 143 + 7
    for arr in inputs:
        for size in range(3, min(arr.n, arr.rank() + 1) + 1):
            expect = chordless_by_split_scan(arr, size)
            assert build(arr.ambient_dim, arr.normals).chordless_circuits(size) == expect


def test_has_chord_skip_matches_the_split_loop():
    # has_chord skips every c with rest + c independent, as such a c lies
    # outside cl(C); the loop over every split of every c must agree
    from hyparr.arrangement import _mask

    def split_loop(arr, circ):
        whole = _mask(circ)
        first = whole & -whole
        rest = whole ^ first
        for c in range(arr.n):
            bit = 1 << c
            if whole & bit:
                continue
            sub = rest
            while sub:
                sub = (sub - 1) & rest
                half = first | sub
                if arr.is_dependent(_indices(half | bit)) and arr.is_dependent(
                        _indices((whole ^ half) | bit)):
                    return True
        return False

    inputs = [from_graph(g) for g in connected_graph_reps(6)]
    inputs += [parse_input(str(p)) for p in sorted(FIXTURES.iterdir())]
    gen = random.Random(1935)
    inputs += [small_entries(gen, gen.choice((3, 4, 5)), gen.randint(4, 10)) for _ in range(40)]
    # rank 6 gives circuits of size 7; the copy lists the same normals in another order
    normals = rank6_normals(12)
    inputs.append(build(6, normals))
    random.Random(1939).shuffle(normals)
    inputs.append(build(6, normals))
    counts = [0, 0]
    for arr in inputs:
        for circ in arr.circuits(min(arr.n, arr.rank() + 1)):
            expect = split_loop(arr, circ)
            assert arr.has_chord(circ) == expect, (arr.normals, circ)
            counts[expect] += 1
    assert min(counts) >= 100, counts


def test_a_chord_test_makes_at_most_size_plus_one_lookups_per_candidate(monkeypatch):
    # has_chord reads one fundamental circuit per c: the skip test, |C| - 1
    # tests to find it, and one for the half it leaves; a scan of every
    # split would make up to 2 (2^(|C|-1) - 1) per c
    arr = build(6, rank6_normals(12))
    circuits = arr.circuits(7)
    assert (len(circuits), sum(len(c) == 7 for c in circuits)) == (313, 256)
    dependent = Arrangement._dependent
    calls = 0

    def counted(self, m):
        nonlocal calls
        calls += 1
        return dependent(self, m)

    monkeypatch.setattr(Arrangement, "_dependent", counted)
    chords = 0
    for circ in circuits:
        calls = 0
        chords += arr.has_chord(circ)
        assert calls <= arr.n * (len(circ) + 1), (circ, calls)
    assert chords == 31


def rank6_normals(n):
    """The first n distinct {-1,0,1} vectors in dimension 6 drawn by
    ``random.Random(0)``, zero dropped, first nonzero entry made positive."""
    gen = random.Random(0)
    normals = []
    while len(normals) < n:
        v = [gen.randint(-1, 1) for _ in range(6)]
        if any(v):
            sign = next(x for x in v if x)
            v = [sign * x for x in v]
            if v not in normals:
                normals.append(v)
    return normals


def small_entries(gen, dim, draws):
    """The arrangement of `draws` random {-1,0,1} vectors, dropping zero and -v."""
    vecs = {tuple(gen.randint(-1, 1) for _ in range(dim)) for _ in range(draws)}
    normals = []
    for v in sorted(vecs):
        if any(v) and tuple(-x for x in v) not in normals:
            normals.append(v)
    return build(dim, normals)


def differential_inputs():
    """The 6-vertex corpus, fixtures, B3, B4, 40 seeded {-1,0,1} inputs,
    10 random 2-generic instances and 4 edge cases (no hyperplane, one, a
    non-essential input of rank 2 in dimension 4, and the boolean
    arrangement of rank n = 5), each also with its hyperplanes shuffled."""

    def base():
        yield build(3, [])
        yield build(3, [(2, -1, 0)])
        yield build(4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (1, -1, 0, 0), (2, 1, 0, 0)])
        yield boolean(5)
        yield from (from_graph(g) for g in connected_graph_reps(6))
        yield from (parse_input(str(p)) for p in sorted(FIXTURES.iterdir()))
        yield coxeter_b(3)
        yield coxeter_b(4)
        gen = random.Random(1933)
        for _ in range(40):
            yield small_entries(gen, gen.choice((3, 4, 5)), gen.randint(4, 10))
        for _key, dim, normals in _random_2generic_instances(11, 10, 10):
            yield build(dim, normals)

    rng = random.Random(1964)
    for arr in base():
        yield arr
        yield shuffled(arr, rng)


def flats_by_closures(arr):
    """The closure level build: flats in order, with ranks.

    Each cover of a flat F is the closure of F + h for the first h in no
    earlier cover; the covers of F meet only in F, so the closure tests
    only the hyperplanes in no earlier cover.
    """
    levels = [{closure(arr, frozenset(), range(arr.n))}]
    while True:
        nxt = set()
        for flat in levels[-1]:
            left = [h for h in range(arr.n) if h not in flat]
            while left:
                cover = closure(arr, flat | {left[0]}, left)
                nxt.add(cover)
                left = [h for h in left if h not in cover]
        if not nxt:
            return [(f, r) for r, level in enumerate(levels) for f in sorted(level, key=sorted)]
        levels.append(nxt)


def mobius_by_definition(lat):
    """mu(X) = -sum of mu(Y) over every flat Y < X."""
    mob = {}
    for flat in lat.flats:
        mob[flat] = 1 if not flat else -sum(m for g, m in mob.items() if g < flat)
    return mob


def subset_scan(arr):
    """Dependence of every subset of size <= rank + 1 by elimination, by size
    and then lexicographically: each subset's echelon is a copy of its
    prefix's with one normal inserted."""
    top = echelon(arr, range(arr.n)).rank
    out = {(): False}
    level = [((), echelon(arr, ()))]
    for _ in range(top + 1):
        nxt = []
        for s, h in level:
            for j in range(s[-1] + 1 if s else 0, arr.n):
                t, e = s + (j,), h.copy()
                e.insert(arr.normals[j])
                out[t] = e.rank < len(t)
                nxt.append((t, e))
        level = nxt
    return out


def test_residual_routes_match_definitions():
    seen = 0
    for arr in differential_inputs():
        lat = arr.intersection_lattice()
        expect = flats_by_closures(arr)
        assert lat.flats == [f for f, _ in expect], arr.normals
        assert lat.rank_of == dict(expect)
        assert lat.mobius == mobius_by_definition(lat)
        assert list(lat.mobius) == lat.flats
        by_rank = {}
        for j, g in enumerate(lat.flats):
            by_rank.setdefault(lat.rank_of[g], []).append(j)
        for i, flat in enumerate(lat.flats):
            below = by_rank.get(lat.rank_of[flat] - 1, [])
            assert lat._lower[i] == tuple(j for j in below if lat.flats[j] <= flat)

        dependent = subset_scan(arr)
        circuits = [
            s for s, dep in dependent.items()
            if dep and not any(dependent[t] for t in itertools.combinations(s, len(s) - 1))
        ]
        assert arr.circuits() == circuits
        # circuits() filled the table up to rank + 1, so these are lookups
        assert len(arr._independent) == min(arr.n, arr.rank() + 1) + 1
        assert all(arr.is_dependent(s) == dep for s, dep in dependent.items()), arr.normals
        line = arr.pair_closures()
        for a, b in itertools.combinations(range(arr.n), 2):
            cl = {a, b} | {h for h in range(arr.n) if dependent.get(tuple(sorted({a, b, h})), False)}
            assert line[a][b] == line[b][a] == sum(1 << h for h in cl)
        assert all(line[a][a] == 1 << a for a in range(arr.n))
        # lat was built on an empty table; one built after circuits() agrees
        after = build(arr.ambient_dim, arr.normals)
        after.circuits()
        again = after.intersection_lattice()
        assert (again.flats, again._lower, again._levels) == (lat.flats, lat._lower, lat._levels)
        seen += 1
    assert seen == 2 * (4 + 143 + 7 + 2 + 40 + 10)


def test_lattice_computes_no_residual(monkeypatch):
    import hyparr.arrangement as arrangement

    calls = []
    reduce = arrangement._reduce

    def counted(*args):
        calls.append(args)
        return reduce(*args)

    arr = coxeter_b(4)
    arr.circuits()
    arr.pair_closures()  # the collinearity table is the other residual user
    assert arr._lattice is None
    monkeypatch.setattr(arrangement, "_reduce", counted)
    arr.intersection_lattice()
    assert calls == []
    coxeter_b(4).intersection_lattice()  # a fresh table grows by residual steps
    assert calls


def unfiltered_lookups(lat):
    """The table lookups of a cover scan that tests every x: for each flat
    F below rank - 1, the classes G - F of its covers G taken in order of
    their least member, each costing |left| - 1 with left the union of that
    class and the later ones."""
    top = lat.rank_of[lat.flats[-1]]
    classes = {}
    for g, lower in zip(lat.flats, lat._lower):
        for i in lower:
            classes.setdefault(i, []).append(g - lat.flats[i])
    total = 0
    for i, parts in classes.items():
        if lat.rank_of[lat.flats[i]] < top - 1:
            left = sum(map(len, parts))
            for part in sorted(parts, key=min):
                total += left - 1
                left -= len(part)
    return total


def test_cover_scan_looks_up_only_what_a_small_circuit_reaches(monkeypatch):
    lookups = 0

    class Counted(set):
        def __contains__(self, m):
            nonlocal lookups
            lookups += 1
            return super().__contains__(m)

    independent_sets = Arrangement.independent_sets
    monkeypatch.setattr(
        Arrangement, "independent_sets", lambda self, size: Counted(independent_sets(self, size))
    )
    # any three moment-curve normals form a Vandermonde basis, so no
    # circuit is smaller than rank + 1 and no lookup is needed
    arr = build(3, [(1, i, i * i) for i in range(12)])
    arr.intersection_lattice()
    assert lookups == 0
    assert unfiltered_lookups(arr.intersection_lattice()) > 0
    inputs = [parse_input(str(p)) for p in sorted(FIXTURES.iterdir())]
    inputs += [from_graph(make_graph(k, list(itertools.combinations(range(k), 2)))) for k in (4, 5, 6)]
    inputs += [build(dim, normals) for _key, dim, normals in _random_2generic_instances(0, 12, 50)]
    made = bound = 0
    for arr in inputs:
        lookups = 0
        lat = arr.intersection_lattice()
        assert lookups <= unfiltered_lookups(lat), arr.normals
        made += lookups
        bound += unfiltered_lookups(lat)
    assert made < bound


def test_pair_closures_reduce_each_line_once(monkeypatch):
    import hyparr.arrangement as arrangement

    calls = 0
    reduce = arrangement._reduce

    def counted(*args):
        nonlocal calls
        calls += 1
        return reduce(*args)

    _key, dim, normals = next(_random_2generic_instances(0, 12, 1))
    generic = build(dim, normals)
    d4 = parse_input(str(FIXTURES / "d4.arr"))
    monkeypatch.setattr(arrangement, "_reduce", counted)
    generic.pair_closures()
    assert calls == comb(generic.n, 2)
    calls = 0
    lines = {m for row in d4.pair_closures() for m in row if m.bit_count() > 1}
    # a line L costs |L| - 1 steps, from its smallest member
    assert calls == sum(m.bit_count() - 1 for m in lines) < comb(d4.n, 2)


def test_single_dependence_query_does_not_grow_the_table():
    arr = from_graph(make_graph(6, list(itertools.combinations(range(6), 2))))
    assert len(arr._independent) == 1
    assert arr.is_dependent([0, 1, 5])  # the triangle 0-1-2
    assert not arr.is_dependent([0, 1, 2, 3, 4])  # a spanning tree
    assert len(arr._independent) == 1
    arr.circuits(3)
    assert len(arr._independent) == 4
    assert arr.is_dependent([0, 1, 5]) and not arr.is_dependent([0, 1, 2])
    assert not arr.is_dependent([0, 1, 2, 3, 4])
    assert len(arr._independent) == 4


def test_k7_table_matches_closed_forms_and_forests():
    # K7 is the densest graph analyze admits, so the table's last pass, over
    # its 7^5 bases, runs here at its largest
    k7 = make_graph(7, list(itertools.combinations(range(7), 2)))
    arr = from_graph(k7)
    assert len(arr._independent) == 1
    circuits = arr.circuits()
    # a k-cycle of K7: C(7, k) vertex sets, (k - 1)!/2 cycles through each
    assert Counter(map(len, circuits)) == {
        k: comb(7, k) * factorial(k - 1) // 2 for k in range(3, 8)
    }
    assert len(circuits) == 1172
    assert circuits == sorted(circuits, key=lambda c: (len(c), c))
    assert len(arr.independent_sets(6)) == 7**5  # Cayley's spanning-tree count
    for k in range(6):
        forests = {
            sum(1 << e for e in s)
            for s in itertools.combinations(range(arr.n), k)
            if forest_rank(k7, s) == k
        }
        assert arr.independent_sets(k) == forests


def test_last_table_sizes_make_no_residual_step(monkeypatch):
    import hyparr.arrangement as arrangement

    calls = 0
    reduce = arrangement._reduce

    def counted(*args):
        nonlocal calls
        calls += 1
        return reduce(*args)

    _key, dim, normals = next(_random_2generic_instances(0, 12, 1))
    k6 = from_graph(make_graph(6, list(itertools.combinations(range(6), 2))))
    monkeypatch.setattr(arrangement, "_reduce", counted)
    for arr in (k6, build(dim, normals)):
        r = arr.rank()
        assert r >= 3
        calls = 0
        arr.independent_sets(r - 2)
        assert calls > 0
        # the (r - 1)-sets read closures off equal residuals, and the bases
        # and the circuits of size r + 1 off masks
        calls = 0
        arr.independent_sets(r + 1)
        assert calls == 0
        assert len(arr._independent) == r + 2
