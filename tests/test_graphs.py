"""Graphs: canonical forms, enumeration, chromatic polynomials, chordality."""

import hashlib
import itertools
import random

import pytest

from hyparr import graphs
from hyparr.errors import InputError
from hyparr.graphs import (
    Graph,
    automorphism_generators,
    canonical_form,
    chromatic_polynomial,
    connected_graph_reps,
    is_chordal,
    make_graph,
)
from helpers import THETA, is_connected


def k_n(n):
    return make_graph(n, itertools.combinations(range(n), 2))


def cycle(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def chromatic_oracle(g):
    """Count proper colorings for k = 0..n by brute force and interpolate.

    The chromatic polynomial has degree n, so the n+1 counted values pin it
    down; Newton forward differences recover exact integer coefficients.
    """
    from fractions import Fraction

    n = g.vertex_count
    values = []
    for k in range(n + 1):
        count = 0
        for coloring in itertools.product(range(k), repeat=n):
            if all(coloring[u] != coloring[v] for u, v in g.edges):
                count += 1
        values.append(count)
    diffs = values[:]
    newton = []
    for _ in range(n + 1):
        newton.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    # p(x) = sum_j newton[j] * C(x, j); expand into monomial coefficients
    coeffs = [Fraction(0)] * (n + 1)
    basis = [Fraction(1)]  # coefficients of C(x, j), built by recurrence
    for j, nw in enumerate(newton):
        if j:
            newb = [Fraction(0)] * (len(basis) + 1)
            for i, c in enumerate(basis):
                newb[i + 1] += c
                newb[i] -= c * (j - 1)
            basis = [c / j for c in newb]
        for i, c in enumerate(basis):
            coeffs[i] += nw * c
    out = []
    for c in coeffs:
        assert c.denominator == 1
        out.append(int(c))
    return out


def test_graph_validation():
    with pytest.raises(InputError):
        make_graph(3, [(0, 0)])
    with pytest.raises(InputError):
        make_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        Graph(2, ((0, 5),))


@pytest.mark.parametrize("edges, message", [
    ([(0, 0)], "loop at vertex 0"),
    ([(0, 1), (1, 0)], r"multi-edge \(0, 1\)"),
    ([(2, 1), (0, 1), (1, 2)], r"multi-edge \(1, 2\)"),
    # two faults: Graph checks the oriented, sorted edges in order
    ([(2, 2), (1, 0), (0, 1)], r"multi-edge \(0, 1\)"),
    ([(0, 1), (1, 1), (2, 1), (1, 2)], "loop at vertex 1"),
])
def test_make_graph_errors_name_the_first_fault_in_sorted_order(edges, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        make_graph(3, edges)


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        g = make_graph(n, edges)
        key = canonical_form(g)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = make_graph(n, [(perm[u], perm[v]) for u, v in edges])
        assert canonical_form(relabeled) == key


def lexmin_oracle(g):
    """Minimal adjacency bit-string over all permutations, by full scan.

    Bit order (0,1),(0,2),(1,2),(0,3),...; packed with (0,1) most significant.
    """
    n = g.vertex_count
    adj = set(g.edges)
    best = None
    for perm in itertools.permutations(range(n)):
        bits = []
        for j in range(n):
            for i in range(j):
                e = (perm[i], perm[j]) if perm[i] < perm[j] else (perm[j], perm[i])
                bits.append(1 if e in adj else 0)
        if best is None or bits < best:
            best = bits
    total = n * (n - 1) // 2
    out = 0
    for idx, b in enumerate(best):
        if b:
            out |= 1 << (total - 1 - idx)
    return out


def test_canonical_form_matches_full_scan():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 6)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = make_graph(n, edges)
        assert canonical_form(g) == lexmin_oracle(g)


def test_canonical_form_matches_full_scan_all_small_labeled():
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))
            assert canonical_form(g) == lexmin_oracle(g), g


def complement(g):
    edges = set(g.edges)
    n = g.vertex_count
    return make_graph(n, [e for e in itertools.combinations(range(n), 2) if e not in edges])


def disjoint_union(*gs):
    edges, offset = [], 0
    for g in gs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.vertex_count
    return make_graph(offset, edges)


def complete_multipartite(*sizes):
    part = [i for i, s in enumerate(sizes) for _ in range(s)]
    n = len(part)
    return make_graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                          if part[u] != part[v]])


def symmetric_families():
    """Twin-rich and vertex-transitive graphs, where most orders tie."""
    family = [make_graph(n, []) for n in range(8)]
    family += [k_n(n) for n in range(2, 8)]
    family += [
        complete_multipartite(1, 6),  # star
        complete_multipartite(3, 3),
        complete_multipartite(2, 2, 2),
        complete_multipartite(1, 2, 4),
        cycle(7),
        complement(cycle(7)),
        disjoint_union(k_n(2), k_n(2), k_n(2)),
        disjoint_union(k_n(3), k_n(3)),
        disjoint_union(k_n(2), k_n(2), k_n(3)),
        disjoint_union(k_n(2), k_n(3), make_graph(2, [])),
    ]
    return family


def test_canonical_form_symmetric_families():
    rng = random.Random(23)
    for g in symmetric_families():
        expect = lexmin_oracle(g)
        assert canonical_form(g) == expect, g
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        relabeled = make_graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])
        assert canonical_form(relabeled) == expect, relabeled


def brute_force_automorphisms(g):
    edges = set(g.edges)
    return {
        perm for perm in itertools.permutations(range(g.vertex_count))
        if all(tuple(sorted((perm[u], perm[v]))) in edges for u, v in edges)
    }


def generated_group(n, gens):
    """Closure of the generators under composition, from the identity."""
    group = {tuple(range(n))}
    stack = list(group)
    while stack:
        perm = stack.pop()
        for gen in gens:
            prod = tuple(gen[v] for v in perm)
            if prod not in group:
                group.add(prod)
                stack.append(prod)
    return group


def test_automorphism_generators_generate_the_group():
    labelled = [
        Graph(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))
        for n in range(6)
        for pairs in [list(itertools.combinations(range(n), 2))]
        for mask in range(1 << len(pairs))
    ]
    assert len(labelled) == 1100
    for g in labelled + symmetric_families():
        gens = automorphism_generators(g)
        edges = set(g.edges)
        for gen in gens:
            assert sorted(gen) == list(range(g.vertex_count)), (g, gen)
            assert {tuple(sorted((gen[u], gen[v]))) for u, v in edges} == edges, (g, gen)
        assert generated_group(g.vertex_count, gens) == brute_force_automorphisms(g), g


def unpruned_connected_graph_reps(max_vertices):
    """Every attachment mask of every parent, first candidate per form."""
    levels = [[(0, Graph(1, ()))]]
    for n in range(2, max_vertices + 1):
        seen = {}
        for _, g in levels[-1]:
            for mask in range(1, 1 << (n - 1)):
                edges = g.edges + tuple((w, n - 1) for w in range(n - 1) if mask >> w & 1)
                cand = Graph(n, tuple(sorted(edges)))
                seen.setdefault(canonical_form(cand), cand)
        levels.append(sorted(seen.items()))
    return [item for level in levels for item in level]


def mask_orbit_count(g):
    """Orbits of Aut(g) on the nonempty vertex masks, by brute force."""
    auts = brute_force_automorphisms(g)
    n = g.vertex_count
    return len({
        min(sum(1 << perm[w] for w in range(n) if mask >> w & 1) for perm in auts)
        for mask in range(1, 1 << n)
    })


def test_orbit_pruned_enumeration_matches_every_mask(monkeypatch):
    reference = unpruned_connected_graph_reps(7)
    calls = 0
    original = graphs.canonical_form

    def counting(g):
        nonlocal calls
        calls += 1
        return original(g)

    monkeypatch.setattr(graphs, "canonical_form", counting)
    for n in range(1, 8):
        calls = 0
        pruned = graphs._keyed_connected_graph_reps(n)
        # forms and representatives both, edges included
        assert pruned == [item for item in reference if item[1].vertex_count <= n], n
        # one call per orbit of the parent's automorphisms on the masks
        assert calls == sum(mask_orbit_count(g) for _, g in pruned if g.vertex_count < n), n
    assert calls == 4159


def test_connected_graph_reps_counts():
    # classes of connected simple graphs on 1..7 vertices
    reps = connected_graph_reps(7)
    by_n = {}
    for g in reps:
        by_n[g.vertex_count] = by_n.get(g.vertex_count, 0) + 1
    assert by_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    assert all(is_connected(g) for g in reps)
    keys = [(g.vertex_count, canonical_form(g)) for g in reps]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    # the forms key the graphic search output, so their values are frozen:
    # sha256 of the newline-joined hex forms per vertex count
    digests = [
        hashlib.sha256("\n".join(f"{k:x}" for m, k in keys if m == n).encode()).hexdigest()
        for n in range(1, 8)
    ]
    assert digests == [
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
        "dc1f6ddf5c232a2b75641bbbfb1a52f80fd3f893ec3bf7285a64d2cb5b1e8900",
        "d212afb8af7ae5a6cbc43385301a294cd1f048366d230edff3f130fb2ac56c24",
        "8dbdafbcb94ee05ca258d599dea709a9cda40f2ca6e3fc71d6e0c4fd3b431432",
        "9b6034ca3d23cc1942d5190e78c446f5e7e1181b778b3ed56103106d29d56893",
        "d9e080d4710e124b55f7c46dab018bbdc54a708356c04c9845c9cb68d87804aa",
    ]


def test_connected_graph_reps_against_labeled_scan():
    # brute-force dedup of all labeled connected graphs on <= 5 vertices
    for n in range(1, 6):
        seen = set()
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, tuple(sorted(p for i, p in enumerate(pairs) if mask >> i & 1)))
            if is_connected(g):
                seen.add(canonical_form(g))
        expect = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}[n]
        assert len(seen) == expect


def test_chromatic_k3():
    # k^3 - 3k^2 + 2k
    assert chromatic_polynomial(k_n(3)) == [0, 2, -3, 1]


def test_chromatic_c4():
    # (k-1)^4 + (k-1) = k^4 - 4k^3 + 6k^2 - 3k  (frozen from the oracle)
    assert chromatic_oracle(cycle(4)) == [0, -3, 6, -4, 1]
    assert chromatic_polynomial(cycle(4)) == [0, -3, 6, -4, 1]


def test_chromatic_theta():
    # frozen from the deletion-contraction oracle by hand:
    # chi = k^6 - 7k^5 + 21k^4 - 33k^3 + 27k^2 - 9k
    assert chromatic_polynomial(THETA) == [0, -9, 27, -33, 21, -7, 1]
    assert chromatic_oracle(THETA) == [0, -9, 27, -33, 21, -7, 1]


def test_chromatic_matches_oracle_random():
    rng = random.Random(2024)
    for _ in range(15):
        n = rng.randint(1, 5)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = make_graph(n, edges)
        assert chromatic_polynomial(g) == chromatic_oracle(g)


def test_chromatic_vanishes_at_one_with_edges():
    for g in [k_n(3), k_n(5), cycle(6), THETA, path(4)]:
        coeffs = chromatic_polynomial(g)
        assert sum(coeffs) == 0  # chi(1) = 0 whenever there is an edge


def test_chordal():
    assert is_chordal(k_n(3))
    assert is_chordal(k_n(6))
    assert is_chordal(path(5))
    assert not is_chordal(cycle(4))
    assert not is_chordal(cycle(6))
    assert not is_chordal(THETA)
    # octahedron = K_2,2,2: 4-cycles without chords
    octa = make_graph(6, [e for e in itertools.combinations(range(6), 2)
                          if e not in {(0, 3), (1, 4), (2, 5)}])
    assert not is_chordal(octa)


def test_chordal_matches_cycle_scan_oracle():
    # chordal iff no induced cycle of length >= 4
    def has_chordless_long_cycle(g):
        n = g.vertex_count
        adj = set(g.edges)

        def connected_cycle(vs):
            # check vs can be cyclically ordered using only edges inside vs
            for perm in itertools.permutations(vs[1:]):
                order = (vs[0],) + perm
                ok = True
                for i in range(len(order)):
                    u, v = order[i], order[(i + 1) % len(order)]
                    if ((u, v) if u < v else (v, u)) not in adj:
                        ok = False
                        break
                if ok:
                    # induced: no chords allowed
                    chords = [
                        (a, b)
                        for a, b in itertools.combinations(sorted(order), 2)
                        if (a, b) in adj
                    ]
                    if len(chords) == len(order):
                        return True
            return False

        for size in range(4, n + 1):
            for vs in itertools.combinations(range(n), size):
                if connected_cycle(vs):
                    return True
        return False

    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 6)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = make_graph(n, edges)
        assert is_chordal(g) == (not has_chordless_long_cycle(g))
