"""Exact integer linear algebra: contract examples and randomized properties.

The oracles here are deliberately naive and independent of the library's
elimination strategy: cofactor determinants, gcd-of-minors, and subgroup
closure by enumeration.
"""

import itertools
import math
import random

import pytest

from hyparr.errors import InputError
from hyparr.intlinalg import (
    AbelianInvariants,
    FieldSpec,
    RATIONALS,
    SparseHermite,
    hermite_basis,
    identity_matrix,
    is_prime,
    prime_factors,
    quotient_invariants,
    rank_over_field,
    smith_normal_form,
    snf_divisors,
    transpose,
    xgcd,
)


# ---------------------------------------------------------------- oracles


def det_cofactor(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


def minors_gcd(m, k):
    """gcd of all k x k minors (0 when every minor vanishes)."""
    nr, nc = len(m), len(m[0]) if m else 0
    g = 0
    for rows in itertools.combinations(range(nr), k):
        for cols in itertools.combinations(range(nc), k):
            sub = [[m[i][j] for j in cols] for i in rows]
            g = math.gcd(g, det_cofactor(sub))
    return g


def snf_divisors_via_minors(m):
    """Divisors from the gcd-of-minors characterization (independent oracle)."""
    if not m or not m[0]:
        return []
    out = []
    prev = 1
    for k in range(1, min(len(m), len(m[0])) + 1):
        g = minors_gcd(m, k)
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def reduction_oracle(m):
    """Brute-force row/column gcd reduction, no pivot strategy, no transforms."""
    A = [list(r) for r in m]
    nr, nc = len(A), len(A[0]) if A else 0
    divs = []
    t = 0
    while t < min(nr, nc):
        # move any nonzero to (t, t)
        found = [(i, j) for i in range(t, nr) for j in range(t, nc) if A[i][j]]
        if not found:
            break
        i, j = found[0]
        A[t], A[i] = A[i], A[t]
        for r in A:
            r[t], r[j] = r[j], r[t]
        done = False
        while not done:
            done = True
            for i in range(t + 1, nr):
                while A[i][t]:
                    q = A[i][t] // A[t][t]
                    for k in range(nc):
                        A[i][k] -= q * A[t][k]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
            for j in range(t + 1, nc):
                while A[t][j]:
                    q = A[t][j] // A[t][t]
                    for r in A:
                        r[j] -= q * r[t]
                    if A[t][j]:
                        for r in A:
                            r[j], r[t] = r[t], r[j]
                        done = False
            if done:
                for i in range(t + 1, nr):
                    for j in range(t + 1, nc):
                        if A[i][j] % A[t][t]:
                            for k in range(nc):
                                A[t][k] += A[i][k]
                            done = False
                            break
                    if not done:
                        break
        divs.append(abs(A[t][t]))
        t += 1
    return [d for d in divs if d]


def rand_matrix(rng, nr, nc, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


# ----------------------------------------------------------- basic pieces


def test_xgcd():
    for a, b in [(0, 0), (0, 5), (12, 18), (-12, 18), (7, -3), (270, -192)]:
        g, x, y = xgcd(a, b)
        assert g == math.gcd(a, b)
        assert g == x * a + y * b


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 101, 7919, 2**31 - 1}
    for p in primes:
        assert is_prime(p)
    for n in [0, 1, 4, 9, 91, 561, 1105, 2**31 + 1]:
        assert not is_prime(n)


def test_prime_factors():
    assert prime_factors(0) == []
    assert prime_factors(1) == []
    assert prime_factors(12) == [2, 3]
    assert prime_factors(-90) == [2, 3, 5]
    assert prime_factors(7919 * 7919 * 2) == [2, 7919]
    # both factors exceed the trial-division limit, so Pollard rho splits them
    assert prime_factors(1000003 * 1000033) == [1000003, 1000033]


def test_fieldspec_validation():
    assert str(RATIONALS) == "Q"
    assert str(FieldSpec(5)) == "F5"
    with pytest.raises(InputError):
        FieldSpec(6)
    with pytest.raises(InputError):
        FieldSpec(-2)


# ------------------------------------------------------ smith normal form


def test_snf_identity():
    res = smith_normal_form(identity_matrix(2))
    assert res.divisors == [1, 1]


def test_snf_worked_example():
    # frozen from the reduction oracle: gcd 2, |det| 8 -> [2, 4]
    m = [[2, 4], [6, 8]]
    assert reduction_oracle(m) == [2, 4]
    res = smith_normal_form(m)
    assert res.divisors == [2, 4]


def test_snf_zero_matrix():
    assert smith_normal_form([[0]]).divisors == []
    assert smith_normal_form([]).divisors == []


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def check_snf_contract(m):
    res = smith_normal_form(m)
    nr, nc = len(m), len(m[0]) if m else 0
    d = mat_mul(mat_mul(res.left, m), res.right)
    for i in range(nr):
        for j in range(nc):
            want = res.divisors[i] if i == j and i < len(res.divisors) else 0
            assert d[i][j] == want
    assert abs(det_cofactor(res.left)) == 1
    assert abs(det_cofactor(res.right)) == 1
    for a, b in zip(res.divisors, res.divisors[1:]):
        assert b % a == 0 and a > 0


def test_snf_transforms_and_chain_random():
    rng = random.Random(20240811)
    for _ in range(60):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = rand_matrix(rng, nr, nc)
        check_snf_contract(m)


def test_snf_matches_minor_oracle():
    rng = random.Random(4242)
    for _ in range(40):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = rand_matrix(rng, nr, nc, -5, 5)
        assert smith_normal_form(m).divisors == snf_divisors_via_minors(m)


def test_snf_transpose_invariance():
    rng = random.Random(777)
    for _ in range(30):
        nr = rng.randint(1, 8)
        nc = rng.randint(1, 8)
        m = rand_matrix(rng, nr, nc, -6, 6)
        assert smith_normal_form(m).divisors == smith_normal_form(transpose(m)).divisors


def test_snf_divisors_fast_path_agrees():
    rng = random.Random(99)
    for _ in range(60):
        nr = rng.randint(0, 6)
        nc = rng.randint(1, 6)
        m = rand_matrix(rng, nr, nc, -7, 7)
        assert snf_divisors(m) == smith_normal_form(m).divisors
    # sparse-dict input form
    assert snf_divisors([{0: 2, 1: 4}, {0: 6, 1: 8}]) == [2, 4]


def sparse_or_skewed(rng):
    """A random matrix that is mostly zero, or lopsided in shape and in size."""
    if rng.random() < 0.5:
        nr, nc = rng.randint(1, 9), rng.randint(1, 9)
        entries = (0,) * 8 + (-3, -2, -1, 1, 1, 2, 3)
        return [[rng.choice(entries) for _ in range(nc)] for _ in range(nr)]
    nr, nc = rng.choice(((1, 9), (9, 1), (2, 8), (8, 3), (7, 7)))
    # each row and column scaled by its own factor: divisors far from 1
    rows = [rng.choice((1, 2, 6, 30, 210, 10**12)) for _ in range(nr)]
    cols = [rng.choice((1, 3, 35, 2**40)) for _ in range(nc)]
    return [[rng.randint(-2, 2) * r * c for c in cols] for r in rows]


def test_sparse_routes_match_dense_smith_form():
    rng = random.Random(1861)
    nonunit = 0
    for _ in range(150):
        m = sparse_or_skewed(rng)
        divs = smith_normal_form(m).divisors
        sparse = [{j: v for j, v in enumerate(row) if v} for row in m]
        assert snf_divisors(m) == divs, m
        assert snf_divisors(sparse) == divs, m
        h = SparseHermite()
        for row in sparse:
            h.insert(row)
        assert h.rank == len(divs), m
        assert sorted(h.divisors()) == sorted(divs), m
        nonunit += any(d > 1 for d in divs)
    assert nonunit >= 30


# -------------------------------------------------------------- hermite


def span_contains(basis, vec):
    h = SparseHermite()
    for r in basis:
        h.insert(r)
    return h.contains(vec)


def test_hermite_dependent_row():
    basis = hermite_basis([[2, 0], [0, 3], [2, 3]])
    assert basis == [[2, 0], [0, 3]]


def test_hermite_same_lattice():
    m = [[2, 2], [0, 4]]
    basis = hermite_basis(m)
    assert len(basis) == 2
    for v in m:
        assert span_contains(basis, v)
    for v in basis:
        assert span_contains(m, v)


def test_hermite_empty():
    assert hermite_basis([]) == []
    assert hermite_basis([[0, 0, 0]]) == []


def test_hermite_idempotent_and_canonical():
    rng = random.Random(31337)
    for _ in range(40):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        m = rand_matrix(rng, nr, nc, -8, 8)
        b1 = hermite_basis(m)
        assert hermite_basis(b1) == b1
        # shuffling and duplicating generators must not change the output
        rows = [list(r) for r in m] + [list(r) for r in reversed(m)]
        rng.shuffle(rows)
        assert hermite_basis(rows) == b1
        assert len(b1) == len(smith_normal_form(m).divisors)
        # canonical form: positive pivots, entries above a pivot reduced
        pivcols = []
        for row in b1:
            j = next(k for k, v in enumerate(row) if v)
            assert row[j] > 0
            pivcols.append((j, row[j]))
        for i, row in enumerate(b1):
            for j, p in pivcols[i + 1 :]:
                assert 0 <= row[j] < p


# ----------------------------------------------------------------- ranks


def test_rank_over_field_examples():
    m = [[2, 4], [6, 8]]
    assert rank_over_field(m, RATIONALS) == 2  # det -8 != 0
    assert rank_over_field(m, FieldSpec(2)) == 0
    for n in (1, 3, 5):
        assert rank_over_field(identity_matrix(n), FieldSpec(7)) == n
        assert rank_over_field(identity_matrix(n), RATIONALS) == n


def rank_via_minors(m, p):
    """Largest k with a k x k minor nonzero mod p (p = 0: over Q)."""
    nr, nc = len(m), len(m[0]) if m else 0
    rank = 0
    for k in range(1, min(nr, nc) + 1):
        minors = (
            det_cofactor([[m[i][j] for j in cols] for i in rows])
            for rows in itertools.combinations(range(nr), k)
            for cols in itertools.combinations(range(nc), k)
        )
        if any(d % p if p else d for d in minors):
            rank = k
    return rank


def test_rank_drop_iff_prime_divides_divisor():
    rng = random.Random(555)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -6, 6)
        divs = smith_normal_form(m).divisors
        assert rank_over_field(m, RATIONALS) == len(divs) == rank_via_minors(m, 0)
        for p in (2, 3, 5, 7):
            expect = sum(1 for d in divs if d % p)
            assert rank_over_field(m, FieldSpec(p)) == expect == rank_via_minors(m, p)


# ---------------------------------------------------- quotient invariants


def subgroup_order_mod(gens, ambient, n):
    """Order of the subgroup of (Z/n)^ambient generated by gens (BFS closure)."""
    seen = {(0,) * ambient}
    frontier = [(0,) * ambient]
    gvecs = [tuple(v % n for v in g) for g in gens]
    while frontier:
        cur = frontier.pop()
        for g in gvecs:
            nxt = tuple((a + b) % n for a, b in zip(cur, g))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen)


def cokernel_oracle_check(ambient, gens, inv):
    """Verify invariants against minor-rank + subgroup enumeration."""
    m = [list(g) for g in gens if any(g)]
    if not m:
        assert inv == AbelianInvariants(ambient, ())
        return
    rank = 0
    for k in range(1, min(len(m), ambient) + 1):
        if minors_gcd(m, k) != 0:
            rank = k
    assert inv.free_rank == ambient - rank
    n = minors_gcd(m, rank)  # product of all divisors, up to sign
    if n == 1:
        assert inv.torsion_factors == ()
        return
    if n > 40:
        return  # enumeration oracle kept to small groups
    order = subgroup_order_mod(m, ambient, n)
    torsion_order = 1
    for d in inv.torsion_factors:
        torsion_order *= d
    # |coker x Z/n| = n^ambient / |subgroup| = n^free * prod(torsion)
    assert n**ambient // order == n**inv.free_rank * torsion_order


def test_quotient_invariants_examples():
    inv = quotient_invariants(2, [[2, 0]])
    assert inv == AbelianInvariants(1, (2,))
    cokernel_oracle_check(2, [[2, 0]], inv)

    for n in (1, 2, 4):
        inv = quotient_invariants(n, identity_matrix(n))
        assert inv == AbelianInvariants(0, ())

    inv = quotient_invariants(2, [[2, 4], [6, 8]])
    assert inv == AbelianInvariants(0, (2, 4))
    cokernel_oracle_check(2, [[2, 4], [6, 8]], inv)


def test_quotient_invariants_random_against_enumeration():
    rng = random.Random(140914)
    for _ in range(80):
        ambient = rng.randint(1, 3)
        nr = rng.randint(0, 4)
        gens = rand_matrix(rng, nr, ambient, -4, 4)
        inv = quotient_invariants(ambient, gens)
        cokernel_oracle_check(ambient, gens, inv)


def test_quotient_invariants_column_mismatch():
    with pytest.raises(InputError):
        quotient_invariants(3, [[1, 2]])


# ------------------------------------------------------------- utilities


def test_sparse_hermite_membership_and_coordinates():
    h = SparseHermite()
    h.insert([2, 0, 1])
    h.insert([0, 3, 0])
    assert h.contains([2, 3, 1])
    assert h.contains([4, -3, 2])
    assert not h.contains([1, 0, 0])
    coords = h.coordinates({0: 4, 1: -3, 2: 2})
    rebuilt = {}
    for piv, q in coords.items():
        for c, v in h.pivots[piv].items():
            rebuilt[c] = rebuilt.get(c, 0) + q * v
    assert {k: v for k, v in rebuilt.items() if v} == {0: 4, 1: -3, 2: 2}


def test_sparse_hermite_stores_no_zero_entries():
    # xgcd(2, 1) = (1, 0, 1): the new pivot row is 0 * {0: 2, 1: 1} + {0: 1},
    # which must not keep a zero at column 1
    h = SparseHermite()
    h.insert({0: 2, 1: 1})
    h.insert({0: 1})
    assert all(v for row in h.pivots.values() for v in row.values()), h.pivots
    direct = SparseHermite()
    direct.insert({0: 1})
    direct.insert({1: 1})
    for lat in (h, direct):
        lat.canonicalize()
    assert h.pivots == direct.pivots == {0: {0: 1}, 1: {1: 1}}
