"""Exterior algebra: anticommutativity, the derivation, and its identities."""

import itertools
import random
from math import comb

import pytest

from hyparr.arrangement import _mask, build
from hyparr.errors import InputError
from hyparr.exterior import (
    ExteriorElement,
    basis,
    column,
    delta,
    generator,
    monomial,
    one,
    wedge,
    zero,
)
from hyparr.osalgebra import _columns


def from_coordinates(n, q, vector):
    """Inverse of ExteriorElement.coordinates for the basis(n, q) order."""
    mons = basis(n, q)
    items = vector.items() if isinstance(vector, dict) else enumerate(vector)
    return ExteriorElement(q, {mons[k]: c for k, c in items if c})


def rand_element(rng, n, q, nterms=3, lo=-4, hi=4):
    terms = {}
    mons = basis(n, q)
    for _ in range(nterms):
        tup = mons[rng.randrange(len(mons))]
        c = rng.randint(lo, hi)
        if c:
            terms[tup] = terms.get(tup, 0) + c
    return ExteriorElement(q, {t: c for t, c in terms.items() if c})


def test_wedge_anticommutativity():
    e1, e2 = generator(1), generator(2)
    assert wedge(e1, e2) == ExteriorElement(2, {(1, 2): 1})
    assert wedge(e2, e1) == ExteriorElement(2, {(1, 2): -1})


def test_wedge_nilpotent():
    e1 = generator(1)
    assert wedge(e1, e1).is_zero()


def test_wedge_bilinearity():
    e1, e2, e3 = generator(1), generator(2), generator(3)
    got = wedge(e1 + e2, e3)
    assert got == ExteriorElement(2, {(1, 3): 1, (2, 3): 1})


def test_monomial_sign_normalization():
    assert monomial([2, 1]) == ExteriorElement(2, {(1, 2): -1})
    assert monomial([2, 0, 1]) == ExteriorElement(3, {(0, 1, 2): 1})
    assert monomial([1, 1]).is_zero()


def test_delta_generator_is_one():
    assert delta(generator(1)) == one()


def test_delta_on_monomials():
    # delta(e_12) = e_2 - e_1, forced by the derivation formula
    assert delta(monomial([1, 2])) == ExteriorElement(1, {(2,): 1, (1,): -1})
    # delta(e_123) = e_23 - e_13 + e_12
    got = delta(monomial([1, 2, 3]))
    assert got == ExteriorElement(2, {(2, 3): 1, (1, 3): -1, (1, 2): 1})


def test_delta_on_degree_zero():
    assert delta(one()).is_zero()
    assert delta(zero(0)).is_zero()


def test_basis_order_and_sizes():
    assert basis(3, 2) == ((0, 1), (0, 2), (1, 2))
    assert basis(6, 0) == ((),)
    assert len(basis(6, 3)) == 20
    assert list(basis(5, 2)) == sorted(basis(5, 2))
    with pytest.raises(InputError):
        basis(3, 4)
    # column ranks a tuple and the ideal layer's mask table numbers the
    # q-sets in the same order
    for n in range(9):
        for q in range(n + 1):
            assert [column(t, n) for t in basis(n, q)] == list(range(comb(n, q)))
    for n in range(1, 9):
        arr = build(n, [[int(i == j) for j in range(n)] for i in range(n)])
        for q in range(n + 1):
            assert list(_columns(arr, q)) == [_mask(t) for t in basis(n, q)]


def test_coordinates_reject_indices_and_degrees_out_of_range():
    with pytest.raises(InputError, match=r"\(0, 5\).*3 generators"):
        monomial((0, 5)).coordinates(3)
    with pytest.raises(InputError, match=r"\(-1, 0\)"):
        monomial((-1, 0)).sparse_coordinates(3)
    with pytest.raises(InputError, match="degree 4 out of range"):
        ExteriorElement(4).coordinates(3)
    with pytest.raises(InputError, match="degree -1 out of range"):
        delta(one()).coordinates(3)


def test_coordinates_roundtrip():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 6)
        q = rng.randint(0, n)
        u = rand_element(rng, n, q)
        assert from_coordinates(n, q, u.coordinates(n)) == u
        assert from_coordinates(n, q, u.sparse_coordinates(n)) == u


def test_delta_squared_is_zero():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 7)
        q = rng.randint(0, n)
        u = rand_element(rng, n, q)
        assert delta(delta(u)).is_zero()


def test_graded_leibniz():
    rng = random.Random(123)
    for _ in range(60):
        n = rng.randint(2, 7)
        qu = rng.randint(0, n)
        qv = rng.randint(0, n - 0)
        u = rand_element(rng, n, qu)
        v = rand_element(rng, n, qv)
        lhs = delta(wedge(u, v))
        sign = -1 if qu % 2 else 1
        rhs = wedge(delta(u), v) + wedge(u, delta(v)).scale(sign)
        assert lhs == rhs


def test_wedge_associative_and_graded_commutative():
    rng = random.Random(321)
    for _ in range(40):
        n = rng.randint(2, 6)
        qu, qv, qw = (rng.randint(0, 2) for _ in range(3))
        u = rand_element(rng, n, qu)
        v = rand_element(rng, n, qv)
        w = rand_element(rng, n, qw)
        assert wedge(wedge(u, v), w) == wedge(u, wedge(v, w))
        sign = -1 if (qu * qv) % 2 else 1
        assert wedge(u, v) == wedge(v, u).scale(sign)


def test_wedge_against_permutation_sign_oracle():
    # brute-force sign: number of inversions of the concatenation
    def sign_oracle(perm):
        s = 1
        for i, j in itertools.combinations(range(len(perm)), 2):
            if perm[i] > perm[j]:
                s = -s
        return s

    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 8)
        qa = rng.randint(1, n - 1)
        pool = list(range(n))
        rng.shuffle(pool)
        sa, sb = sorted(pool[:qa]), sorted(pool[qa : qa + rng.randint(1, n - qa)])
        got = wedge(monomial(sa), monomial(sb))
        expect = sign_oracle(tuple(sa + sb))
        assert got == ExteriorElement(len(sa) + len(sb), {tuple(sorted(sa + sb)): expect})
