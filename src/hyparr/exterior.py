"""Integral exterior algebra on the hyperplane index set.

Elements live in a fixed degree and are stored as a map from strictly
increasing index tuples to nonzero integer coefficients.  The canonical
monomial e_C is the one with ascending indices; any other presentation of
the same index set carries the sign of the sorting permutation.  All
coordinate matrices elsewhere in the package are written in the
lexicographic order of the q-sets, a package-wide contract kept by
:func:`basis`, :func:`column` and ``osalgebra._columns``.
"""

from __future__ import annotations

import itertools
from math import comb

from .errors import InputError

Terms = dict[tuple[int, ...], int]


class ExteriorElement:
    """Homogeneous element of the exterior algebra over Z."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: Terms | None = None):
        self.degree = degree
        clean: Terms = {}
        for tup, c in (terms or {}).items():
            if not c:
                continue
            if len(tup) != degree:
                raise InputError(f"term {tup} has length {len(tup)}, degree is {degree}")
            if any(a >= b for a, b in zip(tup, tup[1:])):
                raise InputError(f"term {tup} is not strictly increasing")
            clean[tup] = c
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExteriorElement)
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "ExteriorElement") -> "ExteriorElement":
        if self.degree != other.degree:
            raise InputError("cannot add elements of different degrees")
        terms = dict(self.terms)
        for tup, c in other.terms.items():
            nc = terms.get(tup, 0) + c
            if nc:
                terms[tup] = nc
            else:
                terms.pop(tup, None)
        return ExteriorElement(self.degree, terms)

    def __sub__(self, other: "ExteriorElement") -> "ExteriorElement":
        return self + other.scale(-1)

    def __neg__(self) -> "ExteriorElement":
        return self.scale(-1)

    def scale(self, c: int) -> "ExteriorElement":
        if not c:
            return ExteriorElement(self.degree)
        return ExteriorElement(self.degree, {t: c * v for t, v in self.terms.items()})

    def coordinates(self, n: int) -> list[int]:
        """Dense coordinate vector in the basis(n, degree) order."""
        sparse = self.sparse_coordinates(n)
        out = [0] * comb(n, self.degree)
        for k, c in sparse.items():
            out[k] = c
        return out

    def sparse_coordinates(self, n: int) -> dict[int, int]:
        _check_degree(n, self.degree)
        return {column(tup, n): c for tup, c in self.terms.items()}

    def __repr__(self) -> str:
        if not self.terms:
            return f"ExteriorElement({self.degree}, 0)"
        bits = []
        for tup in sorted(self.terms):
            c = self.terms[tup]
            name = "e" + "".join(f"_{i}" for i in tup) if tup else "1"
            bits.append(f"{c:+d}*{name}")
        return " ".join(bits)


def zero(degree: int) -> ExteriorElement:
    return ExteriorElement(degree)


def one() -> ExteriorElement:
    return ExteriorElement(0, {(): 1})


def monomial(indices, coeff: int = 1) -> ExteriorElement:
    """e_C for an index collection, sorted into canonical order with sign."""
    seq = list(indices)
    if len(set(seq)) != len(seq):
        return ExteriorElement(len(seq))
    sign = 1
    # insertion sort, counting transpositions
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    return ExteriorElement(len(seq), {tuple(seq): sign * coeff})


def generator(i: int) -> ExteriorElement:
    return ExteriorElement(1, {(i,): 1})


def _merge_sign(s: tuple[int, ...], t: tuple[int, ...]) -> int:
    """Sign of sorting the concatenation s+t of disjoint ascending tuples."""
    inversions = 0
    for a in s:
        for b in t:
            if a > b:
                inversions += 1
    return -1 if inversions % 2 else 1


def wedge(u: ExteriorElement, v: ExteriorElement) -> ExteriorElement:
    """Bilinear wedge product; e_S ^ e_T = sign * e_{S u T} on disjoint tuples."""
    out: Terms = {}
    for s, cs in u.terms.items():
        sset = set(s)
        for t, ct in v.terms.items():
            if sset.intersection(t):
                continue
            merged = tuple(sorted(s + t))
            c = _merge_sign(s, t) * cs * ct
            nc = out.get(merged, 0) + c
            if nc:
                out[merged] = nc
            else:
                out.pop(merged, None)
    return ExteriorElement(u.degree + v.degree, out)


def delta(u: ExteriorElement) -> ExteriorElement:
    """The degree -1 derivation with delta(e_i) = 1; satisfies delta^2 = 0.

    On a canonical monomial: delta(e_{i1..iq}) = sum_k (-1)^(k-1) e_{..^ik..}.
    The result always sits in degree one lower, so delta of a degree-0
    element is the zero of degree -1.
    """
    if u.degree == 0:
        return ExteriorElement(-1)
    out: Terms = {}
    for tup, c in u.terms.items():
        sign = 1
        for k in range(len(tup)):
            sub = tup[:k] + tup[k + 1 :]
            nc = out.get(sub, 0) + sign * c
            if nc:
                out[sub] = nc
            else:
                out.pop(sub, None)
            sign = -sign
    return ExteriorElement(u.degree - 1, out)


def _check_degree(n: int, q: int) -> None:
    if q < 0 or q > n:
        raise InputError(f"degree {q} out of range for {n} generators")


def basis(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """All C(n, q) ascending q-tuples on {0..n-1}, lexicographically ordered.

    This order fixes the columns of every coordinate matrix in the package.
    """
    _check_degree(n, q)
    return tuple(itertools.combinations(range(n), q))


def column(t: tuple[int, ...], n: int) -> int:
    """The position of the ascending tuple t in basis(n, len(t)).

    The q-sets after t are counted by their first entry that exceeds t's:
    C(n-1-t_j, q-j) of them differ first at position j (j from 0).  A
    tuple longer than n has an index outside 0..n-1.
    """
    q = len(t)
    if t and (t[0] < 0 or t[-1] >= n):
        raise InputError(f"term {t} has an index outside 0..{n - 1} for {n} generators")
    return comb(n, q) - 1 - sum(comb(n - 1 - x, q - j) for j, x in enumerate(t))
