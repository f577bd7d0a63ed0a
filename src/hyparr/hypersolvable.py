"""Hypersolvable and supersolvable classification.

A composition series is an ascending chain of sub-arrangements starting at
a single hyperplane, where each step B inside T is a *solvable extension*:
writing D = T minus B,

  (I)   closedness: no d in D is collinear with two distinct members of B;
  (II)  completeness: every pair d != d' in D is collinear with some
        (then unique) f(d, d') in B;
  (III) solvability: for distinct d, d', d'' in D the three values of f
        either coincide or are three distinct hyperplanes of rank 2.

Collinearity means rank {x, y, z} = 2, so everything reads one table,
``Arrangement.pair_closures``: ``line[a][b]`` is the int mask of the
rank-2 closure of {a, b}, computed once per arrangement.  Sets of
hyperplanes are int masks too.  ``solvable_extension_check`` tests (I)
with ``_unclosed``; it and the search share ``_f`` and ``_solvable`` for
(II) and (III).  The search for a series backtracks over the closed
extension sets, smallest first, and memoizes dead states; absence of a
series is therefore exhaustive.

The search decides (I) without building an unclosed state, by this
lemma.  Let s be nonempty and closed in the whole arrangement, d a
hyperplane outside it, and need_s(d) = (OR over x in s of line[d][x])
minus s.  For a D outside s that meets (II), s + D is closed in the whole
arrangement iff need_s(d) lies in D for every d in D.  Closed means that
every line through two members of s + D stays inside it; take the pairs
in three cases:
  - a pair inside s: s is closed;
  - a pair x in s, d in D: line[x][d] minus s lies in need_s(d), and
    need_s(d) is the union of these, which gives the converse too;
  - a pair d, d' in D: line[d][d'] = line[d][f(d, d')], and f(d, d') is in
    s, so the previous case covers it.
Moreover e != d lies in need_s(d) exactly when line[d][e] meets s, that is
when f(d, e) exists, so (II) says D lies in need_s(d) for each d in D.
Together: D is a closed extension meeting (II) iff D = need_s(d) for every
d in D.  The candidates are therefore the sets need_s(d) on which need_s
is constant, at most one per hyperplane and pairwise disjoint, and only
(III) is left to test.

``composition_series`` and ``classify`` are ``arrangement.memo``
functions: each runs once per arrangement, and a None series is stored
too, so the search-worker filter, ``classify`` and ``is_supersolvable``
share one search.

The exponent product identity prod(1 + d_i t) = Hilbert(Lambda / I_2) over
the rationals is enforced for every series found, which guards conditions
(I)-(III) against mis-statement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .arrangement import Arrangement, _indices, memo
from .errors import InputError, InternalInvariantViolation
from .intlinalg import RATIONALS
from .osalgebra import hilbert


@dataclass
class CompositionSeries:
    chain: list[tuple[int, ...]]  # ascending index sets, first of size 1
    exponents: list[int]  # d_0 = 1 for the initial singleton, then step sizes

    @property
    def length(self) -> int:
        return len(self.chain)


@dataclass
class Classification:
    hypersolvable: bool
    supersolvable: bool
    series: Optional[CompositionSeries]
    p: Optional[int]  # None = infinite (ranks of A and Abar agree everywhere)
    r: int
    c: Optional[int]  # None = independent arrangement
    two_generic: Optional[bool]
    p_raw: bool  # p reported as the raw sup although not hypersolvable


def _unclosed(line: list[list[int]], s: int, whole: int) -> Optional[tuple[int, int, int]]:
    """Condition (I): every line through two members of s stays inside s.

    Only hyperplanes of ``whole`` count.  Returns None when s is closed, else
    the first (d, x, y): d outside s on the line through x != y in s.
    """
    inside = _indices(s)
    for d in _indices(whole & ~s):
        for x in inside:
            others = line[d][x] & s & ~(1 << x)
            if others:
                return d, x, _indices(others)[0]
    return None


def _f(line: list[list[int]], s: int, d: int, d2: int) -> Optional[int]:
    """f(d, d2): the member of s on the line through d and d2, None if none.

    Unique once s is closed, since two members would put d on their line.
    """
    hits = line[d][d2] & s
    if hits & (hits - 1):
        raise InternalInvariantViolation(
            f"f({d},{d2}) not unique although closedness held: {_indices(hits)}"
        )
    return hits.bit_length() - 1 if hits else None


def _solvable(line: list[list[int]], f1: int, f2: int, f3: int) -> bool:
    """Condition (III) for one triple of f values: all equal, or three
    distinct hyperplanes on one line."""
    if f1 == f2 == f3:
        return True
    return f3 != f1 and f3 != f2 and bool(line[f1][f2] >> f3 & 1)


def solvable_extension_check(
    a: Arrangement,
    b,
    within=None,
) -> tuple[bool, Optional[tuple[str, tuple[int, ...]]]]:
    """Check conditions (I)-(III) for the extension b inside ``within``.

    ``within`` defaults to the whole arrangement.  Returns (True, None) or
    (False, (condition_name, witnessing hyperplane indices)).  An index
    outside the arrangement raises InputError.
    """
    whole = (1 << a.n) - 1 if within is None else a._checked_mask(within)
    s = a._checked_mask(b)
    if not s or s & ~whole or s == whole:
        raise InputError("b must be a nonempty proper subset of the ambient set")
    line = a.pair_closures()
    bad = _unclosed(line, s, whole)
    if bad is not None:
        return False, ("closedness", bad)
    rest = _indices(whole & ~s)
    f: dict[tuple[int, int], int] = {}
    for d, d2 in itertools.combinations(rest, 2):
        f[d, d2] = _f(line, s, d, d2)
        if f[d, d2] is None:
            return False, ("completeness", (d, d2))
    for d, d2, d3 in itertools.combinations(rest, 3):
        if not _solvable(line, f[d, d2], f[d2, d3], f[d, d3]):
            return False, ("solvability", (d, d2, d3))
    return True, None


@memo
def composition_series(a: Arrangement) -> Optional[CompositionSeries]:
    """A hypersolvable composition series, or None when none exists.

    The backtracking starts from each singleton in turn and explores the
    closed extensions of a state smallest first, in a deterministic order,
    memoizing dead states, so the first series found is canonical and a
    None answer is an exhaustive proof of absence.  Closedness is
    transitive along solvable extensions, so a state not closed in the
    whole arrangement can never finish a chain; by the lemma in the module
    docstring the search lists only closed children and never tests one
    after building it.
    """
    n = a.n
    if n == 0:
        return CompositionSeries([], [])
    line = a.pair_closures()
    full = (1 << n) - 1
    dead: set[int] = set()
    for start in range(n):
        masks = _extend(line, full, dead, 1 << start, [1 << start])
        if masks is not None:
            chain = [_indices(m) for m in masks]
            exps = [1] + [len(chain[k + 1]) - len(chain[k]) for k in range(len(chain) - 1)]
            if sum(exps) != n:
                raise InternalInvariantViolation(f"exponents {exps} do not sum to {n}")
            return CompositionSeries(chain, exps)
    return None


def _extend(
    line: list[list[int]], full: int, dead: set[int], s: int, chain: list[int]
) -> Optional[list[int]]:
    """The first chain of solvable extensions from s to ``full``, or None.

    s is closed in the whole arrangement: a singleton is, and every child
    comes from ``_closed_extensions``, which applies the lemma of the
    module docstring (pairs inside s, pairs across s and D, pairs inside
    D).  States that cannot finish a chain are added to ``dead``.
    """
    if s == full:
        return chain
    if s in dead:
        return None
    for dset in _closed_extensions(line, s, full):
        t = s | dset
        got = _extend(line, full, dead, t, chain + [t])
        if got is not None:
            return got
    dead.add(s)
    return None


def _closed_extensions(line: list[list[int]], s: int, full: int) -> list[int]:
    """Every solvable extension D of the nonempty closed state s with s + D
    closed in ``full``, as masks sorted by size then indices.

    By the lemma these are the sets need_s(d) on which need_s is constant
    and which meet (III).  They are pairwise disjoint, so comparing their
    indices compares their lowest members.  Membership is symmetric (e in
    need_s(d) iff line[d][e] meets s iff d in need_s(e)), so a member e of
    a failing need_s(d) is in no extension either: one would be need_s(e),
    which holds d and so would have to equal need_s(d).
    """
    inside = _indices(s)
    out = []
    todo = full & ~s
    while todo:
        d = (todo & -todo).bit_length() - 1
        dset = _need(line, inside, s, d)
        todo &= ~dset
        if dset != 1 << d:
            members = _indices(dset)
            if any(_need(line, inside, s, e) != dset for e in members if e != d):
                continue
            f = {(x, y): _f(line, s, x, y) for x, y in itertools.combinations(members, 2)}
            if not all(
                _solvable(line, f[x, y], f[x, z], f[y, z])
                for x, y, z in itertools.combinations(members, 3)
            ):
                continue
        out.append(dset)
    out.sort(key=lambda m: (m.bit_count(), m & -m))
    return out


def _need(line: list[list[int]], inside: tuple[int, ...], s: int, d: int) -> int:
    """need_s(d): d and every hyperplane outside s on a line through d and
    a member of s, for s with members ``inside``."""
    row = line[d]
    m = 0
    for x in inside:
        m |= row[x]
    return m & ~s


def _exponent_product(exponents: list[int], upto: int) -> list[int]:
    poly = [1]
    for d in exponents:
        poly = [a + d * b for a, b in zip(poly + [0], [0] + poly)]
    poly += [0] * (upto + 1 - len(poly))
    return poly[: upto + 1]


def p_order(a: Arrangement) -> Optional[int]:
    """Largest s with rank A^t = rank Abar^t for all t <= s; None if all agree.

    rank A^t is the Whitney number b_t (``hilbert(a, "A", Q)``) and rank
    Abar^t comes from the Groebner basis series ``hilbert(a, "Abar", Q)``;
    no ideal lattice is built.  The homotopy reading requires a
    hypersolvable arrangement; the raw sup is computed regardless and
    flagged by classify().
    """
    ha = hilbert(a, "A", RATIONALS).coefficients
    habar = hilbert(a, "Abar", RATIONALS).coefficients
    for t, (ca, cabar) in enumerate(zip(ha, habar)):
        if ca != cabar:
            return t - 1
    return None


def is_supersolvable(a: Arrangement) -> bool:
    """Two oracles: a maximal modular chain, and (when hypersolvable)
    Hilbert(A) = Hilbert(Abar).  They must agree."""
    modular = a.intersection_lattice().has_modular_chain()
    series = composition_series(a)
    if series is None:
        if modular:
            raise InternalInvariantViolation(
                "modular chain exists but no composition series was found"
            )
        return False
    hilbert_eq = p_order(a) is None  # equality of ranks in every degree
    if hilbert_eq != modular:
        raise InternalInvariantViolation(
            f"supersolvable oracles disagree: hilbert equality {hilbert_eq}, "
            f"modular chain {modular}"
        )
    return hilbert_eq


@memo
def classify(a: Arrangement) -> Classification:
    """Full classification with every cross-check the type invariants demand.

    Computed once per arrangement; repeat calls return the stored result.
    """
    series = composition_series(a)
    hypersolvable = series is not None
    supersolvable = is_supersolvable(a)
    p = p_order(a)
    r = a.rank()
    c, two_generic = a.c_and_genericity()

    if supersolvable and not hypersolvable:
        raise InternalInvariantViolation("supersolvable must imply hypersolvable")
    if hypersolvable:
        product = _exponent_product(series.exponents, a.n)
        habar = list(hilbert(a, "Abar", RATIONALS).coefficients)
        if product != habar:
            raise InternalInvariantViolation(
                f"exponent product {product} != quadratic Hilbert {habar}"
            )
        infinite = p is None
        length_matches = series.length == r
        if not (supersolvable == infinite == length_matches):
            raise InternalInvariantViolation(
                f"supersolvable={supersolvable}, p infinite={infinite}, "
                f"series length==rank={length_matches} must all agree"
            )
        if not supersolvable and not (p is not None and 2 <= p < r):
            raise InternalInvariantViolation(
                f"hypersolvable non-supersolvable needs 2 <= p < r, got p={p}, r={r}"
            )
    return Classification(
        hypersolvable=hypersolvable,
        supersolvable=supersolvable,
        series=series,
        p=p,
        r=r,
        c=c,
        two_generic=two_generic,
        p_raw=not hypersolvable,
    )
