"""Hypersolvable and supersolvable classification.

A composition series is an ascending chain of sub-arrangements starting at
a single hyperplane, where each step B inside T is a *solvable extension*:
writing D = T minus B,

  (I)   closedness: no d in D is collinear with two distinct members of B;
  (II)  completeness: every pair d != d' in D is collinear with some
        (then unique) f(d, d') in B;
  (III) solvability: for distinct d, d', d'' in D the three values of f
        either coincide or are three distinct hyperplanes of rank 2.

Collinearity means rank {x, y, z} = 2, so everything is driven by the
rank-2 closures of pairs, computed once per arrangement.  The search for a
series backtracks over candidate extension sets, smallest first, and
memoizes dead states; absence of a series is therefore exhaustive.

The exponent product identity prod(1 + d_i t) = Hilbert(Lambda / I_2) over
the rationals is enforced for every series found, which guards conditions
(I)-(III) against mis-statement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .arrangement import Arrangement
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


def solvable_extension_check(
    a: Arrangement,
    b,
    within=None,
) -> tuple[bool, Optional[tuple[str, tuple[int, ...]]]]:
    """Check conditions (I)-(III) for the extension b inside ``within``.

    ``within`` defaults to the whole arrangement.  Returns (True, None) or
    (False, (condition_name, witnessing hyperplane indices)).
    """
    whole = frozenset(range(a.n)) if within is None else frozenset(within)
    bset = frozenset(b)
    if not bset or not bset < whole:
        raise InputError("b must be a nonempty proper subset of the ambient set")
    cl2 = a.pair_closures()
    rest = sorted(whole - bset)

    for d in rest:
        for s in sorted(bset):
            partners = cl2[frozenset((d, s))] & bset - {s}
            if partners:
                return False, ("closedness", (d, s, min(partners)))

    f: dict[tuple[int, int], int] = {}
    for d, d2 in itertools.combinations(rest, 2):
        hits = cl2[frozenset((d, d2))] & bset
        if not hits:
            return False, ("completeness", (d, d2))
        if len(hits) > 1:
            raise InternalInvariantViolation(
                f"f({d},{d2}) not unique although closedness held: {sorted(hits)}"
            )
        f[(d, d2)] = next(iter(hits))

    for d, d2, d3 in itertools.combinations(rest, 3):
        v = (f[(d, d2)], f[(d2, d3)], f[(d, d3)])
        if v[0] == v[1] == v[2]:
            continue
        if len(set(v)) == 3 and a._rank(frozenset(v)) == 2:
            continue
        return False, ("solvability", (d, d2, d3))
    return True, None


def _extension_candidates(a: Arrangement, s: frozenset[int]) -> list[tuple[int, ...]]:
    """All valid extension sets D for state s, sorted by size then lex."""
    cl2 = a.pair_closures()
    n = a.n
    addable = []
    for d in range(n):
        if d in s:
            continue
        if all(not (cl2[frozenset((d, x))] & s - {x}) for x in s):
            addable.append(d)
    if not addable:
        return []
    pos = {d: k for k, d in enumerate(addable)}
    compat = {d: set() for d in addable}
    fval: dict[tuple[int, int], int] = {}
    for d, d2 in itertools.combinations(addable, 2):
        hits = cl2[frozenset((d, d2))] & s
        if hits:
            if len(hits) > 1:
                raise InternalInvariantViolation(
                    f"non-unique f({d},{d2}) on addable pair: {sorted(hits)}"
                )
            compat[d].add(d2)
            compat[d2].add(d)
            fval[(d, d2)] = next(iter(hits))

    cliques: list[tuple[int, ...]] = []

    def grow(current: list[int], allowed: list[int]) -> None:
        cliques.append(tuple(current))
        for k, d in enumerate(allowed):
            nxt = [x for x in allowed[k + 1 :] if x in compat[d]]
            grow(current + [d], nxt)

    for k, d in enumerate(addable):
        grow([d], [x for x in addable[k + 1 :] if x in compat[d]])

    def solvable(dset: tuple[int, ...]) -> bool:
        for t in itertools.combinations(dset, 3):
            v = (fval[(t[0], t[1])], fval[(t[1], t[2])], fval[(t[0], t[2])])
            if v[0] == v[1] == v[2]:
                continue
            if len(set(v)) == 3 and a._rank(frozenset(v)) == 2:
                continue
            return False
        return True

    out = [d for d in cliques if solvable(d)]
    out.sort(key=lambda d: (len(d), d))
    return out


def composition_series(a: Arrangement) -> Optional[CompositionSeries]:
    """A hypersolvable composition series, or None when none exists.

    The backtracking explores minimal extensions first with a deterministic
    order, and memoizes dead states, so the first series found is canonical
    and a None answer is an exhaustive proof of absence.
    """
    hit = a.cache.get("composition_series", "missing")
    if hit != "missing":
        return hit
    n = a.n
    result: Optional[CompositionSeries] = None
    if n == 0:
        result = CompositionSeries([], [])
    elif n == 1:
        result = CompositionSeries([(0,)], [1])
    else:
        dead: set[frozenset[int]] = set()
        full = frozenset(range(n))
        cl2 = a.pair_closures()

        def closed_in_full(s: frozenset[int]) -> bool:
            # closedness is transitive along solvable extensions, so any
            # state not closed in the whole arrangement can never finish a
            # chain and is dead on arrival
            for d in range(n):
                if d in s:
                    continue
                for x in s:
                    if cl2[frozenset((d, x))] & s - {x}:
                        return False
            return True

        def extend(s: frozenset[int], chain: list[tuple[int, ...]]):
            if s == full:
                return chain
            if s in dead:
                return None
            if not closed_in_full(s):
                dead.add(s)
                return None
            for d in _extension_candidates(a, s):
                t = s | set(d)
                got = extend(t, chain + [tuple(sorted(t))])
                if got is not None:
                    return got
            dead.add(s)
            return None

        for start in range(n):
            chain = extend(frozenset((start,)), [(start,)])
            if chain is not None:
                exps = [1] + [
                    len(chain[k + 1]) - len(chain[k]) for k in range(len(chain) - 1)
                ]
                result = CompositionSeries(chain, exps)
                break
    if result is not None and sum(result.exponents) != n:
        raise InternalInvariantViolation(
            f"exponents {result.exponents} do not sum to {n}"
        )
    a.cache["composition_series"] = result
    return result


def _exponent_product(exponents: list[int], upto: int) -> list[int]:
    poly = [1]
    for d in exponents:
        poly = [a + d * b for a, b in zip(poly + [0], [0] + poly)]
    poly += [0] * (upto + 1 - len(poly))
    return poly[: upto + 1]


def p_order(a: Arrangement) -> Optional[int]:
    """Largest s with rank A^t = rank Abar^t for all t <= s; None if all agree.

    Both quotients are generated in degree 1, so once both vanish in one
    degree they vanish in all higher ones and the scan can stop.  The
    homotopy reading requires a hypersolvable arrangement; the raw sup is
    computed regardless and flagged by classify().
    """
    from math import comb

    from .osalgebra import IdealKind, ideal_lattice

    for t in range(a.n + 1):
        ca = comb(a.n, t) - ideal_lattice(a, IdealKind.FULL, t).rank
        cq = comb(a.n, t) - ideal_lattice(a, IdealKind.QUADRATIC, t).rank
        if ca != cq:
            return t - 1
        if t >= 1 and ca == 0:
            return None
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


def classify(a: Arrangement) -> Classification:
    """Full classification with every cross-check the type invariants demand.

    Computed once per arrangement; repeat calls return the stored result.
    """
    hit = a.cache.get("classification")
    if hit is not None:
        return hit
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
    cls = Classification(
        hypersolvable=hypersolvable,
        supersolvable=supersolvable,
        series=series,
        p=p,
        r=r,
        c=c,
        two_generic=two_generic,
        p_raw=not hypersolvable,
    )
    a.cache["classification"] = cls
    return cls
