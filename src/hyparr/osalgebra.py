"""Orlik-Solomon ideals and their graded quotients over Z and prime fields.

Three ideals of the exterior algebra on the hyperplanes are handled, as
integer lattices degree by degree:

* FULL: the Orlik-Solomon ideal, generated by delta(e_C) over circuits C;
* QUADRATIC: the ideal generated by the degree-2 part of FULL;
* DECOMPOSABLE: products of positive-degree elements with FULL.

The degree-q piece of each is spanned by monomials e_T (T running over the
appropriate dependent sets, since e_c ^ delta(e_C) = +-e_C for c in C)
together with e_S ^ delta(e_C) for S disjoint from C.  Each lattice is kept
as an echelon basis whose pivot is the smallest column of its row:

* FULL is one unit-pivot row per q-set containing a broken circuit (the
  broken circuits lead the Groebner basis {delta(e_C)}), with no
  elimination; the row count is checked against the Whitney numbers of
  the intersection lattice.
* DECOMPOSABLE keeps every FULL row except the delta(e_C) with |C| = q+1
  (F0), and eliminates only M, the lattice of F0-coordinates of the
  products e_S ^ delta(e_C) with S nonempty.
* QUADRATIC is written from a degree-truncated Groebner basis of <I_2>
  over Q (``_abar_groebner``), one product e_M ^ g per q-set holding a
  lead.  When every lead is +-1, as on every input seen so far, the rows
  are unit-triangular and span Q^q exactly; otherwise the generators are
  eliminated.

FULL and DECOMPOSABLE are known without rows, from the circuit walk that
``_full_rows`` records once per degree.  FULL's rank is the count of its
claimed and dependent pivots.  Its basis is unit-triangular, so it has no
invariant factor above 1, Lambda^q / I^q is free, and
I^q / (Lambda+ I)^q = Z^F0 / M: DECOMPOSABLE has rank
rank I^q - |F0| + rank M, and its invariant factors above 1 are M's.
Each ``IdealLattice`` holds that rank and torsion as plain fields, with a
writer for its rows.  Ranks, Hilbert coefficients, the r-table and Aplus
read only the fields; the writer runs when ``IdealLattice.hnf`` is first
read (by mu, IND coordinates, membership, the span check).  M is built with two
exact shortcuts, and only the FULL rows that its coordinates reach are
written:

* a product whose terms are all dependent monomials is skipped: those are
  FULL rows outside F0, so its F0-coordinates are 0;
* the walk stops once M has rank |F0| with unit pivots: M is then Z^F0,
  and no later product changes it.

Below the public API a q-set is an int mask; ``_columns(a, q)`` numbers
the masks in the order of ``exterior.basis`` and dies with the arrangement.

FULL and DECOMPOSABLE above the rank, and QUADRATIC where H(Abar)_q = 0,
fill their degree and are marked saturated.  Every rank, torsion check,
membership test and Hilbert coefficient but those of A (the Whitney
numbers) and Abar reduces to these cached per-degree lattices.
The generator stream behind ``ideal_generators`` is the QUADRATIC
fallback and the spanning family the tests eliminate to check the direct
constructions.

H(Abar) = H(Lambda / <I_2>) is the number of standard monomials of that
Groebner basis, built once per arrangement; it has tens of elements where
the QUADRATIC lattices have hundreds of thousands of columns.  So a
QUADRATIC basis is built only where one is read: the mu map in degrees
p+1 and p+2, the Abar invariants, membership, the public ``ideal_lattice``
and, if a lead is not a unit, Abar over F_p (see ``hilbert``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import partial
from math import comb, gcd

from .arrangement import Arrangement, _mask, memo
from .errors import InputError, InternalInvariantViolation
from .exterior import ExteriorElement
from .intlinalg import (
    AbelianInvariants,
    FieldSpec,
    SparseHermite,
    _row_submul,
    densify,
    prime_factors,
    quotient_invariants,
)


class IdealKind(Enum):
    FULL = "full"
    QUADRATIC = "quadratic"
    DECOMPOSABLE = "decomposable"


QUOTIENTS = ("A", "Abar", "Aplus", "IND")

_KIND_OF_QUOTIENT = {
    "A": IdealKind.FULL,
    "Abar": IdealKind.QUADRATIC,
    "Aplus": IdealKind.DECOMPOSABLE,
}


@dataclass
class GradedIdealPresentation:
    kind: IdealKind
    degree: int
    generator_matrix: list[list[int]]  # rows in basis(n, degree) coordinates


@dataclass(frozen=True)
class HilbertData:
    quotient: str
    field: FieldSpec
    coefficients: tuple[int, ...]  # degrees 0..n


@dataclass(frozen=True)
class RmTable:
    fields: tuple[FieldSpec, ...]
    values: tuple[tuple[int, ...], ...]  # values[m][field index] = r_m
    field_independent: tuple[bool, ...]

    def r(self, m: int, field: FieldSpec) -> int:
        return self.values[m][self.fields.index(field)]


@dataclass(frozen=True)
class SpanCheckReport:
    degree: int
    field: FieldSpec
    onto: bool
    span_dim: int
    target_dim: int
    chordless_count: int
    bijective: bool
    graphic: bool


class IdealLattice:
    """Echelon basis of one ideal in one degree, with lazy invariant factors.

    Plain fields: ``rank``, the invariant factors above 1 (``torsion()``),
    and ``hnf``, the basis.  ``hnf is None`` with no ``write`` marks a
    saturated lattice (all of Z^ncols), with no basis materialized: FULL
    and DECOMPOSABLE above the rank, where every monomial is dependent, and
    QUADRATIC where H(Abar)_q = 0.

    FULL and DECOMPOSABLE up to the rank are built with their rank and
    torsion known and a ``write`` callable instead of rows (see the module
    docstring); the first read of ``hnf`` calls it and keeps the rows.
    QUADRATIC comes with its rows, and its torsion is read off them.
    """

    __slots__ = ("kind", "degree", "ncols", "rank", "_torsion", "_write", "_hnf")

    def __init__(self, kind: IdealKind, degree: int, ncols: int, hnf: SparseHermite | None, *,
                 rank: int | None = None, torsion: list[int] | None = None, write=None):
        self.kind = kind
        self.degree = degree
        self.ncols = ncols
        self.rank = (ncols if hnf is None else hnf.rank) if rank is None else rank
        self._torsion = torsion
        self._write = write
        self._hnf = hnf

    @property
    def saturated(self) -> bool:
        return self._hnf is None and self._write is None

    @property
    def hnf(self) -> SparseHermite | None:
        if self._write is not None:
            self._hnf, self._write = self._write(), None
        return self._hnf

    def torsion(self) -> list[int]:
        """The invariant factors above 1, in divisibility order."""
        if self._torsion is None:
            self._torsion = [] if self._hnf is None else [d for d in self._hnf.divisors() if d > 1]
        return self._torsion

    def divisors(self) -> list[int]:
        torsion = self.torsion()
        return [1] * (self.rank - len(torsion)) + torsion

    def contains(self, row) -> bool:
        return True if self.saturated else self.hnf.contains(row)

    def rank_over(self, field: FieldSpec) -> int:
        p = field.characteristic
        return self.rank - sum(1 for d in self.torsion() if p and not d % p)


def _check_degree(a: Arrangement, q: int) -> None:
    if not 0 <= q <= a.n:
        raise InputError(f"degree {q} out of range 0..{a.n}")


@memo
def _columns(a: Arrangement, q: int) -> dict[int, int]:
    """``{mask: column}`` for the q-sets, in basis(n, q) order.

    The key order is also the inverse map, from column to mask.  The table
    lives in the arrangement's cache and dies with it.
    """
    return {s: col for col, s in enumerate(_subsets(a.n, 0, q))}


def _subsets(n: int, outside: int, k: int):
    """Masks of the k-subsets of {0..n-1} that miss ``outside``, in order.

    Each is a sum of ``itertools.combinations`` of the bit values, which
    come in the lexicographic order of the index tuples.
    """
    bits = [1 << i for i in range(n) if not outside >> i & 1]
    return map(sum, itertools.combinations(bits, k))


def _unit_rows(a: Arrangement, kind: IdealKind, q: int):
    """Monomial generators e_T of the degree-q ideal, as unit rows."""
    n = a.n
    r = a.rank()
    if kind is IdealKind.QUADRATIC:
        masks = [_mask(c) for c in a.circuits(min(3, n))]
        for tm, col in _columns(a, q).items():
            if any(cm & tm == cm for cm in masks):
                yield {col: 1}
    elif q > r:
        for col in range(comb(n, q)):
            yield {col: 1}
    else:
        independent = a.independent_sets(q)
        for tm, col in _columns(a, q).items():
            if tm not in independent:
                yield {col: 1}


def _wedge_sign(m: int, t: int) -> int:
    """The sign of e_M ^ e_T = +-e_(M+T) for disjoint masks M and T.

    A monomial multiplies its generators in ascending bit order.
    """
    inv = 0
    while m:
        low = m & -m
        m ^= low
        inv += (t & (low - 1)).bit_count()
    return -1 if inv & 1 else 1


def _spread_row(s: int, circ: int, col_of: dict[int, int]) -> dict[int, int]:
    """Coordinates of e_S ^ delta(e_C) for S disjoint from C, both masks.

    Write e_S ^ e_C = eps e_U with U = S + C.  delta is a graded
    derivation, so the term of e_S ^ delta(e_C) at U - c has the sign
    (-1)^|S| eps times the sign of e_(U-c) in delta(e_U).  The terms are
    distinct, so nothing cancels.
    """
    u = s | circ
    sign = (-1) ** s.bit_count() * _wedge_sign(s, circ)
    row: dict[int, int] = {}
    rest = circ
    while rest:
        low = rest & -rest
        rest ^= low
        row[col_of[u ^ low]] = -sign if (u & (low - 1)).bit_count() % 2 else sign
    return row


def _spread_rows(a: Arrangement, kind: IdealKind, q: int):
    """The generators e_S ^ delta(e_C) with S disjoint from C, by |C|."""
    n = a.n
    if kind is IdealKind.QUADRATIC:
        top = min(3, q + 1)  # |S| = q+1-|C| >= 0
    elif kind is IdealKind.DECOMPOSABLE:
        top = q  # |S| = q+1-|C| >= 1
    else:
        top = q + 1
    col_of = _columns(a, q)
    for c in a.circuits(min(top, n)):  # by size, then lexicographically
        circ = _mask(c)
        for s in _subsets(n, circ, q + 1 - len(c)):
            yield _spread_row(s, circ, col_of)


def _generator_stream(a: Arrangement, kind: IdealKind, q: int):
    """All generator rows of the degree-q ideal: unit rows, then spread rows."""
    yield from _unit_rows(a, kind, q)
    yield from _spread_rows(a, kind, q)


class _FullRows:
    """I^q, q <= rank, as the circuit walk claims it.

    ``dependent``: the columns of the dependent q-sets, whose rows are e_T;
    ``claims``: every other pivot T, in walk order, to the masks (S, C) of
    its row e_S ^ delta(e_C).  Plain data only: it lives in the
    arrangement's cache, and the FULL lattice keeps its ``write``, so a
    reference to the arrangement would make a reference cycle.
    """

    __slots__ = ("degree", "col_of", "dependent", "claims")

    def __init__(self, degree: int, col_of: dict[int, int], dependent: set[int],
                 claims: dict[int, tuple[int, int]]):
        self.degree = degree
        self.col_of = col_of
        self.dependent = dependent
        self.claims = claims

    @property
    def rank(self) -> int:
        return len(self.dependent) + len(self.claims)

    def pivot_columns(self) -> set[int]:
        return self.dependent.union(self.claims)

    def f0(self) -> set[int]:
        """The pivots of the rows delta(e_C) with |C| = q+1: S is empty."""
        return {t for t, (s, _) in self.claims.items() if not s}

    def row(self, t: int) -> dict[int, int] | None:
        """The basis row with pivot t, written now, or None if t is no pivot."""
        claim = self.claims.get(t)
        if claim is None:
            return {t: 1} if t in self.dependent else None
        row = _spread_row(*claim, self.col_of)
        return row if row[t] > 0 else {k: -v for k, v in row.items()}

    def write(self) -> SparseHermite:
        h = SparseHermite()
        h.pivots = {t: {t: 1} for t in sorted(self.dependent)}
        for t in self.claims:
            h.pivots[t] = self.row(t)
        return h


@memo
def _full_rows(a: Arrangement, q: int) -> _FullRows:
    """Unit-triangular basis of the degree-q Orlik-Solomon ideal, q <= rank.

    One row per q-set T containing a broken circuit: e_T when T is
    dependent, otherwise the first e_S ^ delta(e_C) of the circuit walk
    whose smallest column is T, signed so that its pivot is +1.  Circuits
    come by size, then lexicographically; S runs lexicographically over
    the (q+1-|C|)-sets outside C.  The smallest column is T = S + C - max C,
    a broken circuit for the reversed order plus S: every other term swaps
    a smaller element of C for max C.  The rows have unit pivots, so they
    span a saturated lattice inside I^q; {delta(e_C)} is a Groebner basis
    whose leading terms are the broken circuits (Bjorner 1982;
    Bjorner-Ziegler 1991), so there are C(n, q) - b_q rows, the rank of
    I^q, and the lattice is I^q itself.  The count is checked against the
    Whitney numbers of the intersection lattice.  FULL, DECOMPOSABLE's M and
    the QUADRATIC pivot check all read this one record.
    """
    n = a.n
    col_of = _columns(a, q)
    independent = a.independent_sets(q)
    dependent = {col for tm, col in col_of.items() if tm not in independent}
    claims: dict[int, tuple[int, int]] = {}
    for c in a.circuits(min(q + 1, n)):
        circ = _mask(c)
        broken = circ ^ 1 << c[-1]
        for s in _subsets(n, circ, q + 1 - len(c)):
            t = col_of[s | broken]
            if t not in claims and t not in dependent:
                claims[t] = (s, circ)
    full = _FullRows(q, col_of, dependent, claims)
    expected = comb(n, q) - a.betti_mobius()[q]
    if full.rank != expected:
        raise InternalInvariantViolation(
            f"broken-circuit basis of I^{q} has {full.rank} rows, "
            f"but C({n},{q}) - b_{q} = {expected}"
        )
    return full


def _decomposable_basis(full: IdealLattice, f0: set[int], m: SparseHermite) -> SparseHermite:
    """Echelon basis of (Lambda+ I)^q = Lambda^1 ^ I^(q-1), found inside I^q.

    Every row of the full basis lies in Lambda+ I except the rows
    delta(e_C) with |C| = q+1 (F0): monomials e_T are e_(T-C) ^ e_c ^
    delta(e_C) up to sign.  Lambda+ I in degree q is spanned by those rows
    and the products e_S ^ delta(e_C) with S nonempty, so it is the span
    of the rows b_t outside F0 plus the combinations sum m_t b_t (t in F0)
    with m in the lattice M of F0-coordinates of those products.  Only M,
    on |F0| columns, needs an elimination (``_f0_lattice``).
    """
    fp = full.hnf.pivots
    h = SparseHermite()
    # the rows are shared with the full basis; no caller mutates lattice rows
    h.pivots = {t: row for t, row in fp.items() if t not in f0}
    for lead, mrow in m.pivots.items():
        acc: dict[int, int] = {}
        for t, v in mrow.items():
            _row_submul(acc, fp[t], -v)
        h.pivots[lead] = acc
    return h


def _f0_lattice(a: Arrangement, q: int, full: _FullRows, f0: set[int]) -> SparseHermite:
    """M, the lattice of F0-coordinates of the products e_S ^ delta(e_C), S nonempty.

    By the Leibniz rule e_S ^ delta(e_C) = +-delta(e_U) modulo monomials
    of dependent sets, U = S + C, so all products with the same U have
    the same F0-coordinates up to sign, and they vanish when one of them
    is a row of the full basis.  One product per remaining U is read, in
    walk order, with the two shortcuts of the module docstring.
    """
    m = SparseHermite()
    if not f0:
        return m
    n = a.n
    independent = a.independent_sets(q)
    in_basis = {s | circ for s, circ in full.claims.values() if s}
    seen: set[int] = set()
    last = max(f0)
    rows: dict[int, dict[int, int]] = {}  # the FULL rows reached so far
    for c in a.circuits(min(q, n)):
        circ = _mask(c)
        bits = [1 << i for i in c]
        for s in _subsets(n, circ, q + 1 - len(c)):
            u = s | circ
            if u in in_basis or u in seen:
                continue
            seen.add(u)
            if all(u ^ bit not in independent for bit in bits):
                continue  # the terms e_(U-c) are all dependent monomials
            proj = _f0_coordinates(s, circ, full, f0, last, rows)
            if proj and m.insert(proj) and m.rank == len(f0) and m.all_unit_pivots():
                return m
    return m


def _f0_coordinates(s: int, circ: int, full: _FullRows, f0: set[int], last: int,
                    rows: dict[int, dict[int, int]]) -> dict[int, int]:
    """The F0-coordinates of e_S ^ delta(e_C) in the FULL basis.

    Reduction fills only columns to the right, so it stops past the last
    F0 column; each FULL row it reaches is written once, into ``rows``.
    """
    r = _spread_row(s, circ, full.col_of)
    proj: dict[int, int] = {}
    while r:
        t = min(r)
        if t > last:
            break
        piv = rows.get(t)
        if piv is None:
            piv = full.row(t)
            if piv is None:
                raise InternalInvariantViolation(
                    f"e_S ^ delta(e_C) not in I^{full.degree} (stuck at column {t})"
                )
            rows[t] = piv
        if t in f0:
            proj[t] = r[t]
        _row_submul(r, piv, r[t])
    return proj


def _quadratic_basis(a: Arrangement, q: int) -> SparseHermite | None:
    """Echelon basis of the degree-q quadratic ideal Q^q, from the Groebner basis.

    Over Q every lead of the Groebner basis of <I_2> is +-1 in practice.
    Then ``_eliminate`` never scaled a polynomial nor divided out a content,
    so each basis element g is a Z-combination of products e_M ^ delta(e_C)
    and lies in Q.  One row e_(T-L) ^ g per non-standard q-set T, g the
    first element whose lead L lies in T, signed to lead +1, gives a
    unit-triangular family: it spans a saturated lattice inside Q^q of rank
    C(n, q) - H(Abar)_q = rank Q^q, which is therefore Q^q itself.  Where
    H(Abar)_q = 0 (above the rank only) that is all of Z^ncols: None, the
    saturated marker.  A non-unit lead has the generators eliminated in
    every degree, as Z-torsion may survive where H(Abar)_q = 0.

    Q lies in I, so up to the rank every pivot must be a pivot of I^q;
    building I^q also checks b_q, the floor at which a Groebner degree
    stops.
    """
    n = a.n
    series, basis = _abar_groebner(a)
    h = SparseHermite()
    if not _unit_leads(basis):
        for row in _generator_stream(a, IdealKind.QUADRATIC, q):
            h.insert(row)
    elif not series[q]:
        return None
    elif series[q] < comb(n, q):
        # hyperplane i is bit n-1-i in the basis, whose q-set masks come in
        # column order from the combinations of the bits from the top down;
        # reversing the factors of a q-set scales every row by one sign
        bits = [1 << n - 1 - i for i in range(n)]
        col_of = {m: col for col, m in enumerate(map(sum, itertools.combinations(bits, q)))}
        leads = [(lead, g) for lead, g in basis if lead.bit_count() <= q]
        for tm, t in col_of.items():
            for lead, g in leads:
                if lead & tm == lead:
                    prod = _times(tm ^ lead, g)
                    sign = 1 if prod[tm] > 0 else -1
                    h.pivots[t] = {col_of[u]: sign * c for u, c in prod.items()}
                    break
    if q <= a.rank():
        if not h.pivots.keys() <= _full_rows(a, q).pivot_columns():
            raise InternalInvariantViolation(
                f"quadratic ideal in degree {q} has a pivot that I^{q} lacks, but Q lies in I"
            )
    return h


@memo
def ideal_lattice(a: Arrangement, kind: IdealKind, q: int) -> IdealLattice:
    """Echelon basis of the degree-q piece of the chosen ideal, built once."""
    _check_degree(a, q)
    ncols = comb(a.n, q)
    if kind is not IdealKind.QUADRATIC and a.rank() < q:
        # every q-subset is dependent, so the monomials already fill Z^ncols
        return IdealLattice(kind, q, ncols, None)
    if kind is IdealKind.QUADRATIC:
        return IdealLattice(kind, q, ncols, _quadratic_basis(a, q))
    full = _full_rows(a, q)
    if kind is IdealKind.FULL:
        return IdealLattice(kind, q, ncols, None, rank=full.rank, torsion=[], write=full.write)
    # I^q / (Lambda+ I)^q = Z^F0 / M
    f0 = full.f0()
    m = _f0_lattice(a, q, full, f0)
    write = partial(_decomposable_basis, ideal_lattice(a, IdealKind.FULL, q), f0, m)
    return IdealLattice(kind, q, ncols, None, rank=full.rank - len(f0) + m.rank,
                        torsion=[d for d in m.divisors() if d > 1], write=write)


def _times(m: int, g: dict[int, int]) -> dict[int, int]:
    """e_M ^ g."""
    return {t | m: _wedge_sign(m, t) * c for t, c in g.items() if not t & m}


def _unit_leads(basis: list[tuple[int, dict[int, int]]]) -> bool:
    """Is every lead coefficient of the Groebner basis +-1?"""
    return all(g[lead] ** 2 == 1 for lead, g in basis)


def _eliminate(f: dict[int, int], m: int, lead: int, g: dict[int, int]) -> None:
    """Cancel the term at m of f, in place, with a multiple of e_(m-lead) ^ g.

    f is scaled only when g's lead coefficient is not a unit, and then
    loses its content.
    """
    rest = m ^ lead
    x = _wedge_sign(rest, lead) * g[lead]  # the coefficient at m of e_rest ^ g
    y = f[m] * x
    if x * x != 1:
        for t in f:
            f[t] *= x
        y = f[m] // x
    for u, c in _times(rest, g).items():
        v = f.get(u, 0) - y * c
        if v:
            f[u] = v
        else:
            del f[u]
    if x * x != 1 and f:
        c = gcd(*f.values())
        if c > 1:
            for t in f:
                f[t] //= c


def _reduce(f: dict[int, int], basis: list[tuple[int, dict[int, int]]]) -> dict[int, int]:
    """Top-reduce f, in place, until its lead is a multiple of no basis lead."""
    while f:
        m = max(f)
        for lead, g in basis:
            if lead & m == lead:
                _eliminate(f, m, lead, g)
                break
        else:
            break
    return f


def _count_standard(b: int, lo: int, hi: int, alive: list[int]) -> list[int]:
    """Entry k - lo: the k-sets of the bits below b that contain none of the
    masks in alive, for lo <= k <= hi.

    Bits are decided from the top down; a mask stays alive while its
    undecided part still fits in hi bits, and where none is alive the
    completions are counted in closed form.
    """
    if not alive:
        return [comb(b, k) if k >= 0 else 0 for k in range(lo, hi + 1)]
    if lo > b:
        return [0] * (hi - lo + 1)
    b -= 1
    bit = 1 << b
    out = _count_standard(b, lo, hi, [r for r in alive if not r & bit])
    if bit in alive:
        return out
    low = bit - 1
    rest = _count_standard(b, lo - 1, hi - 1, [r & low for r in alive if (r & low).bit_count() < hi])
    return [x + y for x, y in zip(out, rest)]


@memo
def _abar_groebner(a: Arrangement) -> tuple[tuple[int, ...], list[tuple[int, dict[int, int]]]]:
    """H(Lambda / <I_2>) in degrees 0..n over Q, and the basis.

    Both are read off a Groebner basis of <delta(e_C) : |C| = 3>, built
    degree by degree over Q, fraction-free with the content removed, and
    returned as (lead, polynomial) pairs, in the order that they were
    found.  Hyperplane i is bit n-1-i, an algebra isomorphism that carries
    delta(e_C) to +-delta of the relabelled C, and a polynomial's lead, its
    smallest basis(n, q) column, becomes its largest mask.  A degree's
    items are the S-pairs and e_x ^ g for x in lead(g) (Stokes 1990);
    ``_pair`` drops an S-pair by the chain criterion.  The coefficient is
    the number of q-sets containing no lead, and each new lead of degree q
    removes one of them.  in(<I_2>) lies in in(I), whose leads are the sets
    holding a broken circuit (Bjorner-Ziegler 1991), so at least b_q q-sets
    stay standard (b_q = 0 above the rank): a degree stops at that floor,
    and a count below it is a contradiction.  Once no item is queued at or
    above a degree the basis is complete, and one walk counts the standard
    sets of every remaining degree.
    """
    n = a.n
    gens = []
    for c in a.circuits(min(3, n)):  # a circuit has at least 3 members
        hi, mid, lo = (1 << n - 1 - x for x in c)
        gens.append({hi | mid: 1, hi | lo: -1, mid | lo: 1})  # delta(e_C), relabelled
    if not gens:
        return tuple(comb(n, q) for q in range(n + 1)), []  # I_2 = 0
    betti = a.betti_mobius()
    floors = betti + [0] * (n + 1 - len(betti))
    basis: list[tuple[int, dict[int, int]]] = []
    todo: dict[int, list] = {2: gens}
    coeffs = [1, n]
    for d in range(2, n + 1):
        if not todo:
            coeffs += _count_standard(n, d, n, [lead for lead, _ in basis])
            break
        std = _count_standard(n, d, d, [lead for lead, _ in basis])[0]
        items = todo.pop(d, [])
        while std > floors[d] and items:
            f = _pair(basis, items.pop())  # the newest item first
            if f is None or not _reduce(f, basis):
                continue
            lead = max(f)
            for i, (other, _) in enumerate(basis):
                todo.setdefault((other | lead).bit_count(), []).append((i, len(basis)))
            todo.setdefault(d + 1, []).extend(
                (len(basis), -(1 << x)) for x in range(n) if lead >> x & 1
            )
            basis.append((lead, f))
            std -= 1
        coeffs.append(std)
        if not std:
            break
    coeffs += [0] * (n + 1 - len(coeffs))
    for d, std in enumerate(coeffs):
        if std < floors[d]:
            raise InternalInvariantViolation(
                f"{std} standard {d}-sets for <I_2>, below b_{d} = {floors[d]}"
            )
    return tuple(coeffs), basis


def _pair(basis: list[tuple[int, dict[int, int]]], item) -> dict[int, int] | None:
    """The polynomial of one queued item, or None when the chain criterion drops it.

    An item is a generator, ``(i, j)`` for the S-pair of basis elements
    i < j, or ``(i, -(1 << x))`` for e_x ^ g_i.  The S-pair of g_i and g_j
    is dropped when a third lead divides their lcm and both other pairs
    have strictly lower degree, so they were settled before it.
    """
    if isinstance(item, dict):
        return item
    i, j = item
    li, gi = basis[i]
    if j < 0:
        return _times(-j, gi)
    lj, gj = basis[j]
    u = li | lj
    d = u.bit_count()
    for lk, _ in basis:  # neither li nor lj passes: li | lj has degree d
        if lk & u == lk and (li | lk).bit_count() < d and (lj | lk).bit_count() < d:
            return None
    f = _times(u ^ li, gi)
    _eliminate(f, u, lj, gj)  # the S-polynomial
    return f


def ideal_generators(a: Arrangement, kind: IdealKind, q: int) -> GradedIdealPresentation:
    """Dense matrix of the spanning family in basis(n, q) coordinates."""
    _check_degree(a, q)
    return GradedIdealPresentation(kind, q, densify(_generator_stream(a, kind, q), comb(a.n, q)))


def hilbert(a: Arrangement, quotient: str, field: FieldSpec) -> HilbertData:
    """Hilbert coefficients of the chosen quotient in degrees 0..n.

    A is the Whitney numbers b_q over every field, with no lattice: the
    FULL basis is unit-triangular, so Lambda^q / I^q is free of rank
    C(n, q) - b_q (Orlik-Solomon 1980), the count ``_full_rows`` checks
    wherever a FULL lattice is built.  Abar is read off the Groebner basis
    of <I_2> (``_abar_groebner``), with no QUADRATIC lattice; over F_p only
    if every lead is +-1, which makes Lambda^q / Q^q free of rank
    H(Abar)_q.  The other quotients, and Abar over F_p otherwise, come from
    the lattices' Smith divisors.  The algebra quotients are generated in
    degree 1, so once a coefficient vanishes all higher ones do; the
    indecomposables vanish above the rank because both ideals fill their
    degree there.  Both facts keep the big upper degrees free.
    """
    if quotient not in QUOTIENTS:
        raise InputError(f"unknown quotient {quotient!r}, expected one of {QUOTIENTS}")
    n = a.n
    if quotient == "A":
        betti = a.betti_mobius()
        return HilbertData(quotient, field, tuple(betti + [0] * (n + 1 - len(betti))))
    if quotient == "Abar":
        series, basis = _abar_groebner(a)
        if not field.characteristic or _unit_leads(basis):
            return HilbertData(quotient, field, series)
    coeffs: list[int] = []
    if quotient == "IND":
        for q in range(n + 1):
            c = ideal_lattice(a, IdealKind.FULL, q).rank_over(field) - ideal_lattice(
                a, IdealKind.DECOMPOSABLE, q
            ).rank_over(field)
            coeffs.append(c)
    else:
        kind = _KIND_OF_QUOTIENT[quotient]
        for q in range(n + 1):
            if q >= 2 and not coeffs[-1]:
                coeffs.append(0)
            else:
                coeffs.append(comb(n, q) - ideal_lattice(a, kind, q).rank_over(field))
    return HilbertData(quotient, field, tuple(coeffs))


def quotient_invariants_graded(a: Arrangement, quotient: str, q: int) -> AbelianInvariants:
    """Integral invariants of the degree-q piece of the chosen quotient."""
    if quotient not in QUOTIENTS:
        raise InputError(f"unknown quotient {quotient!r}, expected one of {QUOTIENTS}")
    _check_degree(a, q)
    if quotient == "IND":
        full = ideal_lattice(a, IdealKind.FULL, q)
        if full.saturated:
            # above the rank both ideals are all of the degree: zero quotient
            return AbelianInvariants(0, ())
        # (I / Lambda+ I)^q is Z^rank(I^q) modulo the decomposable rows,
        # written in the coordinates of the full ideal's basis
        pos = {p: i for i, p in enumerate(sorted(full.hnf.pivots))}
        rows = []
        for row in ideal_lattice(a, IdealKind.DECOMPOSABLE, q).hnf.rows_sorted():
            coords = full.hnf.coordinates(row)
            rows.append({pos[p]: v for p, v in coords.items()})
        return quotient_invariants(full.rank, rows)
    lat = ideal_lattice(a, _KIND_OF_QUOTIENT[quotient], q)
    return AbelianInvariants.from_divisors(lat.ncols, lat.divisors())


def discovered_torsion_primes(a: Arrangement) -> list[int]:
    """Primes dividing an invariant factor of the decomposable quotient.

    Torsion can only live in degrees 2..rank: the ideals vanish below
    degree 2 and fill their degree completely above the rank.  Reading
    Aplus alone loses nothing: the full basis is unit-triangular, so
    Lambda^q / I^q is free, the sequence 0 -> I / Lambda+ I -> Lambda /
    Lambda+ I -> Lambda / I -> 0 splits in each degree, and Aplus and IND
    have the same invariant factors above 1.
    """
    primes: set[int] = set()
    for q in range(2, a.rank() + 1):
        for d in quotient_invariants_graded(a, "Aplus", q).torsion_factors:
            primes.update(prime_factors(d))
    return sorted(primes)


DEFAULT_CHARACTERISTICS = (0, 2, 3, 5)


def r_table(a: Arrangement, fields: list[FieldSpec] | None = None) -> RmTable:
    """r_m over each field: Hilbert coefficients of the indecomposables.

    The default field set is the rationals and F_2, F_3, F_5, extended by
    every prime dividing a discovered invariant factor.  r_m = 0 for m < 2
    and for m above the rank is verified, not assumed.
    """
    if fields is None:
        chars = list(DEFAULT_CHARACTERISTICS)
        for p in discovered_torsion_primes(a):
            if p not in chars:
                chars.append(p)
        fields = [FieldSpec(c) for c in chars]
    if not fields:
        raise InputError("field list must be nonempty")
    per_field = [hilbert(a, "IND", f).coefficients for f in fields]
    values = tuple(tuple(pf[m] for pf in per_field) for m in range(a.n + 1))
    r = a.rank()
    for m, vals in enumerate(values):
        if (m < 2 or m > r) and any(vals):
            raise InternalInvariantViolation(
                f"r_{m} must vanish (rank {r}) but got {vals}"
            )
    flags = tuple(len(set(vals)) == 1 for vals in values)
    return RmTable(tuple(fields), values, flags)


def chordless_span_check(a: Arrangement, q: int, field: FieldSpec) -> SpanCheckReport:
    """Do the chordless-circuit differentials span the indecomposables?

    Spanning is a theorem, so ``onto`` is expected true on every input; a
    failure signals an implementation bug.  For graphic arrangements the
    map is even bijective, which the report records.
    """
    if q < 2:
        raise InputError(f"span check needs degree >= 2, got {q}")
    _check_degree(a, q)
    chordless = a.chordless_circuits(q + 1)  # none past n
    if q > a.rank():
        # the target (I / Lambda+ I)^q is the zero group, and a circuit has
        # at most rank + 1 members, so there is no chordless one either
        span_dim = target_dim = 0
    else:
        full = ideal_lattice(a, IdealKind.FULL, q)
        dec = ideal_lattice(a, IdealKind.DECOMPOSABLE, q)
        combined = dec.hnf.copy()
        col_of = _columns(a, q)
        for circ in chordless:
            combined.insert(_spread_row(0, _mask(circ), col_of))  # delta(e_C)
        spanned = IdealLattice(dec.kind, q, dec.ncols, combined)
        span_dim = spanned.rank_over(field) - dec.rank_over(field)
        target_dim = full.rank_over(field) - dec.rank_over(field)
    onto = span_dim == target_dim
    return SpanCheckReport(
        degree=q,
        field=field,
        onto=onto,
        span_dim=span_dim,
        target_dim=target_dim,
        chordless_count=len(chordless),
        bijective=onto and len(chordless) == span_dim,
        graphic=a.source_graph is not None,
    )


def ideal_membership(a: Arrangement, u: ExteriorElement, kind: IdealKind) -> bool:
    """Exact lattice membership (not merely rational span membership)."""
    if not 0 <= u.degree <= a.n:
        raise InputError(f"element degree {u.degree} out of range 0..{a.n}")
    row = u.sparse_coordinates(a.n)
    return ideal_lattice(a, kind, u.degree).contains(row)
