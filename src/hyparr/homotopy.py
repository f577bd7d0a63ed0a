"""The first higher homotopy group's second nilpotent quotient data.

For a hypersolvable, non-supersolvable arrangement with connectivity order
p, the objects computed here are:

* gr0: the free abelian group of rank rank(I/I_2)^{p+1} (never zero);
* the multiplication map mu: (I/I_2)^{p+1} (x) Lambda^1 -> (Lambda/I_2)^{p+2},
  presented as an integer matrix in bases read off the echelon pivots of
  the cached ideal lattices.  The QUADRATIC lattices are products of the
  Groebner basis of <I_2> that also gives H(Abar).  Lambda/I_2 is the
  Orlik-Solomon algebra of a supersolvable deformation with the same
  rank-2 flats (Jambu-Papadima), whose ideal has a +-1-lead broken-circuit
  basis (Bjorner-Ziegler), so the QUADRATIC pivots are units and both
  quotients are free on their non-pivot columns; a non-unit pivot is an
  InternalInvariantViolation (exit 3);
* gr1: the cokernel of the dual of mu.  Smith divisors are transpose
  invariant, so its invariants are read straight off the mu matrix:
  free rank = rows - #divisors, torsion = divisors > 1.

The mu presentation and its Smith divisors are ``arrangement.memo``
functions, built once per arrangement, and every entry point checks the
arrangement through the memoized ``classify``.

The torsion report recomputes the same yes/no question three ways (mu
divisors, the decomposable quotient in degree p+2, the indecomposable
relations in degree p+2) and insists they agree; the last two both derive
from M (see ``osalgebra``), so mu is the route independent of it.  It checks
the closed rank formula n*gr0 - rank(mu) against the Hilbert-data
expression; for graphic arrangements the chordless-circuit count gives a
fourth, combinatorial route.  The expression reads H(A) as the Whitney
numbers, H(Abar) off the Groebner basis and r_{p+2} as the free rank of
IND_{p+2}, so a line builds FULL and QUADRATIC lattices only in degrees
p+1 and p+2, and DECOMPOSABLE only in p+2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

from .arrangement import Arrangement, _indices, memo
from .errors import InternalInvariantViolation, PreconditionError
from .hypersolvable import Classification, classify
from .intlinalg import AbelianInvariants, RATIONALS, densify, snf_divisors
from .osalgebra import (
    IdealKind,
    _columns,
    hilbert,
    ideal_lattice,
    quotient_invariants_graded,
)

RING_NOTE = (
    "base ring R2 = Z.1 (+) H1 with I.R2 = H1 and I^2.R2 = 0; "
    "the action map vanishes on H_{p+2} (x) H1 and is the mu matrix on "
    "H_{p+2} (x) 1"
)


@dataclass
class MuPresentation:
    p: int
    gr0_rank: int
    row_basis: list[tuple[int, int]]  # (index into the gr0 basis, hyperplane)
    col_masks: list[int]  # the (p+2)-sets of the non-pivot columns, as int masks
    rows: list[dict[int, int]]  # one per row_basis entry; keys index col_masks

    @cached_property
    def col_basis(self) -> list[str]:
        """The column labels, each (p+2)-set's sorted tuple, written on first read."""
        return [str(_indices(m)) for m in self.col_masks]

    @property
    def matrix(self) -> list[list[int]]:
        """The dense len(row_basis) x len(col_masks) matrix, built on access."""
        return densify(self.rows, len(self.col_masks))


@dataclass
class NilpotentQuotient2:
    p: int
    gr0_rank: int
    gr1: AbelianInvariants
    action_matrix: list[list[int]]  # the mu matrix; the action reads it dually
    ring_note: str


@dataclass
class TorsionReport:
    gr1_torsion_free: bool
    a_plus_free_p2: bool
    ind_free_p2: bool
    witnesses: dict[str, tuple[int, ...]]


def require_qualifying(a: Arrangement) -> Classification:
    """Hypersolvable and not supersolvable, else a PreconditionError."""
    cls = classify(a)
    if not cls.hypersolvable:
        raise PreconditionError(
            "arrangement is not hypersolvable; the homotopy pipeline does not apply"
        )
    if cls.supersolvable:
        raise PreconditionError(
            "arrangement is supersolvable (fiber-type), so the complement is "
            "aspherical and pi_p vanishes"
        )
    return cls


def gr0_rank(a: Arrangement) -> int:
    """rank (I/I_2)^{p+1} = coefficient gap between Abar and A in degree p+1."""
    cls = require_qualifying(a)
    d1 = cls.p + 1
    gap = (
        hilbert(a, "Abar", RATIONALS).coefficients[d1]
        - hilbert(a, "A", RATIONALS).coefficients[d1]
    )
    if gap <= 0:
        raise InternalInvariantViolation(
            f"gr0 rank must be positive by the definition of p, got {gap}"
        )
    return gap


@memo
def mu_presentation(a: Arrangement) -> MuPresentation:
    """The multiplication map in bases read off the echelon ideal bases.

    Rows run over (basis element of (I/I_2)^{p+1}) x (hyperplane), columns
    over the basis of (Lambda/I_2)^{p+2}; the sign convention is the plain
    wedge product (the reported invariants do not depend on it).  Each row
    is sparse: e_S ^ e_h = (-1)^#{s in S : s > h} e_{S+h} for h not in S,
    with S and S + h read as int masks.

    The QUADRATIC pivots are units (Jambu-Papadima plus Bjorner-Ziegler, see
    the module docstring), so the gr0 basis is the FULL^{p+1} rows whose
    pivot is no QUADRATIC^{p+1} pivot, in ascending pivot order, and the
    class of a product is its residual after reduction by QUADRATIC^{p+2},
    which is unique and lives on the non-pivot columns.  These two are the
    only QUADRATIC lattices ``analyze`` builds; each must have rank
    C(n, q) - H(Abar)_q.  Lattice and series come from one Groebner basis,
    so that count checks how the lattice was written (or eliminated, when a
    lead is not a unit); the pivots are checked against FULL, which is
    built from the broken circuits alone.  A rank off that count, a
    non-unit pivot, or a QUADRATIC^{p+1} pivot that FULL^{p+1} lacks raises
    InternalInvariantViolation (exit 3).
    """
    cls = require_qualifying(a)
    p = cls.p
    n = a.n
    d1, d2 = p + 1, p + 2

    full1 = ideal_lattice(a, IdealKind.FULL, d1)
    quad1 = ideal_lattice(a, IdealKind.QUADRATIC, d1)
    quad2 = ideal_lattice(a, IdealKind.QUADRATIC, d2)
    for q, quad in ((d1, quad1), (d2, quad2)):
        if not quad.hnf.all_unit_pivots():
            raise InternalInvariantViolation(
                f"QUADRATIC lattice in degree {q} has a non-unit pivot, but "
                "Lambda/I_2 of a hypersolvable arrangement is the OS algebra of a "
                "supersolvable deformation (Jambu-Papadima), whose ideal has a "
                "+-1-lead broken-circuit basis (Bjorner-Ziegler)"
            )
    if not quad1.hnf.pivots.keys() <= full1.hnf.pivots.keys():
        raise InternalInvariantViolation(
            f"QUADRATIC lattice in degree {d1} has a pivot the FULL lattice lacks, "
            "but I_2 lies in I"
        )
    habar = hilbert(a, "Abar", RATIONALS).coefficients
    for q, quad in ((d1, quad1), (d2, quad2)):
        if quad.rank != comb(n, q) - habar[q]:
            raise InternalInvariantViolation(
                f"QUADRATIC lattice in degree {q} has rank {quad.rank}, but the "
                f"Groebner basis of <I_2> leaves {habar[q]} of C({n},{q}) standard"
            )
    gr0_rows = [
        full1.hnf.pivots[j] for j in sorted(full1.hnf.pivots) if j not in quad1.hnf.pivots
    ]
    g0 = gr0_rank(a)
    if len(gr0_rows) != g0:
        raise InternalInvariantViolation(
            f"gr0 rank {g0} from Hilbert data but lattice basis has {len(gr0_rows)}"
        )

    pivots = quad2.hnf.pivots
    nonpivot = [j for j in range(comb(n, d2)) if j not in pivots]
    pos = {j: k for k, j in enumerate(nonpivot)}
    mons1 = list(_columns(a, d1))
    col_of2 = _columns(a, d2)
    rows: list[dict[int, int]] = []
    row_basis: list[tuple[int, int]] = []
    for gidx, lam in enumerate(gr0_rows):
        terms = [(mons1[col], v) for col, v in lam.items()]
        for h in range(n):
            bit = 1 << h
            w: dict[int, int] = {}
            for mon, v in terms:
                if mon & bit:
                    continue
                w[col_of2[mon | bit]] = -v if (mon >> h).bit_count() % 2 else v
            if pivots:
                w = {pos[j]: v for j, v in quad2.hnf.reduce(w).items()}
            rows.append(w)  # with no pivot (I_2 = 0 in degree p+2) w is its own residual
            row_basis.append((gidx, h))

    mons2 = list(col_of2)
    return MuPresentation(p, g0, row_basis, [mons2[j] for j in nonpivot], rows)


@memo
def _mu_divisors(a: Arrangement) -> list[int]:
    return snf_divisors(mu_presentation(a).rows)


def gr1_invariants(a: Arrangement) -> AbelianInvariants:
    """Invariants of gr1 = coker(dual of mu), read off the mu matrix."""
    return AbelianInvariants.from_divisors(len(mu_presentation(a).rows), _mu_divisors(a))


def second_nilpotent_quotient(a: Arrangement) -> NilpotentQuotient2:
    pres = mu_presentation(a)
    return NilpotentQuotient2(
        p=pres.p,
        gr0_rank=pres.gr0_rank,
        gr1=gr1_invariants(a),
        action_matrix=pres.matrix,
        ring_note=RING_NOTE,
    )


def torsion_and_rank_report(a: Arrangement) -> tuple[TorsionReport, dict]:
    """Three independent torsion answers plus the closed rank formula.

    Any disagreement between the three computations, or a failure of the
    rank identity, is an internal invariant violation: for correct code
    they are theorems.
    """
    cls = require_qualifying(a)
    p = cls.p
    d2 = p + 2
    n = a.n

    gr1 = gr1_invariants(a)
    aplus = quotient_invariants_graded(a, "Aplus", d2)
    ind = quotient_invariants_graded(a, "IND", d2)

    report = TorsionReport(
        gr1_torsion_free=gr1.is_free,
        a_plus_free_p2=aplus.is_free,
        ind_free_p2=ind.is_free,
        witnesses={
            "gr1": gr1.torsion_factors,
            "Aplus_p2": aplus.torsion_factors,
            "IND_p2": ind.torsion_factors,
        },
    )
    if not (report.gr1_torsion_free == report.a_plus_free_p2 == report.ind_free_p2):
        pres = mu_presentation(a)
        raise InternalInvariantViolation(
            "torsion equivalence failed: "
            f"gr1 {gr1.torsion_factors}, Aplus {aplus.torsion_factors}, "
            f"IND {ind.torsion_factors}; mu shape {len(pres.rows)} x {len(pres.col_masks)}"
        )

    ha = hilbert(a, "A", RATIONALS).coefficients
    habar = hilbert(a, "Abar", RATIONALS).coefficients
    r_p2 = ind.free_rank
    gr0 = gr0_rank(a)
    corollary_rank = n * (habar[p + 1] - ha[p + 1]) - (habar[d2] - ha[d2]) + r_p2
    mu_rank = len(_mu_divisors(a))
    if gr1.free_rank != n * gr0 - mu_rank:
        raise InternalInvariantViolation(
            f"rank bookkeeping broke: {gr1.free_rank} != {n}*{gr0} - {mu_rank}"
        )
    if gr1.free_rank != corollary_rank:
        raise InternalInvariantViolation(
            f"closed rank formula mismatch: SNF gives {gr1.free_rank}, "
            f"Hilbert expression gives {corollary_rank}"
        )
    bookkeeping = {
        "p": p,
        "gr0_rank": gr0,
        "gr1_rank": gr1.free_rank,
        "mu_rank": mu_rank,
        "corollary_rank": corollary_rank,
        "r_p2": r_p2,
    }
    if a.source_graph is not None:
        chordless = len(a.chordless_circuits(p + 3)) if p + 3 <= n else 0
        if r_p2 != chordless:
            raise InternalInvariantViolation(
                f"graphic count mismatch: r_{d2} = {r_p2} but "
                f"{chordless} chordless ({p + 3})-circuits"
            )
        bookkeeping["chordless_p3"] = chordless
    return report, bookkeeping
