"""Homotopy pipeline: gr0, the mu presentation, gr1, torsion equivalences."""

import tracemalloc
from math import comb
from pathlib import Path

import pytest

from hyparr import homotopy
from hyparr.arrangement import build, from_graph
from hyparr.cli import _random_2generic_instances, parse_input
from hyparr.errors import InternalInvariantViolation, PreconditionError
from hyparr.exterior import from_coordinates, generator, wedge
from hyparr.graphs import make_graph
from hyparr.homotopy import (
    FreeQuotient,
    gr0_rank,
    gr1_invariants,
    mu_presentation,
    second_nilpotent_quotient,
    torsion_and_rank_report,
)
from hyparr.hypersolvable import classify
from hyparr.intlinalg import AbelianInvariants, RATIONALS, smith_normal_form, snf_divisors
from hyparr.osalgebra import IdealKind, hilbert, ideal_lattice

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

K3 = make_graph(3, [(0, 1), (0, 2), (1, 2)])
THETA = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
TWOGEN6 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
           (1, 1, 1, 1), (1, -1, -1, 1)]
TWOGEN7 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
           (1, 1, 2, 0), (1, 1, 1, 1), (1, 2, -1, 4)]


def d4():
    normals = []
    for i in range(4):
        for j in range(i + 1, 4):
            for s in (-1, 1):
                v = [0] * 4
                v[i] = 1
                v[j] = s
                normals.append(tuple(v))
    return build(4, normals)


def test_gr0_theta():
    arr = from_graph(THETA)
    # b_3(Abar) = C(7,3) = 35 (no triangles), b_3(A) = 33 from the
    # chromatic polynomial; the gap is 2
    assert gr0_rank(arr) == 2
    ha = hilbert(arr, "A", RATIONALS).coefficients
    hq = hilbert(arr, "Abar", RATIONALS).coefficients
    assert hq[3] - ha[3] == 2 and hq[3] == 35


def test_gr0_twogen6():
    arr = build(4, TWOGEN6)
    assert gr0_rank(arr) == 2


def test_gr0_requires_qualifying():
    with pytest.raises(PreconditionError, match="supersolvable"):
        gr0_rank(from_graph(K3))
    with pytest.raises(PreconditionError, match="not hypersolvable"):
        gr0_rank(d4())


def test_mu_shape_theta():
    pres = mu_presentation(from_graph(THETA))
    assert pres.p == 2
    assert pres.gr0_rank == 2
    assert len(pres.matrix) == 7 * 2  # |A| x gr0 rows
    assert [rb for rb in pres.row_basis] == [(g, h) for g in range(2) for h in range(7)]
    # no triangles: (Lambda/I_2)^4 = Lambda^4, C(7,4) = 35 columns
    assert len(pres.col_basis) == 35
    assert all(len(row) == 35 for row in pres.matrix)


def test_mu_shape_twogen6():
    pres = mu_presentation(build(4, TWOGEN6))
    # I_2 = 0 for a 2-generic arrangement, so columns = C(6,4) = 15
    assert len(pres.matrix) == 6 * pres.gr0_rank == 12
    assert len(pres.col_basis) == 15


def test_gr1_theta_free_rank6():
    inv = gr1_invariants(from_graph(THETA))
    assert inv.free_rank == 6
    assert inv.torsion_factors == ()


def test_gr1_rank_identity():
    for arr in (from_graph(THETA), build(4, TWOGEN6), build(4, TWOGEN7)):
        pres = mu_presentation(arr)
        inv = gr1_invariants(arr)
        divs = smith_normal_form(pres.matrix).divisors
        assert inv.free_rank == len(pres.matrix) - len(divs)
        assert tuple(d for d in divs if d > 1) == inv.torsion_factors


def test_second_nilpotent_quotient_theta():
    nq = second_nilpotent_quotient(from_graph(THETA))
    assert nq.p == 2
    assert nq.gr0_rank == 2
    assert nq.gr1.is_free and nq.gr1.free_rank == 6
    assert nq.action_matrix == mu_presentation(from_graph(THETA)).matrix
    assert "R2" in nq.ring_note


def test_torsion_report_theta():
    rep, book = torsion_and_rank_report(from_graph(THETA))
    assert rep.gr1_torsion_free and rep.a_plus_free_p2 and rep.ind_free_p2
    assert book["gr1_rank"] == 6 == book["corollary_rank"]
    assert book["r_p2"] == 0
    assert book["chordless_p3"] == 0  # no 5-cycles in the theta graph


def test_torsion_report_twogen6():
    rep, book = torsion_and_rank_report(build(4, TWOGEN6))
    assert rep.gr1_torsion_free == rep.a_plus_free_p2 == rep.ind_free_p2 == True
    assert book["r_p2"] == 1  # r_4 <= 1 in every field, and equals 1 over Q
    assert book["gr1_rank"] == book["corollary_rank"]


def test_torsion_report_twogen7():
    rep, book = torsion_and_rank_report(build(4, TWOGEN7))
    assert rep.gr1_torsion_free == rep.a_plus_free_p2 == rep.ind_free_p2
    assert book["gr1_rank"] == book["corollary_rank"]


def test_precondition_errors_propagate():
    with pytest.raises(PreconditionError):
        mu_presentation(from_graph(K3))
    with pytest.raises(PreconditionError):
        torsion_and_rank_report(d4())


def test_free_quotient_unit_pivot_path():
    from hyparr.homotopy import FreeQuotient

    fq = FreeQuotient(3, [{0: 1, 2: 1}])  # Z^3 / <e0 + e2>, free of rank 2
    assert fq.rank == 2
    assert fq.nonpivot_columns() == [1, 2]
    assert fq.class_coords({0: 1, 2: 1}) == {}
    lift0, lift1 = fq.lift(0), fq.lift(1)
    assert fq.class_coords(lift0) == {0: 1}
    assert fq.class_coords(lift1) == {1: 1}


def test_free_quotient_general_path():
    from hyparr.homotopy import FreeQuotient

    # Z^2 / <(2, 1)> is free of rank 1, but the relation pivot is 2, which
    # forces the Smith-transform branch
    fq = FreeQuotient(2, [{0: 2, 1: 1}])
    assert fq.rank == 1
    assert fq.nonpivot_columns() is None
    assert fq.class_coords({0: 2, 1: 1}) == {}
    lift = fq.lift(0)
    coords = fq.class_coords(lift)
    assert coords == {0: 1}
    # classes add up: 3 * lift should map to 3 * basis vector
    tripled = {k: 3 * v for k, v in lift.items()}
    assert fq.class_coords(tripled) == {0: 3}


def test_free_quotient_rejects_torsion():
    from hyparr.errors import InternalInvariantViolation
    from hyparr.homotopy import FreeQuotient

    with pytest.raises(InternalInvariantViolation):
        FreeQuotient(2, [{0: 2}])  # Z^2 / <2 e0> has Z/2 torsion


def test_hypersolvable_rank3_gr1_free():
    # hypersolvable with r = 3 and not supersolvable: gr1 is free
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])  # 4-cycle, rank 3
    arr = from_graph(g)
    rep, book = torsion_and_rank_report(arr)
    assert rep.gr1_torsion_free
    inv = gr1_invariants(arr)
    assert inv.is_free


def qualifying(arr):
    cls = classify(arr)
    return cls.hypersolvable and not cls.supersolvable


def mu_inputs():
    """The qualifying fixtures and the first 10 qualifying seeded random2g
    instances, whose integer normals are not graphic."""
    fixtures = [parse_input(str(p)) for p in sorted(FIXTURES.iterdir())]
    randoms = (
        build(dim, normals) for _key, dim, normals in _random_2generic_instances(5, 12, 60)
    )
    picked = [arr for arr in randoms if qualifying(arr)][:10]
    assert len(picked) == 10
    return [arr for arr in fixtures if qualifying(arr)] + picked


def mu_rows_by_wedge(arr):
    """Oracle: each gr0 basis element lifted to an ExteriorElement, wedged
    with generator(h) and reduced by the degree-(p+2) quotient."""
    p, n = classify(arr).p, arr.n
    full1 = ideal_lattice(arr, IdealKind.FULL, p + 1)
    quad1 = ideal_lattice(arr, IdealKind.QUADRATIC, p + 1)
    pos = {piv: k for k, piv in enumerate(sorted(full1.hnf.pivots))}
    L1 = FreeQuotient(
        full1.rank,
        [
            {pos[piv]: v for piv, v in full1.hnf.coordinates(row).items()}
            for row in quad1.hnf.rows_sorted()
        ],
    )
    quad2 = ideal_lattice(arr, IdealKind.QUADRATIC, p + 2)
    L2 = FreeQuotient(comb(n, p + 2), quad2.hnf.rows_sorted())
    full_rows = full1.hnf.rows_sorted()
    rows = []
    for gidx in range(L1.rank):
        lam = {}
        for bidx, coef in L1.lift(gidx).items():
            for col, v in full_rows[bidx].items():
                lam[col] = lam.get(col, 0) + coef * v
        elt = from_coordinates(n, p + 1, lam)
        for h in range(n):
            rows.append(L2.class_coords(wedge(elt, generator(h)).sparse_coordinates(n)))
    return rows


def test_mu_rows_match_the_wedge_product():
    inputs = mu_inputs()
    assert len(inputs) == 3 + 10
    for arr in inputs:
        pres = mu_presentation(arr)
        assert pres.rows == mu_rows_by_wedge(arr), arr.normals
        assert pres.row_basis == [(g, h) for g in range(pres.gr0_rank) for h in range(arr.n)]
        width = len(pres.col_basis)
        assert all(0 <= k < width and v for row in pres.rows for k, v in row.items())
        assert pres.matrix == [[row.get(k, 0) for k in range(width)] for row in pres.rows]
        assert snf_divisors(pres.rows) == smith_normal_form(pres.matrix).divisors


def test_mu_of_general_lines_stays_small():
    # 12 lines in general position in the plane: a 1980 x 495 mu matrix,
    # which a dense build holds at ~9 MiB and the sparse rows at ~2 MiB
    arr = build(3, [(1, i, i * i) for i in range(12)])
    assert qualifying(arr)
    tracemalloc.start()
    try:
        pres = mu_presentation(arr)
        inv = gr1_invariants(arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(pres.rows), len(pres.col_basis)) == (1980, 495)
    assert inv == AbelianInvariants(free_rank=1485, torsion_factors=())
    assert peak < 4 * 2**20, peak


def test_torsion_disagreement_reports_shape_not_matrix(monkeypatch):
    real = homotopy.quotient_invariants_graded

    def fake(a, kind, degree):
        inv = real(a, kind, degree)
        if kind == "Aplus":
            return AbelianInvariants(inv.free_rank, (2,))
        return inv

    monkeypatch.setattr(homotopy, "quotient_invariants_graded", fake)
    arr = from_graph(THETA)
    with pytest.raises(InternalInvariantViolation) as err:
        torsion_and_rank_report(arr)
    msg = str(err.value)
    assert "torsion equivalence failed" in msg
    assert "gr1 ()" in msg and "Aplus (2,)" in msg and "IND ()" in msg
    assert "mu shape 14 x 35" in msg
    assert "[" not in msg
