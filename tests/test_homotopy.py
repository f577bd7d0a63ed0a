"""Homotopy pipeline: gr0, the mu presentation, gr1, torsion equivalences."""

import itertools
import tracemalloc
from math import comb

import pytest

from hyparr import homotopy
from hyparr.arrangement import build, from_graph
from hyparr.cli import _random_2generic_instances, parse_input
from hyparr.errors import InternalInvariantViolation, PreconditionError
from hyparr.exterior import ExteriorElement, basis, generator, wedge
from hyparr.graphs import connected_graph_reps, make_graph
from hyparr.homotopy import (
    gr0_rank,
    gr1_invariants,
    mu_presentation,
    second_nilpotent_quotient,
    torsion_and_rank_report,
)
from hyparr.hypersolvable import classify
from hyparr.intlinalg import (
    AbelianInvariants,
    FieldSpec,
    RATIONALS,
    SparseHermite,
    smith_normal_form,
    snf_divisors,
)
from hyparr.osalgebra import IdealKind, IdealLattice, hilbert, ideal_lattice
from hyparr.report import build_report
from helpers import FIXTURES, THETA

K3 = make_graph(3, [(0, 1), (0, 2), (1, 2)])
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
    arr = from_graph(THETA)
    doc, _ = build_report(arr, classify(arr))
    pres = mu_presentation(arr)
    # the report reads the column count; the labels are written on first read
    assert doc["homotopy"]["mu_shape"] == [14, 35]
    assert "col_basis" not in vars(pres)
    assert pres.p == 2
    assert pres.gr0_rank == 2
    assert len(pres.matrix) == 7 * 2  # |A| x gr0 rows
    assert [rb for rb in pres.row_basis] == [(g, h) for g in range(2) for h in range(7)]
    # no triangles: (Lambda/I_2)^4 = Lambda^4, C(7,4) = 35 columns
    assert pres.col_basis == [str(c) for c in itertools.combinations(range(7), 4)]
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
    """Oracle: the gr0 basis from the coordinates of the QUADRATIC rows in the
    FULL basis, each element lifted to an ExteriorElement, wedged with
    generator(h) and reduced by a canonical Hermite copy in degree p+2."""
    p, n = classify(arr).p, arr.n
    full1 = ideal_lattice(arr, IdealKind.FULL, p + 1)
    quad1 = ideal_lattice(arr, IdealKind.QUADRATIC, p + 1)
    relations = SparseHermite()
    for row in quad1.hnf.rows_sorted():
        relations.insert(full1.hnf.coordinates(row))
    relations.canonicalize()
    assert relations.all_unit_pivots()
    # coordinates are keyed by the pivot column of a FULL row; the rows whose
    # column no relation leads span the quotient
    gr0 = [full1.hnf.pivots[j] for j in sorted(full1.hnf.pivots) if j not in relations.pivots]
    # with unit pivots the canonical form is reduced: each basis row is 0 on
    # the other pivot columns, so w less its pivot part has w's pivot values
    quad2 = ideal_lattice(arr, IdealKind.QUADRATIC, p + 2).hnf.copy()
    quad2.canonicalize()
    assert quad2.all_unit_pivots()
    free2 = [j for j in range(comb(n, p + 2)) if j not in quad2.pivots]
    mons = basis(n, p + 1)
    rows = []
    for lam in gr0:
        elt = ExteriorElement(p + 1, {mons[k]: c for k, c in lam.items() if c})
        for h in range(n):
            w = wedge(elt, generator(h)).sparse_coordinates(n)
            pivot_part = {j: w[j] for j in w if j in quad2.pivots}
            residual = dict(w)
            for j, v in pivot_part.items():
                for col, x in quad2.pivots[j].items():
                    residual[col] = residual.get(col, 0) - v * x
            assert all(not residual.get(j) for j in quad2.pivots)
            lattice_part = {
                col: w.get(col, 0) - residual.get(col, 0) for col in set(w) | set(residual)
            }
            assert quad2.coordinates(lattice_part) == pivot_part
            rows.append({k: residual[j] for k, j in enumerate(free2) if residual.get(j)})
    return rows


def graphs_with_quadratic_relations(count):
    """Qualifying 6-vertex graphs whose I_2 is nonzero in degree p+2, so the
    reduction to (Lambda/I_2)^{p+2} is not the identity."""
    picked = []
    for g in connected_graph_reps(6):
        arr = from_graph(g)
        if qualifying(arr) and ideal_lattice(arr, IdealKind.QUADRATIC, classify(arr).p + 2).rank:
            picked.append(arr)
            if len(picked) == count:
                break
    return picked


def test_mu_rows_match_the_wedge_product():
    inputs = mu_inputs()
    assert len(inputs) == 3 + 10
    inputs += graphs_with_quadratic_relations(6)
    assert len(inputs) == 3 + 10 + 6
    for arr in inputs:
        pres = mu_presentation(arr)
        assert pres.rows == mu_rows_by_wedge(arr), arr.normals
        assert pres.row_basis == [(g, h) for g in range(pres.gr0_rank) for h in range(arr.n)]
        width = len(pres.col_basis)
        assert all(0 <= k < width and v for row in pres.rows for k, v in row.items())
        quad2 = ideal_lattice(arr, IdealKind.QUADRATIC, pres.p + 2)
        cols = itertools.combinations(range(arr.n), pres.p + 2)
        assert pres.col_basis == [str(c) for j, c in enumerate(cols) if j not in quad2.hnf.pivots]
        assert pres.matrix == [[row.get(k, 0) for k in range(width)] for row in pres.rows]
        assert snf_divisors(pres.rows) == smith_normal_form(pres.matrix).divisors


def test_mu_reduces_only_by_a_quadratic_lattice_with_pivots(monkeypatch):
    calls = 0
    reduce = SparseHermite.reduce

    def counted(self, row):
        nonlocal calls
        calls += 1
        return reduce(self, row)

    monkeypatch.setattr(SparseHermite, "reduce", counted)
    # I_2 = 0 in degree p+2 on a 2-generic line: each product is its own class
    lines = (build(dim, normals) for _key, dim, normals in _random_2generic_instances(0, 12, 50))
    arr = next(line for line in lines if qualifying(line))
    assert ideal_lattice(arr, IdealKind.QUADRATIC, classify(arr).p + 2).rank == 0
    pres = mu_presentation(arr)
    assert calls == 0
    assert pres.rows == mu_rows_by_wedge(arr)
    (graph,) = graphs_with_quadratic_relations(1)
    calls = 0
    pres = mu_presentation(graph)
    assert calls == len(pres.rows)
    assert pres.rows == mu_rows_by_wedge(graph)


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


def test_quadratic_pivots_are_units_inside_the_full_pivots():
    # mu_presentation reads its bases off these pivots; Lambda/I_2 of a
    # hypersolvable arrangement is the OS algebra of a supersolvable
    # deformation (Jambu-Papadima), whose ideal has a +-1-lead basis
    corpus = [from_graph(g) for g in connected_graph_reps(6)]
    corpus += [parse_input(str(p)) for p in sorted(FIXTURES.iterdir())]
    randoms = [
        build(dim, normals) for _key, dim, normals in _random_2generic_instances(5, 12, 20)
    ]
    checked = 0
    for arr in corpus + randoms:
        if not classify(arr).hypersolvable:
            continue
        for q in range(arr.n + 1):
            lat = ideal_lattice(arr, IdealKind.QUADRATIC, q)
            checked += 1
            if lat.saturated:
                assert q > arr.rank(), (arr.normals, q)  # all of Z^ncols
                continue
            quad = lat.hnf
            assert quad.all_unit_pivots(), (arr.normals, q)
            if q <= arr.rank():
                full = ideal_lattice(arr, IdealKind.FULL, q).hnf
                assert quad.pivots.keys() <= full.pivots.keys(), (arr.normals, q)
    assert checked > 1000


def theta_with_a_bad_quadratic_lattice(monkeypatch, offset, lead):
    """Patch the QUADRATIC lattice of degree p+offset seen by the homotopy
    layer on theta6 (whose I_2 vanishes) with one extra row lead * e_j, j the
    first column that no FULL row leads."""
    real = homotopy.ideal_lattice

    def fake(a, kind, q):
        lat = real(a, kind, q)
        if kind is not IdealKind.QUADRATIC or q != classify(a).p + offset:
            return lat
        full = real(a, IdealKind.FULL, q)
        j = next(c for c in range(full.ncols) if c not in full.hnf.pivots)
        bad = lat.hnf.copy()
        bad.insert({j: lead})
        return IdealLattice(kind, q, lat.ncols, bad)

    monkeypatch.setattr(homotopy, "ideal_lattice", fake)


@pytest.mark.parametrize(
    "offset, lead, message",
    [
        (1, 2, "degree 3 has a non-unit pivot"),
        (2, -3, "degree 4 has a non-unit pivot"),
        (1, 1, "degree 3 has a pivot the FULL lattice lacks"),
    ],
)
def test_mu_rejects_a_quadratic_lattice_against_the_theorem(
    monkeypatch, capsys, offset, lead, message
):
    from hyparr.cli import main

    theta_with_a_bad_quadratic_lattice(monkeypatch, offset, lead)
    with pytest.raises(InternalInvariantViolation, match=message):
        mu_presentation(from_graph(THETA))
    assert main(["analyze", "--input", str(FIXTURES / "theta6.graph")]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("offset", [1, 2])
def test_mu_rejects_a_quadratic_lattice_off_the_groebner_series(monkeypatch, capsys, offset):
    # a unit row at a FULL pivot passes every theorem check above; only the
    # rank against H(Abar) from the Groebner basis catches it
    from hyparr.cli import main

    real = homotopy.ideal_lattice

    def fake(a, kind, q):
        lat = real(a, kind, q)
        if kind is not IdealKind.QUADRATIC or q != classify(a).p + offset:
            return lat
        bad = lat.hnf.copy()
        bad.insert({min(real(a, IdealKind.FULL, q).hnf.pivots): 1})
        return IdealLattice(kind, q, lat.ncols, bad)

    monkeypatch.setattr(homotopy, "ideal_lattice", fake)
    message = f"degree {2 + offset} has rank 1, but the Groebner basis"
    with pytest.raises(InternalInvariantViolation, match=message):
        mu_presentation(from_graph(THETA))
    assert main(["analyze", "--input", str(FIXTURES / "theta6.graph")]) == 3
    assert message in capsys.readouterr().err


def test_quadratic_bases_are_built_only_where_read(monkeypatch, tmp_path):
    # analyze reads H(Abar) off the Groebner basis; QUADRATIC bases are
    # built for mu alone, in degrees p+1 and p+2 of a qualifying input
    import itertools

    import hyparr.osalgebra as osalgebra
    from hyparr.cli import main

    real = osalgebra._quadratic_basis
    built = []

    def counted(a, q):
        built.append(q)
        return real(a, q)

    monkeypatch.setattr(osalgebra, "_quadratic_basis", counted)
    path = {(1, 2), (2, 3), (3, 4), (4, 5)}
    k7p = tmp_path / "k7-minus-path.graph"
    k7p.write_text("graph 7\n" + "".join(
        f"{u} {v}\n" for u, v in itertools.combinations(range(1, 8), 2) if (u, v) not in path))
    for name in (FIXTURES / "d4.arr", k7p):
        assert main(["analyze", "--input", str(name), "--json", str(tmp_path / "out.json")]) == 2
        # with +-1 leads the series over Q is the series over every F_p
        for p in (2, 3):
            hilbert(parse_input(str(name)), "Abar", FieldSpec(p))
        assert built == [], name
    qualifying = 0
    for name in sorted(FIXTURES.iterdir()):
        built.clear()
        code = main(["analyze", "--input", str(name), "--json", str(tmp_path / "out.json")])
        if code == 0:
            p = classify(parse_input(str(name))).p
            assert sorted(built) == [p + 1, p + 2], name
            qualifying += 1
        else:
            assert built == [], name
    assert qualifying >= 3


def test_a_search_line_builds_lattices_only_in_degrees_p1_and_p2(monkeypatch):
    # classify reads H(A) off the Whitney numbers and H(Abar) off the
    # Groebner basis, so it builds no lattice; a search line's homotopy
    # fields read FULL and QUADRATIC in degrees p+1 and p+2 and DECOMPOSABLE
    # in p+2 (FULL and DECOMPOSABLE up to the rank only, as they fill their
    # degree above it); analyze's r-table still reads every degree
    import hyparr.osalgebra as osalgebra
    from hyparr.report import build_report, homotopy_fields

    # FULL is counted where its claims are recorded and DECOMPOSABLE where M
    # is built: the memoized _full_rows is read by all three kinds
    built: dict[str, list[int]] = {}
    for label, owner, name in (("_FullRows", osalgebra._FullRows, "__init__"),
                               ("_f0_lattice", osalgebra, "_f0_lattice"),
                               ("_quadratic_basis", osalgebra, "_quadratic_basis")):
        def counted(first, q, *rest, real=getattr(owner, name), label=label):
            built[label].append(q)
            return real(first, q, *rest)

        monkeypatch.setattr(owner, name, counted)
        built[label] = []

    def degrees(name):
        got = sorted(built[name])
        built[name].clear()
        return got

    makers = [lambda f=f: parse_input(str(FIXTURES / f))
              for f in ("theta6.graph", "twogen6.arr", "twogen7.arr")]
    makers += [lambda dim=dim, normals=normals: build(dim, normals)
               for _key, dim, normals in _random_2generic_instances(0, 12, 8)]
    top = 0
    for make in makers:
        arr = make()  # a fresh arrangement: nothing cached
        cls = classify(arr)
        assert not any(built.values()), (arr.normals, built)
        assert cls.hypersolvable and not cls.supersolvable, arr.normals
        p, r = cls.p, cls.r
        homotopy_fields(arr)
        assert degrees("_FullRows") == [q for q in (p + 1, p + 2) if q <= r], arr.normals
        assert degrees("_f0_lattice") == [q for q in (p + 2,) if q <= r], arr.normals
        assert degrees("_quadratic_basis") == [p + 1, p + 2], arr.normals
        top += p + 2 > r

        arr = make()
        build_report(arr, classify(arr))
        assert degrees("_FullRows") == list(range(r + 1)), arr.normals
        assert degrees("_f0_lattice") == list(range(r + 1)), arr.normals
        degrees("_quadratic_basis")
    # lines with p+2 at most the rank, and lines with p+2 above it
    assert 0 < top < len(makers), top
