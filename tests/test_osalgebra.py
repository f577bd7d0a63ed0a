"""OS ideals: generators, Hilbert data, torsion, r-tables, span checks."""

import gc
import hashlib
import itertools
import json
import random
import tracemalloc
from math import comb

import pytest

from hyparr.arrangement import _mask, build, from_graph
from hyparr.errors import InputError, InternalInvariantViolation
from hyparr.exterior import delta, generator, monomial, wedge
from hyparr.graphs import connected_graph_reps, make_graph
from hyparr.intlinalg import AbelianInvariants, FieldSpec, RATIONALS, SparseHermite
from hyparr.osalgebra import (
    IdealKind,
    IdealLattice,
    SpanCheckReport,
    _columns,
    _eliminate,
    _generator_stream,
    _reduce,
    _spread_row,
    chordless_span_check,
    hilbert,
    ideal_generators,
    ideal_lattice,
    ideal_membership,
    quotient_invariants_graded,
    r_table,
)
from helpers import FIXTURES, THETA, boolean, coxeter_b, random2g

K3 = make_graph(3, [(0, 1), (0, 2), (1, 2)])
TWOGEN6 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
           (1, 1, 1, 1), (1, -1, -1, 1)]
TWOGEN7 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
           (1, 1, 2, 0), (1, 1, 1, 1), (1, 2, -1, 4)]

FIELDS = [RATIONALS, FieldSpec(2), FieldSpec(3), FieldSpec(5)]


def test_ideal_generators_k3_full_degree2():
    pres = ideal_generators(from_graph(K3), IdealKind.FULL, 2)
    # single circuit: delta(e_012) = e_12 - e_02 + e_01
    assert pres.generator_matrix == [[1, -1, 1]]


def test_ideal_generators_twogen_quadratic_empty():
    arr = build(4, TWOGEN6)
    for q in range(arr.n + 1):
        assert ideal_generators(arr, IdealKind.QUADRATIC, q).generator_matrix == []


def test_ideal_generators_k3_decomposable_degree2_empty():
    assert ideal_generators(from_graph(K3), IdealKind.DECOMPOSABLE, 2).generator_matrix == []


def test_ideal_generators_degree_out_of_range():
    with pytest.raises(InputError):
        ideal_generators(from_graph(K3), IdealKind.FULL, 4)


def test_generator_rows_lie_in_ideal():
    # reconstruction spot check: every generator row is in the stated lattice
    for arr in (from_graph(THETA), build(4, TWOGEN6)):
        for kind in IdealKind:
            for q in range(2, 5):
                pres = ideal_generators(arr, kind, q)
                lat = ideal_lattice(arr, kind, q)
                for row in pres.generator_matrix[:25]:
                    assert lat.hnf.contains(row)


def test_lattice_containments():
    # QUADRATIC and DECOMPOSABLE sit inside FULL degree by degree
    for arr in (from_graph(THETA), build(4, TWOGEN7), from_graph(K3)):
        for q in range(arr.n + 1):
            full = ideal_lattice(arr, IdealKind.FULL, q)
            for kind in (IdealKind.QUADRATIC, IdealKind.DECOMPOSABLE):
                sub = ideal_lattice(arr, kind, q)
                if sub.saturated:
                    assert full.saturated  # containment forces this
                    continue
                for row in sub.hnf.rows_sorted():
                    assert full.contains(row)


def test_hilbert_boolean():
    h = hilbert(boolean(3), "A", RATIONALS)
    assert h.coefficients == (1, 3, 3, 1)


def test_hilbert_k3():
    assert hilbert(from_graph(K3), "A", RATIONALS).coefficients == (1, 3, 2, 0)
    # supersolvable: quadratic quotient agrees with the full one
    assert hilbert(from_graph(K3), "Abar", RATIONALS).coefficients == (1, 3, 2, 0)


def test_hilbert_unknown_quotient():
    with pytest.raises(InputError):
        hilbert(from_graph(K3), "B", RATIONALS)


def test_hilbert_matches_betti_all_fields():
    # hilbert reads H(A) off the Whitney numbers; the FULL lattices, from
    # the circuit walk, must leave quotients of the same rank over every field
    for arr in (boolean(3), from_graph(K3), from_graph(THETA), build(4, TWOGEN6)):
        betti = arr.betti_mobius()
        betti += [0] * (arr.n + 1 - len(betti))
        for f in FIELDS:
            assert list(hilbert(arr, "A", f).coefficients) == betti
            walk = [comb(arr.n, q) - ideal_lattice(arr, IdealKind.FULL, q).rank_over(f)
                    for q in range(arr.n + 1)]
            assert walk == betti, (arr.normals, f)


def test_aplus_decomposes_as_a_plus_ind():
    for arr in (from_graph(THETA), build(4, TWOGEN6), from_graph(K3)):
        for f in FIELDS:
            a = hilbert(arr, "A", f).coefficients
            aplus = hilbert(arr, "Aplus", f).coefficients
            ind = hilbert(arr, "IND", f).coefficients
            assert all(p == x + y for p, x, y in zip(aplus, a, ind))


def test_quotient_invariants_a_torsion_free():
    # verified, not assumed, on the fixture set
    for arr in (from_graph(K3), from_graph(THETA), build(4, TWOGEN6)):
        for q in range(arr.n + 1):
            inv = quotient_invariants_graded(arr, "A", q)
            assert inv.torsion_factors == ()


def test_quotient_invariants_boolean_aplus():
    from math import comb

    arr = boolean(4)
    for q in range(5):
        inv = quotient_invariants_graded(arr, "Aplus", q)
        assert inv.free_rank == comb(4, q) and inv.is_free


def test_quotient_invariants_theta_aplus_degree4():
    inv = quotient_invariants_graded(from_graph(THETA), "Aplus", 4)
    assert inv.torsion_factors == ()


def test_quadratic_quotient_torsion_free_fixtures():
    for arr in (from_graph(THETA), build(4, TWOGEN7), boolean(3)):
        for q in range(arr.n + 1):
            inv = quotient_invariants_graded(arr, "Abar", q)
            assert inv.torsion_factors == ()


def test_r_table_twogen6():
    table = r_table(build(4, TWOGEN6))
    chars = [f.characteristic for f in table.fields]
    assert chars[:4] == [0, 2, 3, 5]
    for f in table.fields:
        assert table.r(4, f) <= 1
    assert table.field_independent[2]


def test_r_table_k3():
    table = r_table(from_graph(K3))
    # the single circuit relation: r_2 = 1, independent of the field
    assert all(v == 1 for v in table.values[2])
    assert table.field_independent[2]


def test_r_table_vanishing_range():
    for arr in (from_graph(THETA), from_graph(K3), build(4, TWOGEN6)):
        table = r_table(arr)
        r = arr.rank()
        for m, vals in enumerate(table.values):
            if m < 2 or m > r:
                assert all(v == 0 for v in vals)


def test_r2_field_independent_everywhere():
    for arr in (from_graph(THETA), build(4, TWOGEN7), boolean(4)):
        table = r_table(arr)
        assert table.field_independent[2]


def test_aplus_and_ind_share_torsion():
    # the full basis is unit-triangular, so Lambda/I is free and the r-table
    # may read its torsion primes off Aplus alone
    from hyparr.cli import parse_input

    arrs = [parse_input(str(p)) for p in sorted(FIXTURES.iterdir())]
    arrs += [from_graph(g) for g in connected_graph_reps(6)]
    arrs += [build(dim, normals) for _, dim, normals in random2g(5, 10, 20)]
    pairs = 0
    for arr in arrs:
        for q in range(2, min(arr.rank(), arr.n) + 1):
            aplus = quotient_invariants_graded(arr, "Aplus", q)
            ind = quotient_invariants_graded(arr, "IND", q)
            assert aplus.torsion_factors == ind.torsion_factors, (arr.normals, q)
            pairs += 1
    assert pairs > 600


def test_r_table_needs_no_ind_coordinates(monkeypatch):
    k6 = make_graph(6, list(itertools.combinations(range(6), 2)))
    expected = [r_table(from_graph(g)) for g in (k6, THETA)]

    def refuse(self, row):
        raise AssertionError("r_table asked for IND coordinates")

    monkeypatch.setattr(SparseHermite, "coordinates", refuse)
    assert [r_table(from_graph(g)) for g in (k6, THETA)] == expected


def test_r_table_adds_a_discovered_prime(monkeypatch):
    import hyparr.osalgebra as osalgebra

    real = osalgebra.quotient_invariants_graded

    def with_torsion(arr, quotient, q):
        inv = real(arr, quotient, q)
        if quotient == "Aplus" and q == 2:
            return AbelianInvariants(inv.free_rank, (14,))
        return inv

    monkeypatch.setattr(osalgebra, "quotient_invariants_graded", with_torsion)
    table = r_table(from_graph(THETA))
    assert [f.characteristic for f in table.fields] == [0, 2, 3, 5, 7]


def test_rank_over_at_a_non_unit_pivot():
    h = SparseHermite()
    h.pivots = {0: {0: 6}, 1: {1: 1}}
    lat = IdealLattice(IdealKind.DECOMPOSABLE, 1, 2, h)
    assert [lat.rank_over(FieldSpec(p)) for p in (2, 3, 5)] == [1, 1, 2]
    assert lat.rank_over(RATIONALS) == 2


def test_chordless_span_onto():
    for arr in (from_graph(THETA), build(4, TWOGEN6), build(4, TWOGEN7)):
        for q in range(2, min(arr.rank() + 1, arr.n)):
            for f in (RATIONALS, FieldSpec(2)):
                rep = chordless_span_check(arr, q, f)
                assert rep.onto, (arr, q, f)


@pytest.mark.parametrize("field", [RATIONALS, FieldSpec(2)])
def test_chordless_span_above_the_rank(field):
    # K4 has rank 3: in degree 4 the target is zero and no circuit has 5 members
    rep = chordless_span_check(from_graph(make_graph(4, itertools.combinations(range(4), 2))), 4, field)
    assert rep == SpanCheckReport(degree=4, field=field, onto=True, span_dim=0, target_dim=0,
                                  chordless_count=0, bijective=True, graphic=True)


def test_chordless_span_theta_bijective():
    rep = chordless_span_check(from_graph(THETA), 4, RATIONALS)
    assert rep.graphic and rep.bijective
    assert rep.chordless_count == 0 and rep.target_dim == 0


def test_chordless_span_twogen7_not_injective():
    # degree q = c = 4: onto but with nonzero kernel
    arr = build(4, TWOGEN7)
    rep = chordless_span_check(arr, 4, RATIONALS)
    assert rep.onto and not rep.bijective
    assert rep.chordless_count > rep.span_dim


def test_delta_kernel_contains_delta_of_cprime():
    # delta(e_C') for C' = {x,y,z,t,H,P} is a nonzero combination of
    # chordless 5-circuit monomials killed by delta_4
    arr = build(4, TWOGEN7)
    cprime = (0, 1, 2, 3, 5, 6)
    top = delta(monomial(cprime))
    assert not top.is_zero()
    chordless = arr.chordless_circuits(5)
    span = set(chordless)
    assert set(top.terms) <= span
    assert delta(top).is_zero()


def test_membership_k3():
    arr = from_graph(K3)
    assert ideal_membership(arr, delta(monomial((0, 1, 2))), IdealKind.FULL)
    assert ideal_membership(arr, delta(monomial((0, 1, 2))), IdealKind.QUADRATIC)


def test_membership_boolean_degree1():
    arr = boolean(3)
    assert not ideal_membership(arr, generator(0), IdealKind.FULL)


def test_membership_rejects_an_index_past_n():
    arr = build(2, [[1, 0], [0, 1], [1, 1]])
    with pytest.raises(InputError, match=r"\(0, 5\).*3 generators"):
        ideal_membership(arr, monomial((0, 5)), IdealKind.FULL)


def test_membership_twogen6_identity():
    # x,y,z,t,H,P = 0,1,2,3,4,5; the two chordless 5-circuits and the two
    # 4-circuits of the worked example
    arr = build(4, TWOGEN6)
    c5 = delta(monomial((0, 1, 2, 3, 4)))
    c5p = delta(monomial((0, 1, 2, 3, 5)))
    diff = c5 - c5p
    assert ideal_membership(arr, diff, IdealKind.DECOMPOSABLE)
    # and the displayed four-term combination also lies in Lambda+ I
    c4 = delta(monomial((1, 2, 4, 5)))
    c4p = delta(monomial((0, 3, 4, 5)))
    ex_minus_et = generator(0) - generator(3)
    ey_minus_ez = generator(1) - generator(2)
    combo = diff - wedge(ex_minus_et, c4) - wedge(ey_minus_ez, c4p)
    assert ideal_membership(arr, combo, IdealKind.DECOMPOSABLE)
    # the difference is NOT in the quadratic ideal (which is zero here)
    assert not ideal_membership(arr, diff, IdealKind.QUADRATIC)


def test_saturated_marker_matches_direct_construction():
    # the lattice marker must agree with building the Hermite basis from
    # the raw generator stream: FULL and DECOMPOSABLE above the rank, and
    # QUADRATIC exactly where H(Abar)_q = 0
    from math import comb

    from hyparr.cli import parse_input

    def check(arr, kind, q):
        lat = ideal_lattice(arr, kind, q)
        assert lat.saturated, (arr.normals, kind, q)
        h = SparseHermite()
        for row in _generator_stream(arr, kind, q):
            h.insert(row)
        assert h.rank == comb(arr.n, q) == lat.rank
        assert h.all_unit_pivots()
        assert h.divisors() == lat.divisors()

    k4 = from_graph(make_graph(4, itertools.combinations(range(4), 2)))
    d4 = parse_input(str(FIXTURES / "d4.arr"))  # H(Abar)_5 = 3, above the rank 4
    quadratic = 0
    for arr in (from_graph(K3), build(4, TWOGEN6), k4, d4):
        r = arr.rank()
        for q in range(r + 1, arr.n + 1):
            for kind in (IdealKind.FULL, IdealKind.DECOMPOSABLE):
                check(arr, kind, q)
        abar = hilbert(arr, "Abar", RATIONALS).coefficients
        for q in range(arr.n + 1):
            if abar[q]:
                assert not ideal_lattice(arr, IdealKind.QUADRATIC, q).saturated, (arr.normals, q)
            else:
                assert q > r
                check(arr, IdealKind.QUADRATIC, q)
                quadratic += 1
    assert quadratic == 1 + 3 + 7, quadratic  # K3 degree 3, K4 degrees 4-6, D4 degrees 6-12


def test_ind_vanishes_without_chordless_circuits():
    arr = from_graph(THETA)
    ind = hilbert(arr, "IND", RATIONALS).coefficients
    for q in range(2, arr.n):
        if not arr.chordless_circuits(q + 1):
            assert ind[q] == 0


def test_hilbert_a_matches_nbc_count():
    # independent oracle: the rank of A in degree q equals the number of
    # q-subsets containing no broken circuit (circuit minus its least element)
    import itertools

    def nbc_counts(arr):
        broken = []
        for c in arr.circuits():
            m = 0
            for i in c[1:]:
                m |= 1 << i
            broken.append(m)
        counts = [0] * (arr.n + 1)
        for q in range(arr.n + 1):
            for combo in itertools.combinations(range(arr.n), q):
                tm = 0
                for i in combo:
                    tm |= 1 << i
                if not any(bm & tm == bm for bm in broken):
                    counts[q] += 1
        return counts

    for arr in (from_graph(K3), from_graph(THETA), build(4, TWOGEN6),
                build(4, TWOGEN7)):
        counts = nbc_counts(arr)
        coeffs = hilbert(arr, "A", RATIONALS).coefficients
        assert list(coeffs) == counts


# ------------------------------- direct constructions vs elimination oracle


def shuffled(arr, rng):
    normals = list(arr.normals)
    rng.shuffle(normals)
    return build(arr.ambient_dim, normals)


def small_entries(gen, dim, draws):
    """The arrangement of `draws` random {-1,0,1} vectors, dropping zero and -v."""
    vecs = {tuple(gen.randint(-1, 1) for _ in range(dim)) for _ in range(draws)}
    normals = []
    for v in sorted(vecs):
        if any(v) and tuple(-x for x in v) not in normals:
            normals.append(v)
    return build(dim, normals)


def direct_construction_inputs():
    """The 6-vertex corpus, fixtures, B3, B4 and seeded {-1,0,1} inputs,
    each also with its hyperplanes shuffled."""
    from hyparr.cli import parse_input

    def base():
        yield from (from_graph(g) for g in connected_graph_reps(6))
        yield from (parse_input(str(p)) for p in sorted(FIXTURES.iterdir()))
        yield coxeter_b(3)
        yield coxeter_b(4)
        # small entries give many dependent triples and repeated broken circuits
        gen = random.Random(1982)
        for _ in range(40):
            dim = gen.choice((3, 4))
            yield small_entries(gen, dim, gen.randint(4, 9))

    rng = random.Random(1991)
    for arr in base():
        yield arr
        yield shuffled(arr, rng)


def elimination_oracle(arr, kind, q):
    h = SparseHermite()
    ncols = comb(arr.n, q)
    for row in _generator_stream(arr, kind, q):
        h.insert(row)
        if h.rank == ncols and h.all_unit_pivots():
            break  # the lattice is all of Z^ncols; no generator can change it
    return h


def test_spread_row_matches_wedge_of_delta():
    # the mask signs of e_S ^ delta(e_C) against the exterior-algebra route
    rng = random.Random(2013)
    for n in range(3, 10):
        arr = boolean(n)
        for _ in range(200):
            pool = rng.sample(range(n), rng.randint(1, n))
            cut = rng.randint(0, len(pool) - 1)
            s, c = sorted(pool[:cut]), sorted(pool[cut:])
            q = len(pool) - 1
            got = _spread_row(_mask(s), _mask(c), _columns(arr, q))
            assert got == wedge(monomial(s), delta(monomial(c))).sparse_coordinates(n), (s, c)


def test_lattices_leave_no_process_lifetime_tables():
    # every table the ideal layer builds lives in the arrangement's cache,
    # so once the arrangements are gone their memory is too
    def lattices(k):
        arr = from_graph(make_graph(k, list(itertools.combinations(range(k), 2))))
        for q in range(arr.rank() + 1):
            lat = ideal_lattice(arr, IdealKind.DECOMPOSABLE, q)
            if q % 2:
                lat.hnf  # written rows, and in the other degrees lazy lattices

    lattices(3)  # first-call allocations that any process keeps
    gc.collect()
    tracemalloc.start()
    try:
        for k in (4, 5, 6):
            lattices(k)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 64 * 1024, held


def test_direct_full_and_decomposable_match_elimination():
    import hyparr.osalgebra as osalgebra

    f0_seen = m_seen = 0
    for arr in direct_construction_inputs():
        for q in range(1, arr.rank() + 1):
            for kind in (IdealKind.FULL, IdealKind.DECOMPOSABLE):
                lat = ideal_lattice(arr, kind, q)
                oracle = elimination_oracle(arr, kind, q)
                if kind is IdealKind.FULL:  # the claimed pivots are the written ones
                    claimed = osalgebra._full_rows(arr, q).pivot_columns()
                    assert claimed == lat.hnf.pivots.keys(), (arr.normals, q)
                assert lat.rank == oracle.rank, (arr.normals, kind, q)
                assert sorted(lat.divisors()) == sorted(oracle.divisors())
                assert all(oracle.contains(row) for row in lat.hnf.rows_sorted())
                assert all(lat.contains(row) for row in oracle.rows_sorted())
            full = ideal_lattice(arr, IdealKind.FULL, q).hnf
            assert full.all_unit_pivots()
            f0 = {t for t, row in full.pivots.items() if len(row) == q + 1}
            dec = ideal_lattice(arr, IdealKind.DECOMPOSABLE, q).hnf
            f0_seen += bool(f0)
            m_seen += any(t in f0 for t in dec.pivots)
    # both the delta(e_C) rows outside Lambda+ I and the eliminated part occur
    assert f0_seen >= 20 and m_seen >= 20


def test_decomposable_divisors_read_off_m_match_its_rows(monkeypatch):
    # the divisors come from M alone; the Smith form of the written rows
    # must agree on a mutant whose M has its F0 coordinates doubled: no
    # input has IND torsion, so only a mutant reaches the torsion branch.
    # On the unmutated corpus the elimination test above compares them
    import hyparr.osalgebra as osalgebra
    from hyparr.intlinalg import snf_divisors

    real = osalgebra._f0_coordinates
    monkeypatch.setattr(osalgebra, "_f0_coordinates",
                        lambda *args: {t: 2 * v for t, v in real(*args).items()})
    torsion = 0
    for arr in itertools.islice(direct_construction_inputs(), 286, None):  # past the graphs
        for q in range(2, arr.rank() + 1):
            lat = ideal_lattice(arr, IdealKind.DECOMPOSABLE, q)
            assert lat.divisors() == snf_divisors(lat.hnf.rows_sorted()), (arr.normals, q)
            # IND reads the same rows in FULL coordinates, independently of M
            ind = quotient_invariants_graded(arr, "IND", q)
            assert ind.torsion_factors == tuple(lat.torsion()), (arr.normals, q)
            assert lat.rank_over(FieldSpec(2)) == lat.rank - len(lat.torsion())
            torsion += bool(lat.torsion())
    assert torsion >= 20, torsion


def test_full_rows_are_written_only_where_read(monkeypatch, tmp_path):
    # a non-qualifying analyze reads FULL and DECOMPOSABLE for ranks and
    # divisors alone: no FULL lattice writes its rows, and building M
    # writes single FULL rows only in degrees where F0 is not empty
    import hyparr.osalgebra as osalgebra
    from hyparr.cli import main, parse_input

    path = {(1, 2), (2, 3), (3, 4), (4, 5)}
    graphs = {
        "k6.graph": (6, itertools.combinations(range(1, 7), 2)),
        "k7-minus-path.graph": (7, (e for e in itertools.combinations(range(1, 8), 2) if e not in path)),
    }
    written, wholesale, hit = [], [], 0
    real_row = osalgebra._FullRows.row

    def row(self, t):
        written.append(self.degree)
        return real_row(self, t)

    for name, (k, edges) in graphs.items():
        src = tmp_path / name
        src.write_text(f"graph {k}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        arr = parse_input(str(src))
        f0_degrees = set()
        for q in range(arr.rank() + 1):
            full = ideal_lattice(arr, IdealKind.FULL, q).hnf
            if any(len(row) == q + 1 for row in full.pivots.values()):
                f0_degrees.add(q)
        assert f0_degrees and f0_degrees != set(range(2, arr.rank() + 1)), (name, f0_degrees)
        with monkeypatch.context() as m:
            m.setattr(osalgebra._FullRows, "row", row)
            m.setattr(osalgebra._FullRows, "write", lambda self: wholesale.append(self.degree))
            written.clear()
            assert main(["analyze", "--input", str(src), "--json", str(tmp_path / "out.json")]) == 2
        assert wholesale == [], name
        assert set(written) <= f0_degrees, (name, sorted(set(written)), f0_degrees)
        hit += bool(written)
    assert hit  # K6 has F0 only in degree 2, where no product has S nonempty


def test_m_reduces_only_the_products_that_can_change_it(monkeypatch):
    # B4 in degree 4: 2,887 products are left once those that are FULL rows
    # are dropped, and M is Z^F0 after the 859th; 385 of those 859 have only
    # dependent terms, so 474 are reduced.  Without the stop 2,323 would be
    # reduced, and without the dependent-term skip 859
    import hyparr.osalgebra as osalgebra

    real = osalgebra._f0_coordinates
    found = []

    def counted(*args):
        proj = real(*args)
        found.append(bool(proj))
        return proj

    monkeypatch.setattr(osalgebra, "_f0_coordinates", counted)
    arr = coxeter_b(4)
    full = ideal_lattice(arr, IdealKind.FULL, 4)
    dec = ideal_lattice(arr, IdealKind.DECOMPOSABLE, 4)
    assert 0 < len(found) < 859 and any(found), len(found)
    assert dec.rank == full.rank  # M = Z^F0: degree 4 has no indecomposables


def test_direct_quadratic_matches_elimination():
    # products of the Groebner basis against eliminating the generators
    wide = unit_degrees = 0
    for arr in direct_construction_inputs():
        for q in range(arr.n + 1):
            lat = ideal_lattice(arr, IdealKind.QUADRATIC, q)
            oracle = elimination_oracle(arr, IdealKind.QUADRATIC, q)
            assert lat.rank == oracle.rank, (arr.normals, q)
            assert sorted(lat.divisors()) == sorted(oracle.divisors())
            assert all(lat.contains(row) for row in oracle.rows_sorted())
            if lat.saturated:
                unit_degrees += 1  # H(Abar)_q = 0: all of Z^ncols, no rows stored
                continue
            assert all(oracle.contains(row) for row in lat.hnf.rows_sorted())
            if any(len(row) > 3 for row in lat.hnf.pivots.values()):
                # e_M ^ delta(e_C) has at most 3 terms, so this row is the
                # product of a basis element that is not a generator
                wide += 1
    assert wide >= 20 and unit_degrees >= 20, (wide, unit_degrees)


def test_quadratic_falls_back_to_elimination_on_a_non_unit_lead(monkeypatch):
    # a Groebner basis with a lead of 2 proves nothing over Z, so the
    # generators are eliminated instead, and Abar over F_p is read off
    # those lattices' Smith divisors rather than the series over Q
    import hyparr.osalgebra as osalgebra

    real = osalgebra._abar_groebner

    def doubled(a):
        series, basis = real(a)
        lead, g = basis[-1]
        return series, basis[:-1] + [(lead, {t: 2 * c for t, c in g.items()})]

    streams = []
    stream = osalgebra._generator_stream

    def counted(a, kind, q):
        streams.append((kind, q))
        return stream(a, kind, q)

    monkeypatch.setattr(osalgebra, "_abar_groebner", doubled)
    monkeypatch.setattr(osalgebra, "_generator_stream", counted)
    arr = from_graph(make_graph(5, set(itertools.combinations(range(5), 2)) - {(0, 1)}))
    oracles = [
        IdealLattice(IdealKind.QUADRATIC, q, comb(arr.n, q),
                     elimination_oracle(arr, IdealKind.QUADRATIC, q))
        for q in range(arr.n + 1)
    ]
    for f in (FieldSpec(2), FieldSpec(3)):
        want = tuple(lat.ncols - lat.rank_over(f) for lat in oracles)
        assert hilbert(arr, "Abar", f).coefficients == want, f
    assert (IdealKind.QUADRATIC, 2) in streams  # the F_p route built lattices
    assert hilbert(arr, "Abar", RATIONALS).coefficients == real(arr)[0]
    for q in range(arr.n + 1):
        lat = ideal_lattice(arr, IdealKind.QUADRATIC, q)
        assert (IdealKind.QUADRATIC, q) in streams
        oracle = elimination_oracle(arr, IdealKind.QUADRATIC, q)
        assert lat.rank == oracle.rank, q
        assert sorted(lat.divisors()) == sorted(oracle.divisors())
        assert all(oracle.contains(row) for row in lat.hnf.rows_sorted())
        assert all(lat.contains(row) for row in oracle.rows_sorted())


def test_eliminate_and_reduce_at_a_non_unit_lead():
    # no Groebner lead seen so far is a non-unit, so only a hand-built case
    # reaches the scaling of f, the f[m] // x step and the content removal.
    # Masks are monomials, bit i for e_i; the lead of a polynomial is its
    # largest mask
    from math import gcd

    from hyparr.exterior import ExteriorElement

    def element(f):
        (deg,) = {m.bit_count() for m in f}
        return ExteriorElement(deg, {tuple(i for i in range(4) if m >> i & 1): c
                                     for m, c in f.items()})

    lead = 0b0110
    g = {lead: 3, 0b0011: 1, 0b0101: -2}  # 3 e_12 + e_01 - 2 e_02
    f = {0b1110: 2, 0b1011: 2, 0b0111: 2}  # 2 e_123 + 2 e_013 + 2 e_012
    m, rest = 0b1110, 0b1000
    rest_g = wedge(generator(3), element(g))
    x = rest_g.terms[(1, 2, 3)]  # e_3 ^ e_12 = e_123: x = 3, not a unit
    assert x == 3
    want = element(f).scale(x) - rest_g.scale(f[m])
    content = gcd(*want.terms.values())
    assert content == 2  # the content removal is reached
    want = ExteriorElement(want.degree, {t: c // content for t, c in want.terms.items()})

    out = dict(f)
    _eliminate(out, m, lead, g)
    assert m not in out
    assert element(out) == want
    # top reduction stops at e_023 (0b1101), which lead 0b0110 does not
    # divide, though a lower term, e_012 (0b0111), is still a multiple of it
    assert max(out) == 0b1101 and 0b0111 in out
    reduced = _reduce(dict(f), [(lead, g)])
    assert reduced == out
    untouched = {0b1001: 1, 0b0110: 5}
    assert _reduce(dict(untouched), [(lead, g)]) == untouched


def groebner_inputs():
    """n = 0, n = 1, the fixtures, the 6-vertex corpus and 300 seeded {-1,0,1} inputs."""
    from hyparr.cli import parse_input

    yield build(2, [])
    yield build(1, [[1]])
    yield boolean(4)  # no 3-circuit: I_2 = 0
    yield from (parse_input(str(p)) for p in sorted(FIXTURES.iterdir()))
    yield from (from_graph(g) for g in connected_graph_reps(6))
    gen = random.Random(1990)
    for _ in range(300):
        yield small_entries(gen, gen.choice((3, 4, 5)), gen.randint(3, 10))


def test_groebner_series_matches_the_quadratic_lattices():
    # H(Abar) read off the Groebner basis of <I_2> against the ranks of the
    # QUADRATIC lattices found by eliminating their generators over Z (the
    # production lattices are written from that same basis), in every
    # degree and field
    fields = (RATIONALS, FieldSpec(2), FieldSpec(3))
    equal = gaps = 0
    for arr in groebner_inputs():
        oracles = [
            IdealLattice(IdealKind.QUADRATIC, q, comb(arr.n, q),
                         elimination_oracle(arr, IdealKind.QUADRATIC, q))
            for q in range(arr.n + 1)
        ]
        for f in fields:
            want = tuple(lat.ncols - lat.rank_over(f) for lat in oracles)
            assert hilbert(arr, "Abar", f).coefficients == want, (arr.normals, f)
        habar, ha = (hilbert(arr, x, RATIONALS).coefficients for x in ("Abar", "A"))
        equal += habar == ha
        gaps += habar != ha
    # series that stop at the floor b_q in every degree, and series above it
    assert equal >= 100 and gaps >= 100, (equal, gaps)


def test_standard_set_walk_matches_a_brute_force_count():
    # one walk over a window of sizes, as used once the basis is complete,
    # against counting the k-sets that contain no lead one by one
    from hyparr.osalgebra import _count_standard

    rng = random.Random(1987)
    for _ in range(300):
        n = rng.randint(1, 10)
        leads = [rng.randrange(1, 1 << n) for _ in range(rng.randint(0, 8))]
        lo = rng.randint(0, n)
        hi = rng.randint(lo, n)
        want = [
            sum(1 for t in range(1 << n)
                if t.bit_count() == k and not any(m & t == m for m in leads))
            for k in range(lo, hi + 1)
        ]
        assert _count_standard(n, lo, hi, leads) == want, (n, leads, lo, hi)


def test_groebner_series_survives_relabelling():
    # the basis depends on the hyperplane order; the series must not.  The
    # inputs: the fixtures (D4 among them), K6, B4 and K7 minus a path
    from hyparr.cli import parse_input

    inputs = [parse_input(str(p)) for p in sorted(FIXTURES.iterdir())]
    inputs.append(from_graph(make_graph(6, itertools.combinations(range(6), 2))))
    inputs.append(coxeter_b(4))
    path = {(0, 1), (1, 2), (2, 3), (3, 4)}
    inputs.append(from_graph(make_graph(7, sorted(set(itertools.combinations(range(7), 2)) - path))))
    fields = (RATIONALS, FieldSpec(2))
    rng = random.Random(2024)
    for arr in inputs:
        expected = [hilbert(arr, "Abar", f).coefficients for f in fields]
        for _ in range(3):
            copy = shuffled(arr, rng)
            got = [hilbert(copy, "Abar", f).coefficients for f in fields]
            assert got == expected, copy.normals


def test_groebner_series_raises_below_the_broken_circuit_floor(monkeypatch):
    # at least b_q q-sets are standard for <I_2>; K4 has 20 3-sets, so a
    # floor raised past 20 in degree 3 must be reported, not reached
    from hyparr.arrangement import Arrangement

    arr = from_graph(make_graph(4, itertools.combinations(range(4), 2)))
    betti = arr.betti_mobius()
    monkeypatch.setattr(Arrangement, "betti_mobius", lambda self: betti[:3] + [betti[3] + 20])
    with pytest.raises(InternalInvariantViolation, match="below b_3 = 26"):
        hilbert(arr, "Abar", RATIONALS)


def test_full_rank_check_raises_on_a_wrong_betti_number(monkeypatch):
    from hyparr.arrangement import Arrangement

    arr = from_graph(THETA)
    betti = arr.betti_mobius()
    monkeypatch.setattr(Arrangement, "betti_mobius", lambda self: betti[:2] + [betti[2] + 1] + betti[3:])
    with pytest.raises(InternalInvariantViolation):
        ideal_lattice(arr, IdealKind.FULL, 2)


def test_quadratic_rank_check_raises_on_a_wrong_betti_number(monkeypatch):
    # Q^2 = I^2 always, so the unit-lead family of degree 2 already has
    # C(n, 2) - b_2 rows, one more than the wrong count allows; K4 has
    # triangles, so its quadratic ideal is not zero
    from hyparr.arrangement import Arrangement

    arr = from_graph(make_graph(4, itertools.combinations(range(4), 2)))
    betti = arr.betti_mobius()
    monkeypatch.setattr(Arrangement, "betti_mobius", lambda self: betti[:2] + [betti[2] + 1] + betti[3:])
    with pytest.raises(InternalInvariantViolation):
        ideal_lattice(arr, IdealKind.QUADRATIC, 2)


def test_quadratic_pivot_that_the_full_lattice_lacks_raises(monkeypatch):
    # Q lies in I, so up to the rank every QUADRATIC pivot is a FULL pivot;
    # K4 has Q^2 = I^2, so dropping one FULL pivot must be reported
    import hyparr.osalgebra as osalgebra

    arr = from_graph(make_graph(4, itertools.combinations(range(4), 2)))
    real = osalgebra._full_rows

    def thinned(a, q):
        full = real(a, q)
        claims = dict(full.claims)
        del claims[min(claims)]
        return osalgebra._FullRows(q, full.col_of, full.dependent, claims)

    monkeypatch.setattr(osalgebra, "_full_rows", thinned)
    with pytest.raises(InternalInvariantViolation, match=r"has a pivot that I\^2 lacks"):
        osalgebra._quadratic_basis(arr, 2)


def invariants(arr):
    from hyparr.homotopy import (
        gr0_rank,
        gr1_invariants,
        mu_presentation,
        torsion_and_rank_report,
    )
    from hyparr.hypersolvable import classify, p_order

    cls = classify(arr)
    table = r_table(arr)
    out = (
        arr.betti_mobius(),
        [hilbert(arr, quotient, RATIONALS).coefficients for quotient in ("A", "Abar", "Aplus", "IND")],
        [f.characteristic for f in table.fields],
        table.values,
        p_order(arr),
        cls.hypersolvable,
        cls.supersolvable,
        sorted(cls.series.exponents) if cls.series else None,
    )
    if not cls.hypersolvable or cls.supersolvable:
        return out
    # the mu matrix itself is written in order-dependent bases; its shape
    # and everything read off it are not
    pres = mu_presentation(arr)
    report, _ = torsion_and_rank_report(arr)
    return out + (
        gr1_invariants(arr),
        gr0_rank(arr),
        (len(pres.rows), len(pres.col_basis)),
        (report.gr1_torsion_free, report.a_plus_free_p2, report.ind_free_p2),
    )


def test_invariants_survive_reordering_and_rescaling():
    # the Groebner basis behind H(Abar) and the QUADRATIC lattices depends
    # on the hyperplane order; the invariants built on it must not, nor on
    # the length of a normal
    from hyparr.cli import parse_input

    inputs = [parse_input(str(p)) for p in sorted(FIXTURES.iterdir())]
    inputs += [from_graph(make_graph(6, itertools.combinations(range(6), 2))), coxeter_b(4)]
    gen = random.Random(1998)
    inputs += [small_entries(gen, 4, 8) for _ in range(10)]
    rng = random.Random(2003)
    for arr in inputs:
        expected = invariants(arr)
        normals = [list(v) for v in arr.normals]
        k = rng.randrange(len(normals))
        scale = rng.choice((-2, 3))
        normals[k] = [scale * x for x in normals[k]]
        rng.shuffle(normals)
        assert invariants(build(arr.ambient_dim, normals)) == expected, arr.normals


def test_homotopy_invariants_survive_relabelling_vertices():
    from hyparr.hypersolvable import classify

    rng = random.Random(1996)
    graphs = list(connected_graph_reps(6))
    qualifying = []
    for g in rng.sample(graphs, len(graphs)):
        cls = classify(from_graph(g))
        if cls.hypersolvable and not cls.supersolvable:
            qualifying.append(g)
        if len(qualifying) == 6:
            break
    for g in qualifying:
        expected = invariants(from_graph(g))
        assert len(expected) == 12
        perm = list(range(6))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in g.edges]
        assert invariants(from_graph(make_graph(6, edges))) == expected, g.edges


def unimodular(rng, d):
    """A seeded random matrix of GL_d(Z): row shears, then a signed row permutation."""
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(3 * d if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    rng.shuffle(m)
    return [[rng.choice((-1, 1)) * x for x in row] for row in m]


def matroid_data(arr):
    lat = arr.intersection_lattice()
    return (
        lat.flats,
        lat.rank_of,
        lat.mobius,
        arr.circuits(),
        arr.pair_closures(),
        lat.has_modular_chain(),
        [arr.chordless_circuits(s) for s in range(3, min(arr.n, arr.rank() + 1) + 1)],
    )


def test_invariants_survive_a_change_of_coordinates():
    # the matroid layer reduces the normals in their coordinates; nothing
    # it returns, and nothing built on it, may depend on those coordinates
    from hyparr.cli import parse_input

    inputs = [parse_input(str(p)) for p in sorted(FIXTURES.iterdir())]
    inputs += [from_graph(make_graph(6, itertools.combinations(range(6), 2))), coxeter_b(4)]
    gen = random.Random(1931)
    inputs += [small_entries(gen, 4, 8) for _ in range(10)]
    rng = random.Random(1937)
    for arr in inputs:
        expected = (matroid_data(arr), invariants(arr))
        d = arr.ambient_dim
        m = unimodular(rng, d)
        moved = [[sum(m[i][j] * v[j] for j in range(d)) for i in range(d)] for v in arr.normals]
        scaled = [list(v) for v in arr.normals]
        k = rng.randrange(len(scaled))
        scale = rng.choice((-3, -2, 2, 5))
        scaled[k] = [scale * x for x in scaled[k]]
        for normals in (moved, scaled):
            copy = build(d, normals)
            assert (matroid_data(copy), invariants(copy)) == expected, (arr.normals, normals)


def test_mu_matrices_of_6_vertex_graphs_frozen():
    # sha256 recorded with the elimination-built ideal bases; the mu matrix
    # is written in the full ideal's basis, so it pins the basis rows too
    from hyparr.homotopy import mu_presentation
    from hyparr.hypersolvable import classify

    digest = hashlib.sha256()
    count = 0
    for g in connected_graph_reps(6):
        arr = from_graph(g)
        cls = classify(arr)
        if cls.hypersolvable and not cls.supersolvable:
            count += 1
            digest.update(json.dumps(mu_presentation(arr).matrix).encode() + b"\n")
    assert count == 48
    assert digest.hexdigest() == (
        "8bae29bed108e4e7e002db7450e0e9ecb407a7cebc09d588797020b864a92163"
    )
