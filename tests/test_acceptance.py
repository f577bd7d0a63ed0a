"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  All comparisons are exact integer equalities; the time limits are
the stated desktop targets.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from hyparr.arrangement import from_graph
from hyparr.cli import main, parse_input
from hyparr.exterior import delta, monomial, wedge
from hyparr.graphs import connected_graph_reps, is_chordal
from hyparr.homotopy import gr1_invariants, mu_presentation, torsion_and_rank_report
from hyparr.hypersolvable import classify, composition_series
from hyparr.intlinalg import (
    FieldSpec,
    RATIONALS,
    quotient_invariants,
    smith_normal_form,
    transpose,
)
from hyparr.osalgebra import (
    IdealKind,
    hilbert,
    ideal_membership,
    quotient_invariants_graded,
    r_table,
)

from test_intlinalg import cokernel_oracle_check, rand_matrix
from helpers import FIXTURES

ACCEPT_FIELDS = [RATIONALS, FieldSpec(2), FieldSpec(3), FieldSpec(5)]


@contextmanager
def criterion(num, limit_s):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num}: FAIL")
        raise
    elapsed = time.monotonic() - t0
    assert elapsed < limit_s, f"criterion {num} took {elapsed:.1f}s > {limit_s}s"
    print(f"\nACCEPTANCE {num}: PASS ({elapsed:.1f}s)")


# ------------------------------------------------------------ criterion 1


def test_acceptance_1_twogen6():
    with criterion(1, 10):
        arr = parse_input(str(FIXTURES / "twogen6.arr"))
        # chordless 5-circuits are exactly {x,y,z,t,H} and {x,y,z,t,P}
        assert arr.chordless_circuits(5) == [(0, 1, 2, 3, 4), (0, 1, 2, 3, 5)]
        # {y,z,H,P} and {x,t,H,P} are 4-circuits
        four = arr.circuits(4)
        assert (1, 2, 4, 5) in four and (0, 3, 4, 5) in four
        # r_4 <= 1 in Q, F2, F3, F5
        for f in ACCEPT_FIELDS:
            assert hilbert(arr, "IND", f).coefficients[4] <= 1
        # delta(e_C5) - delta(e_C5') lies in the decomposable ideal lattice
        diff = delta(monomial((0, 1, 2, 3, 4))) - delta(monomial((0, 1, 2, 3, 5)))
        assert ideal_membership(arr, diff, IdealKind.DECOMPOSABLE)


# ------------------------------------------------------------ criterion 2


def test_acceptance_2_twogen7():
    with criterion(2, 10):
        arr = parse_input(str(FIXTURES / "twogen7.arr"))
        cprime = (0, 1, 2, 3, 5, 6)
        for combo in itertools.combinations(cprime, 4):
            assert arr.subset_rank(combo) == 4
        c, two_generic = arr.c_and_genericity()
        assert c == 4 and two_generic
        # delta_4 restricted to the span of chordless 5-circuit monomials
        # has nonzero kernel containing delta(e_C')
        chordless = arr.chordless_circuits(5)
        top = delta(monomial(cprime))
        assert not top.is_zero()
        assert set(top.terms) <= set(chordless)
        assert delta(top).is_zero()  # the kernel vector maps to zero


# ------------------------------------------------------------ criterion 3


def test_acceptance_3_theta():
    with criterion(3, 60):
        arr = parse_input(str(FIXTURES / "theta6.graph"))
        cls = classify(arr)
        assert cls.hypersolvable and not cls.supersolvable
        assert cls.p == 2 and cls.r == 5
        gr1 = gr1_invariants(arr)
        assert gr1.torsion_factors == ()
        rep, book = torsion_and_rank_report(arr)
        # generic SNF pipeline equals the closed formula with r_4 = 0
        assert book["r_p2"] == 0 == book["chordless_p3"]
        assert book["gr1_rank"] == book["corollary_rank"]
        # betti numbers match chromatic coefficient magnitudes
        from hyparr.graphs import chromatic_polynomial

        coeffs = chromatic_polynomial(arr.source_graph)
        n = arr.source_graph.vertex_count
        assert arr.betti_mobius() == [abs(coeffs[n - i]) for i in range(arr.rank() + 1)]


# ------------------------------------------------------------ criterion 4


def test_acceptance_4_d4():
    with criterion(4, 60):
        arr = parse_input(str(FIXTURES / "d4.arr"))
        assert composition_series(arr) is None
        # not quadratic: the full and quadratic quotients differ somewhere
        ha = hilbert(arr, "A", RATIONALS).coefficients
        hq = hilbert(arr, "Abar", RATIONALS).coefficients
        assert ha != hq
        # the first gap: degree 4 (45 vs 48)
        assert ha[:4] == hq[:4] and ha[4] == 45 and hq[4] == 48


@pytest.mark.xfail(
    strict=True,
    reason="for D4 the full and quadratic quotients have equal rank in degree 3 "
    "(both 84; confirmed by three independent eliminations); the gap first "
    "appears in degree 4",
)
def test_acceptance_4_literal_degree3_inequality():
    arr = parse_input(str(FIXTURES / "d4.arr"))
    ha = hilbert(arr, "A", RATIONALS).coefficients
    hq = hilbert(arr, "Abar", RATIONALS).coefficients
    print(f"\nACCEPTANCE 4 (literal degree-3 clause): FAIL expected "
          f"(rank A^3 = {ha[3]} = rank Abar^3 = {hq[3]})")
    assert ha[3] != hq[3]


# ------------------------------------------------------------ criterion 5


@pytest.fixture(scope="module")
def corpus_results():
    """One pass over all connected graphs with <= 6 vertices."""
    results = []
    for g in connected_graph_reps(6):
        arr = from_graph(g)
        cls = classify(arr)
        entry = {"graph": g, "arr": arr, "cls": cls}
        if cls.hypersolvable and not cls.supersolvable:
            entry["report"], entry["book"] = torsion_and_rank_report(arr)
            entry["gr1"] = gr1_invariants(arr)
            entry["mu"] = mu_presentation(arr)
        results.append(entry)
    return results


def test_acceptance_5_corpus(corpus_results):
    with criterion(5, 600):
        assert len(corpus_results) == 143
        qualifying = 0
        for entry in corpus_results:
            g, arr, cls = entry["graph"], entry["arr"], entry["cls"]
            # (a) supersolvable iff chordal
            assert cls.supersolvable == is_chordal(g), g
            # (b) A torsion-free in every degree
            for q in range(arr.n + 1):
                assert quotient_invariants_graded(arr, "A", q).is_free, (g, q)
            # (c) quadratic quotient torsion-free
            for q in range(arr.n + 1):
                assert quotient_invariants_graded(arr, "Abar", q).is_free, (g, q)
            # (d) torsion equivalences agree and hold
            if "report" in entry:
                qualifying += 1
                rep = entry["report"]
                assert rep.gr1_torsion_free and rep.a_plus_free_p2 and rep.ind_free_p2
            # (e) exponent product = quadratic Hilbert series is enforced by
            # classify(); check explicitly
            if cls.hypersolvable:
                poly = [1]
                for d in cls.series.exponents:
                    poly = [x + d * y for x, y in zip(poly + [0], [0] + poly)]
                habar = list(hilbert(arr, "Abar", RATIONALS).coefficients)
                poly += [0] * (len(habar) - len(poly))
                assert poly == habar, g
            # betti numbers = chromatic coefficient magnitudes, every member
            from hyparr.graphs import chromatic_polynomial

            coeffs = chromatic_polynomial(g)
            b = arr.betti_mobius()
            assert b == [abs(coeffs[g.vertex_count - i]) for i in range(len(b))], g
            # supersolvable members: A and Abar agree in all degrees and fields
            if cls.supersolvable:
                for f in ACCEPT_FIELDS:
                    assert (
                        hilbert(arr, "A", f).coefficients
                        == hilbert(arr, "Abar", f).coefficients
                    ), (g, f)
            # (f) r_2 field-independent, r_m = 0 above the rank
            table = r_table(arr)
            assert table.field_independent[2] if arr.n >= 2 else True
            for m, vals in enumerate(table.values):
                if m > arr.rank():
                    assert all(v == 0 for v in vals), (g, m)
        assert qualifying == 48
        print(f"corpus: 143 graphs, {qualifying} qualifying", end=" ")


# ------------------------------------------------------------ criterion 6


def test_acceptance_6_property_suites(corpus_results):
    with criterion(6, 120):
        rng = random.Random(20250808)
        # delta^2 = 0 and the graded Leibniz rule
        from hyparr.exterior import ExteriorElement, basis

        def rand_elt(n, q):
            mons = basis(n, q)
            terms = {}
            for _ in range(3):
                t = mons[rng.randrange(len(mons))]
                c = rng.randint(-4, 4)
                if c:
                    terms[t] = terms.get(t, 0) + c
            return ExteriorElement(q, {t: c for t, c in terms.items() if c})

        for _ in range(40):
            n = rng.randint(2, 7)
            u = rand_elt(n, rng.randint(0, n))
            v = rand_elt(n, rng.randint(0, n))
            assert delta(delta(u)).is_zero()
            sign = -1 if u.degree % 2 else 1
            assert delta(wedge(u, v)) == wedge(delta(u), v) + wedge(
                u, delta(v)
            ).scale(sign)

        # SNF divisor chains and transpose invariance
        for _ in range(30):
            m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), -7, 7)
            divs = smith_normal_form(m).divisors
            for a, b in zip(divs, divs[1:]):
                assert b % a == 0
            assert divs == smith_normal_form(transpose(m)).divisors

        # rank bookkeeping identity on every qualifying corpus member
        for entry in corpus_results:
            if "mu" not in entry:
                continue
            pres, gr1, book = entry["mu"], entry["gr1"], entry["book"]
            n = entry["arr"].n
            assert gr1.free_rank == n * pres.gr0_rank - book["mu_rank"]
            assert gr1.free_rank == book["corollary_rank"]

        # quotient invariants against brute-force cokernel enumeration
        for _ in range(60):
            ambient = rng.randint(1, 3)
            gens = rand_matrix(rng, rng.randint(0, 4), ambient, -4, 4)
            inv = quotient_invariants(ambient, gens)
            cokernel_oracle_check(ambient, gens, inv)


# ------------------------------------------------------------ criterion 7


def test_acceptance_7_determinism(tmp_path):
    with criterion(7, 60):
        fixtures = [
            "k3.graph",
            "theta6.graph",
            "twogen6.arr",
            "twogen7.arr",
            "d4.arr",
            "boolean3.arr",
            "boolean4.arr",
        ]
        for name in fixtures:
            a = tmp_path / (name + ".a.json")
            b = tmp_path / (name + ".b.json")
            for out in (a, b):
                code = main(
                    ["analyze", "--input", str(FIXTURES / name), "--json", str(out)]
                )
                assert code in (0, 2)
            assert a.read_bytes() == b.read_bytes(), name
        s1 = tmp_path / "s1.jsonl"
        s2 = tmp_path / "s2.jsonl"
        for out in (s1, s2):
            assert (
                main(
                    ["search", "--family", "random2g", "--max-size", "9",
                     "--seed", "7", "--count", "4", "--output", str(out)]
                )
                == 0
            )
        assert s1.read_bytes() == s2.read_bytes()
        g1 = tmp_path / "g1.jsonl"
        g2 = tmp_path / "g2.jsonl"
        for out in (g1, g2):
            assert (
                main(
                    ["search", "--family", "graphic", "--max-size", "5",
                     "--output", str(out)]
                )
                == 0
            )
        assert g1.read_bytes() == g2.read_bytes()
