"""Outside-in spans and counters for the traced benchmark run.

Nothing under ``src/`` knows about these spans.  ``install`` replaces each
named function or method with a timing wrapper, in every ``hyparr`` module
namespace that binds it: ``from`` imports make copies (``cli.classify``,
``homotopy.classify``, ``hypersolvable.hilbert``, ...), and every copy must
be wrapped or calls through it go unseen.  Methods are wrapped at the class
attribute.

A span's self time is its duration minus the time of the spans it called,
so the self times of all spans add up to the time spent inside the
outermost spans.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import Counter, defaultdict


# The per-layer metrics a traced run reports, zero where a workload does not
# reach the layer: self time of each span, and exact counts.
SPANS = (
    "osalgebra.ideal_lattice.full",
    "osalgebra.ideal_lattice.quadratic",
    "osalgebra.ideal_lattice.decomposable",
    "osalgebra.hilbert",
    "osalgebra.r_table",
    "osalgebra.quotient_invariants_graded",
    "arrangement.has_modular_chain",
    "arrangement.IntersectionLattice",
    "arrangement.circuits",
    "arrangement.chordless_circuits",
    "arrangement.c_and_genericity",
    "arrangement.betti_mobius",
    "hypersolvable.classify",
    "hypersolvable.composition_series",
    "hypersolvable.is_supersolvable",
    "hypersolvable.p_order",
    "homotopy.mu_presentation",
    "homotopy.gr1_invariants",
    "homotopy.torsion_and_rank_report",
    "intlinalg.snf_divisors",
    "graphs.canonical_form",
    "graphs.connected_graph_reps",
    "report.build_report",
    "report.serialize",
    "report.render_text",
    "cli.parse_input",
    "cli.instance",
    "cli.main",
)
COUNTS = (
    "osalgebra.ideal_lattice.builds",
    "osalgebra.ideal_lattice.hits",
    "osalgebra.ideal_lattice.cols_built",
    "osalgebra.ideal_lattice.rank_built",
    "osalgebra.ideal_lattice.nonunit_pivot_lattices",
    "arrangement.has_modular_chain.calls",
    "arrangement.flats",
    "hypersolvable.classify.calls",
    "homotopy.mu_entries",
    "intlinalg.snf_divisors.calls",
    "intlinalg.snf_divisors.rows_in",
    "graphs.canonical_form.calls",
    "graphs.classes",
)


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.instance_s: list[float] = []  # inclusive time of each search instance
        self._open: list[float] = []  # child time of each open span
        # objects each arrangement has already returned, to tell a cache hit
        # from a build without reading the program's cache keys
        self._returned: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def wrap(self, fn, name, after=None, samples=None):
        """Time ``fn`` under ``name`` (a string, or a function of the call's
        positional arguments); ``after(args, result)`` then updates counters,
        and each call's inclusive time is appended to ``samples`` if given."""
        open_spans = self._open
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                self_s[label] += took - open_spans.pop()
                if open_spans:
                    open_spans[-1] += took
                counts[label + ".calls"] += 1
                if samples is not None:
                    samples.append(took)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def first_return(self, arrangement, obj) -> bool:
        """True the first time ``arrangement``'s cache hands out ``obj``.

        The arrangement keeps its cached objects alive, so an ``id`` is not
        reused while the arrangement lives."""
        seen = self._returned.setdefault(arrangement, set())
        if id(obj) in seen:
            return False
        seen.add(id(obj))
        return True

    # ------------------------------------------------------ counters

    def _ideal_lattice(self, args, lat) -> None:
        c = self.counts
        if not self.first_return(args[0], lat):
            c["osalgebra.ideal_lattice.hits"] += 1
            return
        c["osalgebra.ideal_lattice.builds"] += 1
        c["osalgebra.ideal_lattice.cols_built"] += lat.ncols
        c["osalgebra.ideal_lattice.rank_built"] += lat.rank
        if not lat.saturated and not lat.hnf.all_unit_pivots():
            c["osalgebra.ideal_lattice.nonunit_pivot_lattices"] += 1

    def _mu_presentation(self, args, pres) -> None:
        if self.first_return(args[0], pres):
            rows = len(pres.matrix)
            self.counts["homotopy.mu_entries"] += rows * (len(pres.matrix[0]) if rows else 0)

    def _intersection_lattice(self, args, _result) -> None:
        self.counts["arrangement.flats"] += len(args[0].flats)

    def _snf_divisors(self, args, _result) -> None:
        self.counts["intlinalg.snf_divisors.rows_in"] += len(args[0])

    def _connected_graph_reps(self, _args, reps) -> None:
        self.counts["graphs.classes"] += len(reps)

    # --------------------------------------------------- installation

    def install(self) -> None:
        from hyparr import arrangement, cli, graphs, homotopy, hypersolvable, intlinalg
        from hyparr import osalgebra, report

        def kind_name(args):
            return f"osalgebra.ideal_lattice.{args[1].value}"

        functions = [
            (osalgebra, "ideal_lattice", kind_name, self._ideal_lattice),
            (osalgebra, "hilbert", "osalgebra.hilbert", None),
            (osalgebra, "r_table", "osalgebra.r_table", None),
            (osalgebra, "quotient_invariants_graded", "osalgebra.quotient_invariants_graded", None),
            (hypersolvable, "classify", "hypersolvable.classify", None),
            (hypersolvable, "composition_series", "hypersolvable.composition_series", None),
            (hypersolvable, "is_supersolvable", "hypersolvable.is_supersolvable", None),
            (hypersolvable, "p_order", "hypersolvable.p_order", None),
            (homotopy, "mu_presentation", "homotopy.mu_presentation", self._mu_presentation),
            (homotopy, "gr1_invariants", "homotopy.gr1_invariants", None),
            (homotopy, "torsion_and_rank_report", "homotopy.torsion_and_rank_report", None),
            (intlinalg, "snf_divisors", "intlinalg.snf_divisors", self._snf_divisors),
            (graphs, "canonical_form", "graphs.canonical_form", None),
            (graphs, "connected_graph_reps", "graphs.connected_graph_reps", self._connected_graph_reps),
            (report, "build_report", "report.build_report", None),
            (report, "canonical_json_bytes", "report.serialize", None),
            (report, "canonical_json_line", "report.serialize", None),
            (report, "render_text", "report.render_text", None),
            (cli, "parse_input", "cli.parse_input", None),
            (cli, "main", "cli.main", None),
            (cli, "_random_worker", "cli.instance", None),
        ]
        methods = [
            (arrangement.IntersectionLattice, "__init__", "arrangement.IntersectionLattice",
             self._intersection_lattice),
            (arrangement.IntersectionLattice, "has_modular_chain", "arrangement.has_modular_chain", None),
            (arrangement.Arrangement, "circuits", "arrangement.circuits", None),
            (arrangement.Arrangement, "chordless_circuits", "arrangement.chordless_circuits", None),
            (arrangement.Arrangement, "c_and_genericity", "arrangement.c_and_genericity", None),
            (arrangement.Arrangement, "betti_mobius", "arrangement.betti_mobius", None),
        ]
        namespaces = [m for key, m in sys.modules.items() if key == "hyparr" or key.startswith("hyparr.")]
        for module, attr, name, after in functions:
            original = getattr(module, attr)
            samples = self.instance_s if attr == "_random_worker" else None
            wrapper = self.wrap(original, name, after, samples)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
        for cls, attr, name, after in methods:
            setattr(cls, attr, self.wrap(vars(cls)[attr], name, after))
