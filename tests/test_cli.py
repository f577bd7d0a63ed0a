"""CLI: parsing, exit codes, canonical reports, determinism, search."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from hyparr.arrangement import build, from_graph
from hyparr.cli import main, parse_input
from hyparr.errors import InputError, InternalInvariantViolation, PreconditionError
from hyparr.exterior import ExteriorElement
from hyparr.graphs import make_graph
from hyparr.intlinalg import RATIONALS, AbelianInvariants, hermite_basis, quotient_invariants
from hyparr.osalgebra import (
    IdealKind,
    chordless_span_check,
    ideal_membership,
    quotient_invariants_graded,
    r_table,
)
from hyparr.report import canonical_json_bytes, canonical_json_line
from helpers import FIXTURES, THETA, random2g


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------- parsing


def test_parse_twogen6_fixture():
    arr = parse_input(str(FIXTURES / "twogen6.arr"))
    assert arr.ambient_dim == 4
    assert arr.normals == (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 1, 1, 1),
        (1, -1, -1, 1),
    )


def test_parse_theta_fixture():
    arr = parse_input(str(FIXTURES / "theta6.graph"))
    assert arr.source_graph is not None
    assert arr.n == 7
    # edges re-sorted lexicographically
    assert arr.source_graph.edges == (
        (0, 1), (0, 5), (1, 2), (1, 4), (2, 3), (3, 4), (4, 5),
    )


def test_parse_loop_error(tmp_path):
    path = write(tmp_path, "bad.graph", "graph 3\n1 1\n")
    with pytest.raises(InputError, match="loop"):
        parse_input(path)


def test_parse_error_names_line(tmp_path):
    path = write(tmp_path, "bad.arr", "arrangement 2\n1 0\n# comment\n\n2 0\n")
    with pytest.raises(InputError, match="lines 2 and 5"):
        parse_input(path)


def test_parse_zero_normal_line(tmp_path):
    path = write(tmp_path, "zero.arr", "arrangement 2\n1 1\n0 0\n")
    with pytest.raises(InputError, match="line 3"):
        parse_input(path)


def test_parse_wrong_width(tmp_path):
    path = write(tmp_path, "w.arr", "arrangement 3\n1 0\n")
    with pytest.raises(InputError, match="expected 3 integers"):
        parse_input(path)


def test_parse_graph_multi_edge_names_line(tmp_path):
    path = write(tmp_path, "m.graph", "graph 3\n1 2\n2 3\n# again\n1 2\n")
    with pytest.raises(InputError, match="m.graph:5: multi-edge 1 2"):
        parse_input(path)


def test_parse_format_override_mismatch(tmp_path):
    path = write(tmp_path, "g.graph", "graph 3\n1 2\n")
    with pytest.raises(InputError, match="--format"):
        parse_input(path, fmt="arr")


def test_parse_missing_file():
    with pytest.raises(InputError, match="cannot read"):
        parse_input("/nonexistent/file.arr")


@pytest.mark.parametrize("name, text, message", [
    ("empty.arr", "# nothing here\n\n", ": no content"),
    ("head.arr", "arrangements 2\n1 0\n", ":1: header must be 'arrangement <dim>' or 'graph <n>'"),
    ("size.arr", "\narrangement two\n1 0\n", ":2: bad size 'two'"),
    ("entry.arr", "arrangement 2\n1 0\n1 x\n", ":3: non-integer entry"),
    ("pair.graph", "graph 3\n1 2 3\n", ":2: expected 'u v'"),
    ("vertex.graph", "graph 3\n1 2\n2 c\n", ":3: non-integer vertex"),
    ("range.graph", "graph 3\n1 2\n# next\n3 2\n", ":4: edge 3 2 is not 1 <= u < v <= 3"),
    ("zero.graph", "graph 0\n", ":1: graph needs at least 1 vertex, got 0"),
    ("negative.graph", "# none\ngraph -2\n1 2\n", ":2: graph needs at least 1 vertex, got -2"),
    ("zero.arr", "arrangement 0\n", ":1: ambient dimension must be positive, got 0"),
])
def test_parse_errors_exit1_naming_the_line(capsys, tmp_path, name, text, message):
    path = write(tmp_path, name, text)
    assert main(["analyze", "--input", path]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}{message}\n", err


# ---------------------------------------------------------------- analyze


def test_analyze_without_json_prints_the_text_report(capsys):
    from hyparr.hypersolvable import classify
    from hyparr.report import build_report, render_text

    assert main(["analyze", "--input", str(FIXTURES / "theta6.graph")]) == 0
    out = capsys.readouterr().out
    arr = parse_input(str(FIXTURES / "theta6.graph"))
    assert out == render_text(build_report(arr, classify(arr))[0])


def test_analyze_theta_exit0(tmp_path, capsys):
    out = tmp_path / "theta.json"
    code = main(["analyze", "--input", str(FIXTURES / "theta6.graph"),
                 "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["classification"]["p"] == 2
    assert doc["classification"]["rank"] == 5
    assert doc["homotopy"]["gr1_invariant_factors"] == []
    assert doc["homotopy"]["gr1_rank"] == 6
    text = capsys.readouterr().out
    assert "p=2" in text


def test_analyze_k3_exit2(tmp_path):
    out = tmp_path / "k3.json"
    code = main(["analyze", "--input", str(FIXTURES / "k3.graph"),
                 "--json", str(out)])
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["classification"]["supersolvable"] is True
    assert "homotopy" not in doc


def test_analyze_d4_exit2(tmp_path):
    out = tmp_path / "d4.json"
    code = main(["analyze", "--input", str(FIXTURES / "d4.arr"),
                 "--json", str(out)])
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["classification"]["hypersolvable"] is False
    assert "homotopy" not in doc


def test_analyze_missing_input_exit1(capsys):
    assert main(["analyze", "--input", "/no/such/file"]) == 1
    assert "error:" in capsys.readouterr().err


def test_the_module_entry_point_exits_with_mains_code(capsys, tmp_path):
    # `python -m hyparr.cli` runs the module's __main__ line, which nothing
    # in-process reaches: its exit status must be main's return value
    root = FIXTURES.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "hyparr.cli", "analyze", *argv], cwd=root, env=env,
            capture_output=True, text=True, timeout=120,
        )

    theta = str(FIXTURES / "theta6.graph")
    proc = run("--input", theta, "--json", "-")
    assert proc.returncode == 0, proc.stderr
    assert main(["analyze", "--input", theta, "--json", "-"]) == 0
    assert proc.stdout == capsys.readouterr().out
    assert run("--input", str(FIXTURES / "d4.arr")).returncode == 2
    proc = run("--input", str(tmp_path / "missing.arr"))
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), proc.stderr


def test_analyze_json_to_a_text_stdout_writes_the_same_text(tmp_path):
    # redirect_stdout swaps in a stream with no byte buffer
    import contextlib
    import io

    theta = str(FIXTURES / "theta6.graph")
    out = tmp_path / "theta.json"
    assert main(["analyze", "--input", theta, "--json", str(out)]) == 0
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = main(["analyze", "--input", theta, "--json", "-"])
    assert code == 0
    assert text.getvalue() == out.read_bytes().decode("utf-8")


def test_header_only_arrangement(capsys, tmp_path):
    # no hyperplanes: rank 0 and no circuit of any size
    src = write(tmp_path, "empty.arr", "arrangement 3\n")
    assert main(["analyze", "--input", src]) == 2
    capsys.readouterr()
    assert main(["circuits", "--input", src]) == 0
    assert capsys.readouterr().out == ""


def test_analyze_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        code = main(["analyze", "--input", str(FIXTURES / "twogen6.arr"),
                     "--json", str(out)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_roundtrip_echo(tmp_path):
    out = tmp_path / "r.json"
    main(["analyze", "--input", str(FIXTURES / "twogen7.arr"), "--json", str(out)])
    doc = json.loads(out.read_text())
    echo = doc["input"]
    rebuilt = build(echo["ambient_dim"], echo["normals"])
    original = parse_input(str(FIXTURES / "twogen7.arr"))
    assert rebuilt.normals == original.normals

    out2 = tmp_path / "g.json"
    main(["analyze", "--input", str(FIXTURES / "theta6.graph"), "--json", str(out2)])
    doc2 = json.loads(out2.read_text())
    echo2 = doc2["input"]
    g = make_graph(echo2["vertices"], [(u - 1, v - 1) for u, v in echo2["edges"]])
    assert from_graph(g).normals == parse_input(str(FIXTURES / "theta6.graph")).normals


def test_analyze_fields_flag(tmp_path):
    out = tmp_path / "f.json"
    code = main(["analyze", "--input", str(FIXTURES / "twogen6.arr"),
                 "--fields", "0,7", "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["r_table"]["characteristics"] == [0, 7]


def test_analyze_bad_fields(capsys):
    for fields in ("0,6", "0,x", "0,0"):
        code = main(["analyze", "--input", str(FIXTURES / "twogen6.arr"),
                     "--fields", fields])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, err
    main(["analyze", "--input", str(FIXTURES / "twogen6.arr"), "--fields", "0,3,2,3"])
    assert "characteristic 3 is repeated" in capsys.readouterr().err


def test_usage_errors_exit1(capsys, tmp_path):
    # exit 2 means "analysis done, homotopy skipped"; a malformed command
    # line is bad input
    out = tmp_path / "x.jsonl"
    for argv in (
        ["analyze"],
        ["search", "--family", "graphic", "--max-size", "x", "--output", str(out)],
        ["frobnicate"],
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, err
        assert err.count("\n") == 1, err
    assert not out.exists()
    with pytest.raises(SystemExit) as done:
        main(["analyze", "--help"])
    assert done.value.code == 0


def test_escaped_precondition_error_exits2(capsys, monkeypatch):
    # cmd_analyze returns 2 itself; this pins main's handler for a command
    # that lets a PreconditionError escape
    import hyparr.cli as cli

    def refuse(args):
        raise PreconditionError("not hypersolvable")

    monkeypatch.setattr(cli, "cmd_circuits", refuse)
    assert main(["circuits", "--input", str(FIXTURES / "k3.graph")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "skipped: not hypersolvable\n"
    assert captured.out == ""


def _cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _fields_blank_token_is_skipped(capsys):
    theta6 = str(FIXTURES / "theta6.graph")
    want = _cli(capsys, "analyze", "--input", theta6, "--json", "-", "--fields", "0,3")
    got = _cli(capsys, "analyze", "--input", theta6, "--json", "-", "--fields", "0,,3")
    assert want[0] == 0 and got[:2] == want[:2]


def _fields_empty(capsys):
    got = _cli(capsys, "analyze", "--input", str(FIXTURES / "theta6.graph"), "--fields", ",")
    assert got == (1, "", "error: --fields given but empty\n")


def _circuits_size_below_3(capsys):
    code, out, err = _cli(capsys, "circuits", "--input", str(FIXTURES / "theta6.graph"),
                          "--size", "2")
    assert (code, out, err) == (1, "", "error: circuits have size >= 3, got 2\n")


def _circuits_size_above_n(capsys):
    got = _cli(capsys, "circuits", "--input", str(FIXTURES / "theta6.graph"), "--size", "99")
    assert got == (0, "", "")


def _raises(error, call):
    def case(capsys):
        with pytest.raises(error):
            call(from_graph(THETA))
    return case


@pytest.mark.parametrize("case", [
    pytest.param(_fields_blank_token_is_skipped, id="fields-blank-token"),
    pytest.param(_fields_empty, id="fields-empty"),
    pytest.param(_circuits_size_below_3, id="circuits-size-2"),
    pytest.param(_circuits_size_above_n, id="circuits-size-99"),
    pytest.param(_raises(InputError, lambda a: build(0, [])), id="build-dim-0"),
    pytest.param(_raises(InputError, lambda a: build(2, [(1, 0)], ["a", "b"])),
                 id="label-count"),
    pytest.param(_raises(InputError, lambda a: a.circuits(a.n + 1)), id="circuits-past-n"),
    pytest.param(_raises(InputError, lambda a: a.chordless_circuits(2)), id="chordless-2"),
    pytest.param(_raises(InputError, lambda a: quotient_invariants_graded(a, "X", 2)),
                 id="unknown-quotient"),
    pytest.param(_raises(InputError, lambda a: r_table(a, [])), id="r-table-no-fields"),
    pytest.param(_raises(InputError, lambda a: chordless_span_check(a, 1, RATIONALS)),
                 id="span-check-degree-1"),
    pytest.param(_raises(InputError, lambda a: ideal_membership(
        a, ExteriorElement(a.n + 1), IdealKind.FULL)), id="membership-degree-past-n"),
    pytest.param(_raises(InputError, lambda a: hermite_basis([[1, 2], [3]])), id="ragged"),
    pytest.param(_raises(InputError, lambda a: quotient_invariants(2, [{5: 1}])),
                 id="generator-past-ambient"),
    pytest.param(_raises(InternalInvariantViolation, lambda a: AbelianInvariants(0, (2, 3))),
                 id="unchained-factors"),
])
def test_every_input_guard_raises_its_documented_error(case, capsys):
    case(capsys)


# ---------------------------------------------------------------- circuits


def test_circuits_command(capsys):
    code = main(["circuits", "--input", str(FIXTURES / "k3.graph")])
    assert code == 0
    out = capsys.readouterr().out
    assert "3: 0 1 2" in out


def test_circuits_chordless_size(capsys):
    code = main(["circuits", "--input", str(FIXTURES / "twogen6.arr"),
                 "--chordless", "--size", "5"])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 2
    assert lines[0].startswith("5: 0 1 2 3 4")
    assert lines[1].startswith("5: 0 1 2 3 5")


# ------------------------------------------------------------------ search


def test_search_graphic_small(tmp_path):
    out = tmp_path / "s.jsonl"
    code = main(["search", "--family", "graphic", "--max-size", "5",
                 "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines, "some qualifying graph with <= 5 vertices must exist"
    for line in lines:
        doc = json.loads(line)
        assert doc["qualifies"] is True
        te = doc["torsion_equivalences"]
        assert te["gr1_torsion_free"] is te["a_plus_free_p2"] is te["ind_free_p2"]
        assert doc["torsion_found"] is False


def test_search_contains_theta_matching_analyze(tmp_path):
    out = tmp_path / "s6.jsonl"
    code = main(["search", "--family", "graphic", "--max-size", "6",
                 "--output", str(out)])
    assert code == 0
    theta = parse_input(str(FIXTURES / "theta6.graph"))
    want_edges = [[u + 1, v + 1] for u, v in theta.source_graph.edges]
    hits = []
    for line in out.read_text().splitlines():
        doc = json.loads(line)
        if doc.get("vertices") == 6 and sorted(map(tuple, doc["edges"])) == sorted(
            map(tuple, want_edges)
        ):
            hits.append(doc)
    # the theta graph itself is enumerated with these exact labels (it is
    # already canonical up to relabeling; match on invariants instead)
    assert any(
        d["classification"]["p"] == 2
        and d["classification"]["rank"] == 5
        and d["gr1_rank"] == 6
        for d in map(json.loads, out.read_text().splitlines())
    )
    # recorded before the search moved to int masks; carries every
    # classification.series of the 48 qualifying graphs
    data = out.read_bytes()
    assert data.count(b"\n") == 48
    assert hashlib.sha256(data).hexdigest() == (
        "b6a40382b6e5e79d000daa8dcf7aeb22c7cd9f8d02c7281fae191f8ab8851087"
    )


def test_search_seeded_determinism(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for out in (a, b):
        code = main(["search", "--family", "random2g", "--max-size", "8",
                     "--seed", "11", "--count", "5", "--output", str(out)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    for line in a.read_text().splitlines():
        doc = json.loads(line)
        cls = doc["classification"]
        assert cls["two_generic"] is True
        assert doc["qualifies"] is True
        # dependent 2-generic arrangements sit at p = c - 2
        assert cls["p"] == cls["c"] - 2


def test_k7_analyze_bytes_are_frozen(tmp_path):
    # recorded while every Hilbert coefficient of Abar was a QUADRATIC rank
    edges = "".join(f"{u} {v}\n" for u in range(1, 8) for v in range(u + 1, 8))
    out = tmp_path / "k7.json"
    assert main(["analyze", "--input", write(tmp_path, "k7.graph", "graph 7\n" + edges),
                 "--json", str(out)]) == 2
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "df032b994480d90d3b1d1369d858625ab00d2bfcd395152b74ace0dac858b041"
    )


def test_random2g_search_bytes_are_frozen(tmp_path):
    # the search-random2g benchmark command; its 50 instances all qualify
    out = tmp_path / "r.jsonl"
    assert main(["search", "--family", "random2g", "--max-size", "12", "--seed", "0",
                 "--count", "50", "--jobs", "1", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "9eab69d027b769fe20a14a49fabc14e1f36409c7a4be74682f42db1974414ca2"
    )


@pytest.mark.parametrize(
    "seed, digest",
    [
        (0, "b98cc4bc0635fbb69cc28fa529d791cbec7fa25fcad5bbf11378b2dca9893f31"),
        (1, "5e3d608f6307f7a158c0c71ec3b2acefb8bc41196cc570c40ef8fb81cf98d618"),
        # seed 5 draws a zero vector, which the stream must skip
        (5, "fedbce9df62e42fd28555d81b8665630a9818930bb637ee6070b49f7ca4aea16"),
        (11, "ed835b0ddab0ac2e5d9ff0573cc5f6f4c9e92a53ee264b0878d6345eb991ad77"),
    ],
)
def test_random2g_stream_is_frozen(seed, digest):
    # recorded when every candidate normal was checked by building an
    # Arrangement and c = 3 was read off circuits(3)
    stream = list(random2g(seed, 12, 50))
    assert hashlib.sha256(repr(stream).encode()).hexdigest() == digest


def test_search_jobs1_holds_one_random2g_arrangement_at_a_time(monkeypatch, tmp_path):
    # the stream feeds map() itself, so a line's arrangement and its caches
    # are freed once the line is written; a list would keep them all alive
    import weakref

    import hyparr.cli as cli

    stream, worker = cli._random_2generic_instances, cli._random_worker
    refs, alive = [], []

    def tracked(*args):
        for key, arr in stream(*args):
            refs.append(weakref.ref(arr))
            yield key, arr

    def counting(payload):
        alive.append(sum(ref() is not None for ref in refs))
        return worker(payload)

    monkeypatch.setattr(cli, "_random_2generic_instances", tracked)
    monkeypatch.setattr(cli, "_random_worker", counting)
    assert main(["search", "--family", "random2g", "--max-size", "8", "--count", "5",
                 "--jobs", "1", "--output", str(tmp_path / "r.jsonl")]) == 0
    assert alive == [1] * 5


@pytest.mark.parametrize("seed", range(6))
def test_random2g_stream_keeps_only_what_c_and_genericity_calls_2generic(seed):
    # the stream's rank-2 closure test and the value each line reports as
    # two_generic must agree, and the kept payload carries no grown table
    import pickle

    from hyparr.cli import _random_2generic_instances

    for _key, arr in _random_2generic_instances(seed, 12, 30):
        payload = pickle.loads(pickle.dumps(arr))
        assert len(payload._independent) == 1
        assert payload.c_and_genericity()[1] is True


@pytest.mark.parametrize("max_size", [4, 5, 6])
def test_search_random2g_small_sizes(tmp_path, max_size):
    # the dimension is drawn below the size, so every accepted size works
    out = tmp_path / "r.jsonl"
    for seed in range(5):
        assert main(["search", "--family", "random2g", "--max-size", str(max_size),
                     "--seed", str(seed), "--count", "3", "--output", str(out)]) == 0
        docs = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(docs) == 3
        for doc in docs:
            assert doc["ambient_dim"] < len(doc["normals"]) <= max_size


def test_search_prefix_consistent(tmp_path):
    small = tmp_path / "g4.jsonl"
    big = tmp_path / "g5.jsonl"
    assert main(["search", "--family", "graphic", "--max-size", "4",
                 "--output", str(small)]) == 0
    assert main(["search", "--family", "graphic", "--max-size", "5",
                 "--output", str(big)]) == 0
    assert big.read_text().startswith(small.read_text())

    r4 = tmp_path / "r4.jsonl"
    r8 = tmp_path / "r8.jsonl"
    assert main(["search", "--family", "random2g", "--max-size", "8",
                 "--seed", "3", "--count", "3", "--output", str(r4)]) == 0
    assert main(["search", "--family", "random2g", "--max-size", "8",
                 "--seed", "3", "--count", "6", "--output", str(r8)]) == 0
    assert r8.read_text().startswith(r4.read_text())


def test_search_jobs_same_bytes(tmp_path):
    serial = tmp_path / "j1.jsonl"
    pooled = tmp_path / "j2.jsonl"
    for out, jobs in ((serial, "1"), (pooled, "2")):
        assert main(["search", "--family", "graphic", "--max-size", "5",
                     "--jobs", jobs, "--output", str(out)]) == 0
    assert serial.read_bytes() and serial.read_bytes() == pooled.read_bytes()
    for out, jobs in ((serial, "1"), (pooled, "2")):
        assert main(["search", "--family", "random2g", "--max-size", "8", "--seed", "3",
                     "--count", "4", "--jobs", jobs, "--output", str(out)]) == 0
    assert serial.read_bytes() and serial.read_bytes() == pooled.read_bytes()


def test_graphic_search_reuses_enumeration_forms(monkeypatch, tmp_path):
    # the search keys each line by the canonical form the enumeration
    # already computed, so it makes no call of its own
    from hyparr import cli, graphs

    calls = []
    original = graphs.canonical_form

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(graphs, "canonical_form", counting)
    # also catch a search that imports the function for calls of its own
    monkeypatch.setattr(cli, "canonical_form", counting, raising=False)
    graphs.connected_graph_reps(5)
    enumeration_calls = len(calls)
    del calls[:]
    assert main(["search", "--family", "graphic", "--max-size", "5",
                 "--output", str(tmp_path / "g5.jsonl")]) == 0
    assert enumeration_calls > 0 and len(calls) == enumeration_calls


def test_search_bounds(capsys, tmp_path):
    out = tmp_path / "x.jsonl"
    for bounds in (
        ["--family", "graphic", "--max-size", "9"],
        ["--family", "graphic", "--max-size", "0"],
        ["--family", "graphic", "--max-size", "-3"],
        ["--family", "random2g", "--max-size", "13"],
        ["--family", "random2g", "--max-size", "3"],
        ["--family", "random2g", "--max-size", "6", "--count", "0"],
        ["--family", "random2g", "--max-size", "6", "--count", "-1"],
        ["--family", "graphic", "--max-size", "4", "--jobs", "0"],
        ["--family", "random2g", "--max-size", "6", "--jobs", "-2"],
    ):
        assert main(["search", *bounds, "--output", str(out)]) == 1, bounds
        assert "error:" in capsys.readouterr().err, bounds
        assert not out.exists(), bounds


def test_search_pool_never_exceeds_the_cpus(monkeypatch, tmp_path):
    # a stub pool records its size and maps in-process, so no worker starts
    import concurrent.futures
    import os

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    serial = tmp_path / "j1.jsonl"
    wide = tmp_path / "wide.jsonl"
    for out, jobs in ((serial, "1"), (wide, "100000")):
        assert main(["search", "--family", "graphic", "--max-size", "4",
                     "--jobs", jobs, "--output", str(out)]) == 0
    assert len(sizes) == 1 and 1 <= sizes[0] <= (os.cpu_count() or 1)
    assert serial.read_bytes() and serial.read_bytes() == wide.read_bytes()


def test_search_write_failure_under_jobs_cancels_the_pool(monkeypatch, capsys, tmp_path):
    # a write that fails partway must not wait for the payloads still queued:
    # the pool is shut down with its pending work cancelled
    import concurrent.futures
    import errno
    import io

    import hyparr.cli as cli

    shutdowns = []

    class InProcessPool:
        def __init__(self, max_workers):
            pass

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

        def shutdown(self, **kwargs):
            shutdowns.append(kwargs)

    class FullDisk(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    class FullPath:
        def __init__(self, path):
            pass

        def open(self, *args, **kwargs):
            return FullDisk()

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(cli, "Path", FullPath)
    assert main(["search", "--family", "graphic", "--max-size", "4", "--jobs", "2",
                 "--output", str(tmp_path / "x.jsonl")]) == 1
    assert "error: cannot write" in capsys.readouterr().err
    assert shutdowns == [{"cancel_futures": True}]


def test_search_to_an_unwritable_output_fails_before_any_work(monkeypatch, capsys, tmp_path):
    # the output is opened before the payloads and the pool, so a bad path
    # costs nothing, whatever --jobs asks for
    import concurrent.futures

    import hyparr.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("search did work before opening its output")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(cli, "_keyed_connected_graph_reps", refuse)
    monkeypatch.setattr(cli, "_random_2generic_instances", refuse)
    out = tmp_path / "missing" / "x.jsonl"
    for family in (["graphic", "--max-size", "7"], ["random2g", "--max-size", "12"]):
        assert main(["search", "--family", *family, "--jobs", "2", "--output", str(out)]) == 1
        assert "error: cannot write" in capsys.readouterr().err


def test_analyze_bound_rejects_before_any_work(monkeypatch, capsys, tmp_path):
    import itertools

    import hyparr.cli as cli

    def refuse(arr):
        raise AssertionError("classify ran on an input over the bound")

    monkeypatch.setattr(cli, "classify", refuse)
    k8 = "graph 8\n" + "".join(f"{u} {v}\n" for u, v in itertools.combinations(range(1, 9), 2))
    assert main(["analyze", "--input", write(tmp_path, "k8.graph", k8)]) == 1
    err = capsys.readouterr().err
    assert f"analyze is bounded at {cli.ANALYZE_SIZE_BOUND} hyperplanes, got 28" in err
    # K7 (21 hyperplanes, the largest benchmark input is 17) and every fixture fit
    sizes = [parse_input(str(p)).n for p in FIXTURES.iterdir()]
    assert max(sizes + [21]) <= cli.ANALYZE_SIZE_BOUND


# ------------------------------------------------------------- serializer


def test_canonical_json_bigint_and_sorting():
    doc = {"b": 2**60, "a": [True, None, "x"], "c": {"z": 1, "y": -(2**54)}}
    data = canonical_json_bytes(doc).decode()
    assert data.index('"a"') < data.index('"b"') < data.index('"c"')
    assert f'"{2**60}"' in data
    assert f'"{-(2**54)}"' in data
    assert data.endswith("\n") and "\r" not in data
    line = canonical_json_line(doc)
    assert "\n" not in line
    parsed = json.loads(line)
    assert parsed["b"] == str(2**60)


def test_canonical_json_exact_bytes():
    doc = {
        "b": [2**53, 2**53 + 1, -(2**53), -(2**53 + 1), -3, 0],
        "\u00e9": "\u00fcn\u00ef",
        "a": {"z": {}, "y": []},
        "t": (1, (2, (None, False)), ()),
        "n": None,
    }
    assert canonical_json_bytes(doc) == (
        b'{\n  "a": {\n    "y": [],\n    "z": {}\n  },\n  "b": [\n'
        b'    9007199254740992,\n    "9007199254740993",\n'
        b'    -9007199254740992,\n    "-9007199254740993",\n    -3,\n    0\n  ],\n'
        b'  "n": null,\n  "t": [\n    1,\n    [\n      2,\n      [\n'
        b'        null,\n        false\n      ]\n    ],\n    []\n  ],\n'
        b'  "\xc3\xa9": "\xc3\xbcn\xc3\xaf"\n}\n'
    )
    assert canonical_json_line(doc) == (
        '{"a": {"y": [], "z": {}}, "b": [9007199254740992, "9007199254740993", '
        '-9007199254740992, "-9007199254740993", -3, 0], "n": null, '
        '"t": [1, [2, [null, false]], []], "\u00e9": "\u00fcn\u00ef"}'
    )


def test_canonical_json_rejects_floats():
    from hyparr.errors import InternalInvariantViolation

    for doc in ({"x": 1.5}, {"x": [{1: 2}]}, {"x": {3}}):
        with pytest.raises(InternalInvariantViolation):
            canonical_json_bytes(doc)
        with pytest.raises(InternalInvariantViolation):
            canonical_json_line(doc)


def test_analyze_json_to_stdout(capsys):
    code = main(["analyze", "--input", str(FIXTURES / "k3.graph"), "--json", "-"])
    assert code == 2
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["classification"]["supersolvable"] is True


def test_analyze_unwritable_json_exit1(capsys):
    code = main(["analyze", "--input", str(FIXTURES / "k3.graph"),
                 "--json", "/nonexistent-dir/x.json"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_internal_violation_exit3(monkeypatch, capsys):
    # main() builds its parser after the patch, so the stub is picked up
    import hyparr.cli as cli
    from hyparr.errors import InternalInvariantViolation

    def boom(args):
        raise InternalInvariantViolation("simulated theorem failure")

    monkeypatch.setattr(cli, "cmd_analyze", boom)
    assert cli.main(["analyze", "--input", str(FIXTURES / "k3.graph")]) == 3
    assert "INTERNAL INVARIANT VIOLATION" in capsys.readouterr().err


def test_memory_error_exits_1_without_traceback(monkeypatch, capsys, tmp_path):
    import hyparr.cli as cli

    def exhausted(arr):
        raise MemoryError

    monkeypatch.setattr(cli, "classify", exhausted)
    runs = (
        ["analyze", "--input", str(FIXTURES / "k3.graph")],
        ["search", "--family", "random2g", "--max-size", "5", "--count", "1",
         "--jobs", "1", "--output", str(tmp_path / "out.jsonl")],
    )
    for argv in runs:
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, err


def test_torsion_found_line_dumps_matrix(monkeypatch):
    # no known input produces torsion, so exercise the reporting path by
    # stubbing the gr1 computation
    import hyparr.cli as cli
    import hyparr.report as report
    from hyparr.intlinalg import AbelianInvariants

    arr = parse_input(str(FIXTURES / "theta6.graph"))
    monkeypatch.setattr(
        report, "gr1_invariants", lambda a: AbelianInvariants(5, (2, 4))
    )
    line = cli._instance_line("test-key", arr)
    assert line["torsion_found"] is True
    assert line["gr1_invariant_factors"] == [2, 4]
    assert line["mu_matrix"] == cli.mu_presentation(arr).matrix
    payload = canonical_json_line(line)
    assert '"torsion_found": true' in payload
