"""One benchmark process: set up, run one workload, check its outputs.

    python3 bench/workload.py WORKLOAD SEED MODE WORKDIR STARTED

MODE is ``setup`` (stop once set up), ``plain`` or ``traced``.  STARTED is
the parent's ``time.monotonic()`` taken just before it started this
interpreter; the monotonic clock is system-wide on Linux, so ``setup_s``
covers interpreter start, importing ``hyparr`` and writing the input files.
The result goes to ``WORKDIR/result.json``; the program's own stdout and
stderr are captured in memory.

Every workload is a closed loop with one client: one process, ``--jobs 1``,
each call made after the previous one returned.  See README.md for why each
workload was chosen and which layers it loads.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

# The random2g search always uses the CLI's default seed: the work per search
# seed varies by half (14 s to 21 s measured), more than any bound the
# benchmark could fix, so results are comparable only on one seed.
SEARCH_ARGS = ["--family", "random2g", "--max-size", "12", "--seed", "0",
               "--count", "50", "--jobs", "1"]
GRAPH_VERTICES = 7


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# ------------------------------------------------------------- inputs


def analyze_inputs(seed: int) -> dict[str, str]:
    """The four analyze-dense inputs as file texts.

    Seed 0 keeps the listed order; any other seed shuffles the hyperplane
    order of the arrangements and relabels the graphs' vertices.
    """
    rng = random.Random(seed)
    d4 = [[0] * 4 for _ in range(12)]
    b4 = [[int(i == k) for k in range(4)] for i in range(4)]
    k = 0
    for i in range(4):
        for j in range(i + 1, 4):
            for s in (-1, 1):
                d4[k][i], d4[k][j] = 1, s  # the fixtures/d4.arr order
                b4.append([1 if m == i else s if m == j else 0 for m in range(4)])
                k += 1
    k6 = [(u, v) for u in range(1, 7) for v in range(u + 1, 7)]
    path = {(1, 2), (2, 3), (3, 4), (4, 5)}
    k7p = [(u, v) for u in range(1, 8) for v in range(u + 1, 8) if (u, v) not in path]

    def arrangement(normals):
        if seed:
            normals = rng.sample(normals, len(normals))
        return "arrangement 4\n" + "".join(" ".join(map(str, v)) + "\n" for v in normals)

    def graph(n, edges):
        if seed:
            label = [0] + rng.sample(range(1, n + 1), n)
            edges = sorted(tuple(sorted((label[u], label[v]))) for u, v in edges)
        return f"graph {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)

    return {
        "d4.arr": arrangement(d4),
        "k6.graph": graph(6, k6),
        "b4.arr": arrangement(b4),
        "k7-minus-path.graph": graph(7, k7p),
    }


# ------------------------------------------------------- the workloads
# Each returns (items, outputs, wall): one (name, ok) per attempted item,
# the bytes that must match between the plain and traced runs, and the wall
# time of the program calls alone.


def quiet_main(cli, argv):
    """Exit code and stdout of one CLI call; the code is None if it raised."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except Exception:  # a crash counts as a failed item, not a failed run
            rc = None
    return rc, out.getvalue()


def run_analyze(seed, workdir, cli):
    expected = EXPECTED["analyze-dense"]
    items, outputs, wall = [], [], 0.0
    for name in expected["inputs"]:
        path = workdir / name
        out = workdir / (name + ".json")
        start = time.perf_counter()
        rc, text = quiet_main(cli, ["analyze", "--input", str(path), "--json", str(out)])
        wall += time.perf_counter() - start
        payload = out.read_bytes() if out.exists() else b""
        outputs.append(payload + text.encode())
        ok = rc == expected["exit_code"] and payload != b""
        if ok:
            doc = json.loads(payload)
            fields = {key: doc[key] for key in ("betti", "circuits", "hilbert", "r_table")}
            fields["classification"] = {
                key: doc["classification"][key]
                for key in ("hypersolvable", "supersolvable", "p", "rank", "c", "two_generic")
            }
            ok = fields == expected["inputs"][name]["fields"]
            if seed == 0:
                ok = ok and digest(payload) == expected["inputs"][name]["seed0_json"]
        items.append((name, ok))
    return items, outputs, wall


def run_search(_seed, workdir, cli):
    expected = EXPECTED["search-random2g"]
    out = workdir / "search.jsonl"
    start = time.perf_counter()
    rc, _ = quiet_main(cli, ["search", *SEARCH_ARGS, "--output", str(out)])
    wall = time.perf_counter() - start
    payload = out.read_bytes() if out.exists() else b""
    lines = payload.splitlines()
    want = expected["line_digests"]
    items = []
    for k, line_digest in enumerate(want):
        ok = rc == 0 and len(lines) == len(want) and digest(lines[k]) == line_digest
        items.append((f"i{k}", ok))
    return items, [payload], wall


def run_graphs(_seed, _workdir, graphs):
    expected = EXPECTED["graphs-enum7"]
    canonical_form = inspect.unwrap(graphs.canonical_form)  # untraced
    start = time.perf_counter()
    try:
        reps = graphs.connected_graph_reps(GRAPH_VERTICES)
    except Exception:  # every level then fails its check
        reps = []
    wall = time.perf_counter() - start
    # the canonical forms are part of the graphic search output keys
    by_n: dict[int, list[str]] = {}
    for g in reps:
        by_n.setdefault(g.vertex_count, []).append(f"{canonical_form(g):x}")
    items, outputs = [], []
    for n in range(1, GRAPH_VERTICES + 1):
        forms = "\n".join(by_n.get(n, [])).encode()
        outputs.append(forms)
        ok = (len(by_n.get(n, [])) == expected["classes"][n - 1]
              and digest(forms) == expected["form_digests"][n - 1])
        items.append((f"n{n}", ok))
    return items, outputs, wall


WORKLOADS = {
    "analyze-dense": run_analyze,
    "search-random2g": run_search,
    "graphs-enum7": run_graphs,
}


# --------------------------------------------------------- diagnostics


def host_ref_s() -> float:
    """A fixed pure-Python loop that is not hyparr code: a slow host phase
    shows here as well as in the workload."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def steal_ticks() -> int | None:
    """The system-wide steal counter from /proc/stat (read only)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def main() -> int:
    workload, seed, mode, workdir, started = sys.argv[1:6]
    seed, workdir = int(seed), Path(workdir)
    sys.path.insert(0, str(ROOT / "src"))
    import hyparr.cli
    import hyparr.graphs

    if workload == "analyze-dense":
        for name, text in analyze_inputs(seed).items():
            (workdir / name).write_text(text, encoding="utf-8")
    result = {"setup_s": time.monotonic() - float(started)}
    if mode != "setup":
        tracer = None
        if mode == "traced":
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        target = hyparr.graphs if workload == "graphs-enum7" else hyparr.cli
        result["host_ref_s"] = host_ref_s()
        steal_before = steal_ticks()
        items, outputs, wall = WORKLOADS[workload](seed, workdir, target)
        steal_after = steal_ticks()
        result.update(
            wall_s=wall,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            attempted=len(items),
            failed=[name for name, ok in items if not ok],
            output_digests=[digest(o) for o in outputs],
            steal_ticks=None if steal_before is None or steal_after is None
            else steal_after - steal_before,
        )
        if tracer is not None:
            result.update(
                self_s=dict(tracer.self_s),
                counts=dict(tracer.counts),
                instance_s=tracer.instance_s,
            )
    (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
