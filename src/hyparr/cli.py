"""Command-line interface: analyze, circuits, search.

Exit codes: 0 full analysis, 1 bad input (a usage error included) or I/O
failure, 2 analysis ran but the homotopy pipeline was skipped
(supersolvable or not hypersolvable input; the classification is still
emitted), 3 internal invariant violation (a theorem failed; always a bug,
never user error).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from random import Random

from .arrangement import Arrangement, _primitive, build, from_graph
from .errors import InputError, InternalInvariantViolation, PreconditionError
from .graphs import Graph, _keyed_connected_graph_reps, make_graph
from .homotopy import mu_presentation
from .hypersolvable import classify, composition_series
from .intlinalg import FieldSpec
from .report import (
    build_report,
    canonical_json_line,
    classification_block,
    emit_report,
    homotopy_fields,
    input_echo,
    render_text,
)

GRAPHIC_VERTEX_BOUND = 8
RANDOM_SIZE_BOUND = 12
RANDOM_DIM_BOUND = 6
# hyperplanes; admits K7 (21) and every fixture.  It limits n only: the
# cost also grows with the rank.  24 general lines in the plane (rank 3)
# take ~1.4 s and ~55 MiB; random rank-6 inputs (README) take ~8-12 s and
# ~73 MiB at n = 20, and at n = 24 do not finish within 300 s
ANALYZE_SIZE_BOUND = 24


def parse_input(path: str, fmt: str | None = None) -> Arrangement:
    """Read an arrangement or graph file.

    ARRANGEMENT: header ``arrangement <dim>``, then one normal per line as
    dim space-separated integers.  GRAPH: header ``graph <n>``, then one
    edge ``u v`` per line with 1 <= u < v <= n; edges are re-sorted
    lexicographically before the arrangement is built.  Blank lines and
    lines starting with ``#`` are ignored.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line))
    if not rows:
        raise InputError(f"{path}: no content")
    head_no, head = rows[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] not in ("arrangement", "graph"):
        raise InputError(
            f"{path}:{head_no}: header must be 'arrangement <dim>' or 'graph <n>'"
        )
    kind = parts[0]
    if fmt is not None:
        want = "arrangement" if fmt == "arr" else "graph"
        if kind != want:
            raise InputError(
                f"{path}:{head_no}: header says {kind!r} but --format forces {want!r}"
            )
    try:
        size = int(parts[1])
    except ValueError:
        raise InputError(f"{path}:{head_no}: bad size {parts[1]!r}") from None
    if size < 1:
        need = ("graph needs at least 1 vertex" if kind == "graph"
                else "ambient dimension must be positive")
        raise InputError(f"{path}:{head_no}: {need}, got {size}")

    if kind == "arrangement":
        normals = []
        linenos = []
        for lineno, line in rows[1:]:
            try:
                vec = [int(tok) for tok in line.split()]
            except ValueError:
                raise InputError(f"{path}:{lineno}: non-integer entry") from None
            if len(vec) != size:
                raise InputError(
                    f"{path}:{lineno}: expected {size} integers, got {len(vec)}"
                )
            normals.append(vec)
            linenos.append(lineno)
        try:
            return build(size, normals)
        except InputError as exc:
            # build() names hyperplanes by index; the file names them by line
            msg = exc.naming("line", linenos) if exc.hyperplanes else str(exc)
            raise InputError(f"{path}: {msg}") from None

    edges = set()
    for lineno, line in rows[1:]:
        toks = line.split()
        if len(toks) != 2:
            raise InputError(f"{path}:{lineno}: expected 'u v'")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise InputError(f"{path}:{lineno}: non-integer vertex") from None
        if u == v:
            raise InputError(f"{path}:{lineno}: loop at vertex {u}")
        if not (1 <= u < v <= size):
            raise InputError(
                f"{path}:{lineno}: edge {u} {v} is not 1 <= u < v <= {size}"
            )
        if (u - 1, v - 1) in edges:
            raise InputError(f"{path}:{lineno}: multi-edge {u} {v}")
        edges.add((u - 1, v - 1))
    return from_graph(make_graph(size, edges))


def _parse_fields(spec: str | None):
    if spec is None:
        return None
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            characteristic = int(tok)
        except ValueError:
            raise InputError(f"--fields: {tok!r} is not an integer") from None
        field = FieldSpec(characteristic)
        if field in out:
            raise InputError(f"--fields: characteristic {characteristic} is repeated")
        out.append(field)
    if not out:
        raise InputError("--fields given but empty")
    return out


def cmd_analyze(args) -> int:
    started = time.monotonic()
    arr = parse_input(args.input, args.format)
    if arr.n > ANALYZE_SIZE_BOUND:
        raise InputError(
            f"analyze is bounded at {ANALYZE_SIZE_BOUND} hyperplanes, got {arr.n}"
        )
    fields = _parse_fields(args.fields)
    doc, qualified = build_report(arr, classify(arr), fields)
    if args.json:
        try:
            emit_report(doc, args.json)
        except OSError as exc:
            raise InputError(f"cannot write {args.json}: {exc}") from exc
        if args.json != "-":
            sys.stdout.write(render_text(doc))
    else:
        sys.stdout.write(render_text(doc))
    elapsed_ms = int((time.monotonic() - started) * 1000)
    print(f"elapsed_ms={elapsed_ms}", file=sys.stderr)
    return 0 if qualified else 2


def cmd_circuits(args) -> int:
    arr = parse_input(args.input, args.format)
    cap = min(arr.rank() + 1, arr.n)
    if args.size is not None:
        if args.size < 3:
            raise InputError(f"circuits have size >= 3, got {args.size}")
        sizes = [args.size]
    else:
        sizes = list(range(3, cap + 1))
    for size in sizes:  # a size above n lists nothing
        found = (
            arr.chordless_circuits(size)
            if args.chordless
            else [c for c in arr.circuits(min(size, arr.n)) if len(c) == size]
        )
        for c in found:
            names = " ".join(arr.labels[i] for i in c)
            print(f"{size}: {' '.join(str(i) for i in c)}  [{names}]")
    return 0


def _instance_line(key: str, arr: Arrangement) -> dict:
    cls = classify(arr)
    line: dict = {"key": key, "classification": classification_block(cls)}
    line.update(input_echo(arr))
    del line["format"], line["labels"]
    qualified = cls.hypersolvable and not cls.supersolvable
    line["qualifies"] = qualified
    if qualified:
        line.update(homotopy_fields(arr))
        line["torsion_found"] = bool(line["gr1_invariant_factors"])
        if line["torsion_found"]:
            line["mu_matrix"] = mu_presentation(arr).matrix
    return line


def _graphic_worker(payload: tuple[int, int, tuple]) -> str | None:
    n, key, edges = payload
    arr = from_graph(Graph(n, edges))
    # cheap filter first: hypersolvable iff a series exists, and within that
    # class supersolvable iff the series length equals the rank; the full
    # classification with all its cross-checks runs only on the keepers
    series = composition_series(arr)
    if series is None or series.length == arr.rank():
        return None
    bits = n * (n - 1) // 2
    line = _instance_line(f"g{n}-{key:0{(bits + 3) // 4}x}", arr)
    return canonical_json_line(line)


def _random_worker(payload: tuple[str, int, tuple]) -> str:
    key, dim, normals = payload
    return canonical_json_line(_instance_line(key, build(dim, normals)))


def _random_2generic_instances(seed: int, max_size: int, count: int):
    """Seeded stream of dependent 2-generic integer arrangements."""
    rng = Random(seed)
    idx = 0
    while idx < count:
        dim = rng.randint(3, min(RANDOM_DIM_BOUND, max_size - 1))
        n = rng.randint(dim + 1, max_size)
        normals = []
        taken = {None}  # the atoms drawn so far; None is the zero vector's
        ok = True
        for _ in range(n):
            for _attempt in range(50):
                v = tuple(rng.randint(-3, 3) for _ in range(dim))
                atom = _primitive(v)
                if atom not in taken:
                    taken.add(atom)
                    normals.append(v)
                    break
            else:
                ok = False
                break
        if not ok:
            continue
        arr = build(dim, normals)
        if arr.rank() == arr.n or any(
            m.bit_count() > 2 for row in arr.pair_closures() for m in row
        ):  # independent, or c = 3: a rank-2 closure holds three hyperplanes
            continue
        yield (f"r2g-s{seed}-i{idx}", dim, tuple(normals))
        idx += 1


def cmd_search(args) -> int:
    jobs = args.jobs
    if jobs < 1:
        raise InputError(f"search needs --jobs >= 1, got {jobs}")
    graphic = args.family == "graphic"
    if graphic:
        if args.max_size > GRAPHIC_VERTEX_BOUND:
            raise InputError(
                f"graphic search is bounded at {GRAPHIC_VERTEX_BOUND} vertices"
            )
        if args.max_size < 1:
            raise InputError(f"graphic search needs --max-size >= 1, got {args.max_size}")
    else:
        if args.max_size > RANDOM_SIZE_BOUND:
            raise InputError(
                f"random 2-generic search is bounded at {RANDOM_SIZE_BOUND} hyperplanes"
            )
        if args.max_size < 4:
            raise InputError("random 2-generic search needs --max-size >= 4")
        if args.count < 1:
            raise InputError(f"random 2-generic search needs --count >= 1, got {args.count}")

    # opened before any work, so an unwritable path fails at once
    try:
        fh = Path(args.output).open("w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise InputError(f"cannot write {args.output}: {exc}") from exc
    with fh:
        if graphic:
            payloads = [
                (g.vertex_count, form, g.edges)
                for form, g in _keyed_connected_graph_reps(args.max_size)
                if g.edges
            ]
            worker = _graphic_worker
        else:
            payloads = list(
                _random_2generic_instances(args.seed, args.max_size, args.count)
            )
            worker = _random_worker

        if jobs == 1:
            results = map(worker, payloads)
        else:
            # imported only here: it loads multiprocessing, which no other start needs
            from concurrent.futures import ProcessPoolExecutor

            # the pool starts all its workers at the first submit, so never ask
            # for more than there are CPUs; the output bytes do not depend on it
            pool = ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1))
            results = pool.map(worker, payloads, chunksize=4)

        torsion_hits = 0
        emitted = 0
        try:
            for line in results:
                if line is None:
                    continue
                fh.write(line + "\n")
                emitted += 1
                if '"torsion_found": true' in line:
                    torsion_hits += 1
            fh.flush()  # a write error surfaces here, not in close
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from exc
        finally:
            if jobs > 1:
                pool.shutdown(cancel_futures=True)  # a failed write skips the rest
    print(f"instances={emitted} torsion_found={torsion_hits}", file=sys.stderr)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input: InputError, exit 1, no usage dump."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="hyparr",
        description="Exact combinatorial invariants of central hyperplane arrangements",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full analysis of one input file")
    pa.add_argument("--input", required=True)
    pa.add_argument("--format", choices=("arr", "graph"))
    pa.add_argument("--fields", help="comma-separated characteristics, e.g. 0,2,3,5")
    pa.add_argument("--json", help="write canonical JSON here ('-' for stdout)")
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("circuits", help="list circuits (or chordless circuits)")
    pc.add_argument("--input", required=True)
    pc.add_argument("--format", choices=("arr", "graph"))
    pc.add_argument("--chordless", action="store_true")
    pc.add_argument("--size", type=int)
    pc.set_defaults(func=cmd_circuits)

    ps = sub.add_parser("search", help="probe families for decomposable torsion")
    ps.add_argument("--family", choices=("graphic", "random2g"), required=True)
    ps.add_argument("--max-size", type=int, required=True)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--count", type=int, default=20,
                    help="instances to emit (random2g family)")
    ps.add_argument("--jobs", type=int, default=1)
    ps.add_argument("--output", required=True)
    ps.set_defaults(func=cmd_search)
    return ap


def main(argv=None) -> int:
    command = None
    try:
        args = _build_parser().parse_args(argv)
        command = args.command
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"skipped: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantViolation as exc:
        print(f"INTERNAL INVARIANT VIOLATION: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"error: out of memory during {command}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
