"""hyparr benchmark: three workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each measured repetition is a fresh
interpreter (bench/workload.py) that calls hyparr's public entry points;
repetitions continue until S seconds of program time have been measured,
and the run reports their median.  Set-up is also measured in SETUP_REPS
extra interpreters that stop once set up.

--trace 0 prints the end-to-end metrics: wall_s, setup_s, peak_rss_mb.
--trace 1 adds one traced repetition of the same seed, checks that its
outputs are byte-identical to the plain run's, and prints the per-layer
metrics instead.  The last stdout line is the JSON result; failed counts the
analyses, instances or enumerations that raised, exited with an unexpected
code or failed the output check, and failed / attempted is failed_ratio.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import COUNTS, SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("analyze-dense", "search-random2g", "graphs-enum7")
SETUP_REPS = 7
CHILD_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def child(workload: str, seed: int, mode: str, workdir: Path) -> dict:
    """Run one fresh interpreter and return its result, or exit on failure."""
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), workload, str(seed), mode,
         str(workdir), repr(started)],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench: {mode} run of {workload} failed with exit code {proc.returncode}")
    return json.loads(result_path.read_text())


def nearest_rank(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


def per_layer(traced: dict, plain_wall: float) -> dict[str, tuple[float, str]]:
    self_s, counts = traced["self_s"], traced["counts"]
    out = {f"{name}.self_s": (self_s.get(name, 0.0), "s") for name in SPANS}
    for name in COUNTS:
        out[name] = (counts.get(name, 0), "count")
    builds = counts.get("osalgebra.ideal_lattice.builds", 0)
    hits = counts.get("osalgebra.ideal_lattice.hits", 0)
    out["osalgebra.ideal_lattice.hit_ratio"] = (hits / (builds + hits) if builds + hits else 0.0, "ratio")
    classify_calls = counts.get("hypersolvable.classify.calls", 0)
    instances = traced["attempted"]
    out["hypersolvable.classify.calls_per_instance"] = (classify_calls / instances, "ratio")
    out["hypersolvable.classify.useful_ratio"] = (
        instances / classify_calls if classify_calls else 0.0, "ratio")
    forms = counts.get("graphs.canonical_form.calls", 0)
    out["graphs.useful_ratio"] = (counts.get("graphs.classes", 0) / forms if forms else 0.0, "ratio")
    samples = traced["instance_s"]
    out["cli.instances"] = (len(samples), "count")
    out["cli.instance_s.p50"] = (statistics.median(samples) if samples else 0.0, "s")
    out["cli.instance_s.p80"] = (nearest_rank(samples, 0.8), "s")
    attributed = sum(self_s.values())
    out["trace.wall_s"] = (traced["wall_s"], "s")
    out["trace.unattributed_s"] = (traced["wall_s"] - attributed, "s")
    out["trace.overhead_s"] = (traced["wall_s"] - plain_wall, "s")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "hyparr" / "__init__.py").is_file():
        sys.exit(f"bench: no hyparr sources under {ROOT / 'src'}")

    workdir = Path(tempfile.mkdtemp(prefix="_run-", dir=HERE))
    try:
        setups = [child(args.workload, args.seed, "setup", workdir)["setup_s"]
                  for _ in range(SETUP_REPS)]
        reps = []
        while not reps or sum(r["wall_s"] for r in reps) < args.seconds:
            reps.append(child(args.workload, args.seed, "plain", workdir))
        traced = child(args.workload, args.seed, "traced", workdir) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failed"]) for r in reps)
    failures = sorted({name for r in reps for name in r["failed"]})
    # every repetition must produce the same bytes, traced or not
    runs = reps + ([traced] if traced else [])
    for r in runs[1:]:
        mismatched = [k for k, (a, b) in enumerate(zip(reps[0]["output_digests"], r["output_digests"])) if a != b]
        failed += len(mismatched)
        failures += [f"output {k} differs between repetitions" for k in mismatched]
    if traced:
        attempted += traced["attempted"]
        failed += len(traced["failed"])
        failures += [f"traced {name}" for name in traced["failed"]]

    wall = statistics.median(r["wall_s"] for r in reps)
    end_to_end = {
        "wall_s": wall,
        "setup_s": statistics.median(setups + [r["setup_s"] for r in runs]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    diagnostics = {
        "repetitions": len(reps),
        "host.ref_s": statistics.median(r["host_ref_s"] for r in runs),
        "host.steal_ticks": None if any(r["steal_ticks"] is None for r in runs)
        else sum(r["steal_ticks"] for r in runs),
        "failed_ratio": failed / attempted,
        "failures": failures,
    }
    for name, value in end_to_end.items():
        print(f"{args.workload} {name} = {value:.6g} {END_TO_END[name]}")
    print(f"{args.workload} failed_ratio = {failed}/{attempted}")
    print(json.dumps({"diagnostics": diagnostics}))
    if traced:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in per_layer(traced, wall).items()}
    else:
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in end_to_end.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
