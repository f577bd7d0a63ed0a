"""The benchmark tracer still finds every function and method it wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path.insert(0, "bench")
from spans import Tracer
tracer = Tracer()
tracer.install()
from hyparr.cli import main
code = main(["analyze", "--input", "fixtures/theta6.graph"])
print(json.dumps({"code": code, "spans": sorted(tracer.self_s), "counts": dict(tracer.counts)}))
"""


def test_tracer_installs_and_sees_every_layer():
    # bench/spans.py wraps functions by module and name; installing it in a
    # fresh interpreter fails here as soon as one of them is renamed or moved
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    for span in (
        "cli.main",
        "cli.parse_input",
        "hypersolvable.classify",
        "hypersolvable.composition_series",
        "osalgebra.ideal_lattice.full",
        "osalgebra.ideal_lattice.quadratic",
        "homotopy.mu_presentation",
        "homotopy.torsion_and_rank_report",
        "report.build_report",
        "report.render_text",
    ):
        assert span in result["spans"], span
    counts = result["counts"]
    assert counts["osalgebra.ideal_lattice.builds"] > 0
    assert counts["osalgebra.ideal_lattice.hits"] > 0
    assert counts["homotopy.mu_entries"] > 0
