"""Probe small families for torsion in the decomposable quotient.

Whether the decomposable Orlik-Solomon algebra can have torsion in degree
p+2 is open; every instance below is expected to report torsion-free, and
any hit would be a finding worth publishing, not an error.

    python3 demos/torsion_probe.py
"""

from hyparr import classify, from_graph, gr1_invariants, torsion_and_rank_report
from hyparr.graphs import connected_graph_reps

checked = 0
for g in connected_graph_reps(6):
    arr = from_graph(g)
    cls = classify(arr)
    if not (cls.hypersolvable and not cls.supersolvable):
        continue
    rep, book = torsion_and_rank_report(arr)
    gr1 = gr1_invariants(arr)
    checked += 1
    if gr1.torsion_factors:
        print("TORSION-FOUND", g, gr1.torsion_factors)

print(f"graphic sweep: {checked} qualifying graphs on <= 6 vertices, "
      "all torsion-free" if checked else "none qualified")
print()
print("The CLI drives bigger versions of the same sweep:")
print("  hyparr search --family graphic --max-size 7 --output graphic7.jsonl")
print("  hyparr search --family random2g --max-size 12 --seed 1 "
      "--count 100 --output random.jsonl")
