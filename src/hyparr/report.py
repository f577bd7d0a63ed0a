"""Report assembly and canonical serialization.

The JSON emitted here is canonical: keys sorted, LF line endings, UTF-8,
integers exact (decimal strings once they leave the 53-bit range a JSON
consumer can trust), and no floats anywhere.  Identical analyses therefore
produce byte-identical documents; the volatile timing measurement is kept
out of the canonical payload and surfaces on stderr instead.
"""

from __future__ import annotations

import json
from typing import Any

from .arrangement import Arrangement
from .errors import InternalInvariantViolation
from .graphs import Graph
from .homotopy import gr1_invariants, mu_presentation, torsion_and_rank_report
from .hypersolvable import Classification
from .intlinalg import RATIONALS
from .osalgebra import QUOTIENTS, hilbert, r_table

TOOL_VERSION = "0.1.0"
_SAFE_INT = 2**53


def _plain(obj: Any) -> Any:
    """The document as plain JSON values, with integers past 2**53 as strings.

    Raises on floats, non-string keys and any other type, so nothing inexact
    or unordered reaches the output.
    """
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > _SAFE_INT else obj
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise InternalInvariantViolation(f"non-string report key {key!r}")
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(item) for item in obj]
    if isinstance(obj, float):
        raise InternalInvariantViolation("floats are banned from reports")
    raise InternalInvariantViolation(f"unserializable report value {obj!r}")


def canonical_json_bytes(doc: dict) -> bytes:
    text = json.dumps(_plain(doc), sort_keys=True, ensure_ascii=False, indent=2)
    return (text + "\n").encode("utf-8")


def emit_report(doc: dict, path: str | None = None) -> bytes:
    """Serialize canonically and write to ``path`` (stdout when None)."""
    import sys

    payload = canonical_json_bytes(doc)
    if path is None or path == "-":
        out = getattr(sys.stdout, "buffer", None)
        if out is None:  # a text stream, such as a redirect_stdout target
            sys.stdout.write(payload.decode("utf-8"))
        else:
            out.write(payload)
            out.flush()
    else:
        from pathlib import Path

        Path(path).write_bytes(payload)
    return payload


def canonical_json_line(doc: dict) -> str:
    """Single-line canonical form for JSONL streams."""
    return json.dumps(_plain(doc), sort_keys=True, ensure_ascii=False)


def input_echo(arr: Arrangement) -> dict:
    if arr.source_graph is not None:
        g: Graph = arr.source_graph
        return {
            "format": "graph",
            "vertices": g.vertex_count,
            "edges": [[u + 1, v + 1] for u, v in g.edges],
            "labels": list(arr.labels),
        }
    return {
        "format": "arrangement",
        "ambient_dim": arr.ambient_dim,
        "normals": [list(v) for v in arr.normals],
        "labels": list(arr.labels),
    }


def classification_block(cls: Classification) -> dict:
    block = {
        "hypersolvable": cls.hypersolvable,
        "supersolvable": cls.supersolvable,
        "p": "infinite" if cls.p is None else cls.p,
        "rank": cls.r,
        "c": "independent" if cls.c is None else cls.c,
        "two_generic": cls.two_generic,
    }
    if cls.p_raw:
        block["p_is_raw_sup"] = True
    if cls.series is not None:
        block["exponents"] = list(cls.series.exponents)
        block["series"] = [list(step) for step in cls.series.chain]
    else:
        block["exponents"] = None
        block["series"] = None
    return block


def build_report(arr: Arrangement, cls: Classification, fields=None) -> tuple[dict, bool]:
    """Full report document; second value says whether homotopy blocks ran."""
    cap = min(arr.rank() + 1, arr.n)
    by_size: dict[str, int] = {}
    chordless: dict[str, int] = {}
    for c in arr.circuits(cap):
        key = str(len(c))
        by_size[key] = by_size.get(key, 0) + 1
    for size in range(3, cap + 1):
        found = arr.chordless_circuits(size)
        if found:
            chordless[str(size)] = len(found)
    table = r_table(arr, fields)
    doc: dict = {
        "version": TOOL_VERSION,
        "input": input_echo(arr),
        "classification": classification_block(cls),
        "betti": arr.betti_mobius(),
        "circuits": {"by_size": by_size, "chordless_by_size": chordless},
        "hilbert": {q: list(hilbert(arr, q, RATIONALS).coefficients) for q in QUOTIENTS},
        "r_table": {
            "characteristics": [f.characteristic for f in table.fields],
            "values_by_degree": [list(v) for v in table.values],
            "field_independent": list(table.field_independent),
        },
    }
    qualified = cls.hypersolvable and not cls.supersolvable
    if qualified:
        pres = mu_presentation(arr)
        doc["homotopy"] = {
            "p": pres.p,
            "mu_shape": [len(pres.rows), len(pres.col_masks)],
            **homotopy_fields(arr),
        }
    return doc, qualified


def homotopy_fields(arr: Arrangement) -> dict:
    """The gr^1 fields of a qualifying arrangement.

    The analyze report and the search lines both carry them: the ranks, the
    invariant factors, the three-way torsion equivalence and the closed rank
    formula.
    """
    gr1 = gr1_invariants(arr)
    tors, book = torsion_and_rank_report(arr)
    return {
        "gr0_rank": book["gr0_rank"],
        "gr1_rank": gr1.free_rank,
        "gr1_invariant_factors": list(gr1.torsion_factors),
        "torsion_equivalences": {
            "gr1_torsion_free": tors.gr1_torsion_free,
            "a_plus_free_p2": tors.a_plus_free_p2,
            "ind_free_p2": tors.ind_free_p2,
        },
        "rank_formula": {k: v for k, v in book.items() if k != "p"},
    }


def render_text(doc: dict) -> str:
    """Human-oriented mirror of the JSON document."""
    lines = [f"hyparr {doc['version']}"]
    inp = doc["input"]
    if inp["format"] == "graph":
        lines.append(
            f"input: graph, {inp['vertices']} vertices, {len(inp['edges'])} edges"
        )
    else:
        lines.append(
            f"input: arrangement, dim {inp['ambient_dim']}, "
            f"{len(inp['normals'])} hyperplanes"
        )
    cls = doc["classification"]
    lines.append(
        f"classification: hypersolvable={cls['hypersolvable']} "
        f"supersolvable={cls['supersolvable']} p={cls['p']} rank={cls['rank']} "
        f"c={cls['c']}"
    )
    if cls.get("exponents") is not None:
        lines.append(f"exponents: {cls['exponents']}")
    lines.append(f"betti: {doc['betti']}")
    lines.append(f"circuits by size: {doc['circuits']['by_size']}")
    lines.append(f"chordless by size: {doc['circuits']['chordless_by_size']}")
    for q in QUOTIENTS:
        lines.append(f"hilbert {q}: {doc['hilbert'][q]}")
    rt = doc["r_table"]
    lines.append(f"r-table characteristics: {rt['characteristics']}")
    for m, vals in enumerate(rt["values_by_degree"]):
        if any(vals):
            flag = "" if rt["field_independent"][m] else "  (field dependent!)"
            lines.append(f"  r_{m}: {vals}{flag}")
    if "homotopy" in doc:
        h = doc["homotopy"]
        lines.append(
            f"homotopy: p={h['p']} gr0_rank={h['gr0_rank']} gr1_rank={h['gr1_rank']} "
            f"gr1_torsion={h['gr1_invariant_factors']}"
        )
        te = h["torsion_equivalences"]
        lines.append(
            f"torsion equivalences: gr1={te['gr1_torsion_free']} "
            f"Aplus={te['a_plus_free_p2']} IND={te['ind_free_p2']}"
        )
        lines.append(f"rank formula: {h['rank_formula']}")
    else:
        lines.append("homotopy: skipped (needs hypersolvable, not supersolvable)")
    return "\n".join(lines) + "\n"
