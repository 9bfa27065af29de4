"""A1 -- Ablation: matching scheme during coarsening.

The paper's design choice: heavy-edge matching with a balanced-edge
tie-break.  This ablation compares random matching (rm), heavy-edge with
balanced tie-break (hem) and balanced-edge with heavy tie-break (bem) on a
multi-constraint problem.  Expected shape: hem/bem produce clearly better
cuts than rm at similar balance; hem is the best-or-tied default.
"""

from __future__ import annotations

from _util import emit_table, timed, type1_graph

from repro.partition import part_graph

GRAPH = "sm2"
K = 16
M = 3
SEED = 6
SCHEMES = ("rm", "hem", "bem")


def _sweep():
    g = type1_graph(GRAPH, M)
    rows = []
    cuts = {}
    for scheme in SCHEMES:
        res, secs = timed(part_graph, g, K, matching=scheme, seed=SEED)
        cuts[scheme] = res.edgecut
        rows.append([
            scheme, res.edgecut, f"{res.max_imbalance:.3f}",
            "yes" if res.feasible else "NO", f"{secs:.1f}",
        ])
    return rows, cuts


def test_matching_ablation(once):
    rows, cuts = once(_sweep)
    emit_table(
        "matching_ablation",
        ["matching", "edge-cut", "max imbalance", "balanced", "time (s)"],
        rows,
        f"A1: matching-scheme ablation ({GRAPH}, m={M}, k={K})",
    )
    # Heavy-edge style matching must not lose badly to random matching.
    assert cuts["hem"] <= 1.15 * cuts["rm"]
    assert cuts["bem"] <= 1.3 * cuts["rm"]
