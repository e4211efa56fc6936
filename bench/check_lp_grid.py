"""Validates a bench_lp_solver --json grid dump (BENCH_lp_solver.json).

Checks that the dump is valid JSON with the per-cell schema, that each
(rows, density) point appears exactly once and solved to optimality, and
that the warm re-solve of the cell's rhs-perturbed sibling (hinted with
the cell's optimal basis) reaches the same status and objective as the
cold solve of that sibling: hints change iteration counts, never answers.

Usage: python3 check_lp_grid.py <grid.json>
"""
import json
import sys

REQUIRED = {
    "rows", "cols", "density", "status", "objective", "iterations",
    "phase1_iterations", "phase2_iterations", "factorizations", "fill_nnz",
    "pricing_candidates", "solve_ms", "restart_cold_status",
    "restart_warm_status",
    "restart_cold_objective", "restart_warm_objective",
    "restart_cold_iterations", "restart_warm_iterations",
    "restart_warm_hit",
}


def main(path):
    with open(path) as f:
        cells = json.load(f)
    if not cells:
        raise SystemExit("grid dump is empty")
    points = set()
    cold_iters = warm_iters = hits = 0
    for cell in cells:
        missing = REQUIRED - set(cell)
        if missing:
            raise SystemExit(f"cell {cell} missing keys {sorted(missing)}")
        point = (cell["rows"], cell["density"])
        if point in points:
            raise SystemExit(f"point {point} appears twice")
        points.add(point)
        if cell["status"] != "optimal":
            raise SystemExit(f"cell not optimal: {cell}")
        if cell["restart_warm_status"] != cell["restart_cold_status"]:
            raise SystemExit(f"point {point}: warm and cold restart statuses "
                             f"differ: {cell}")
        cold = cell["restart_cold_objective"]
        warm = cell["restart_warm_objective"]
        if (cell["restart_cold_status"] == "optimal" and
                abs(warm - cold) > 1e-6 * (1.0 + abs(cold))):
            raise SystemExit(
                f"point {point}: warm restart {warm} != cold {cold}")
        cold_iters += cell["restart_cold_iterations"]
        warm_iters += cell["restart_warm_iterations"]
        hits += bool(cell["restart_warm_hit"])
    print(f"{len(cells)} (rows, density) points, all optimal; warm and cold "
          f"restarts agree; restart iterations cold {cold_iters} vs warm "
          f"{warm_iters}, {hits} warm hits")


if __name__ == "__main__":
    main(sys.argv[1])
