// Ablation B — offline computation cost (Sec. 3.1 / Sec. 4.2).
//
// The paper reports O(|T||N|) LP variables/constraints and up to 48-hour
// LPsolve runs at scope 10000. This harness measures, across scopes:
//   * the literal Fig. 4 program size (variables, constraints, nonzeros),
//   * wall-clock time to solve it with our simplex (small scopes only),
//   * wall-clock time of the component-exact solver (all scopes),
// quantifying why the component path makes reproduction tractable.
//
// It then runs a synthetic scaling grid (rows x density) over seeded
// random LPs, reporting per-cell iteration counts, factorization work,
// wall-clock, and the cold vs warm-restart iterations of re-solving a
// perturbed sibling. With --json=<path> the grid is also dumped as a
// JSON array (BENCH_lp_solver.json in the build tree) so the solver's
// perf trajectory can be tracked across changes.
//
//   ./bench_lp_solver [--nodes=10] [--full-limit=25]
//                     [--grid-max-rows=400]
//                     [--json=<path>] [testbed flags]
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/component_solver.hpp"
#include "core/lp_formulation.hpp"
#include "lp/model.hpp"
#include "lp/solution.hpp"
#include "lp/solver.hpp"
#include "testbed.hpp"

using namespace cca;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Seeded random LP for the scaling grid: minimize a mixed-sign objective
/// over `rows` constraints on `cols` nonnegative variables, with nonzero
/// density `density`. Feasible by construction (the rhs is set from a
/// known sparse point x0, so equality rows are satisfiable and <= rows
/// have slack) and bounded for any objective (coefficients are positive
/// and every column appears in at least one <= row, so no recession
/// direction exists). Every fifth row is an equality, which both forces a
/// phase-1 with artificials and makes many cells degenerate (x0 is 70%
/// zeros, so equality rhs values cluster near zero) — the regime that
/// stresses anti-cycling and the ratio-test tie-break.
lp::Model make_grid_lp(int rows, int cols, double density,
                       std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> x0(static_cast<std::size_t>(cols), 0.0);
  for (double& v : x0)
    if (rng.next_double() < 0.3) v = 2.0 * rng.next_double();

  std::vector<std::vector<lp::Term>> row_terms(
      static_cast<std::size_t>(rows));
  std::vector<double> row_activity(static_cast<std::size_t>(rows), 0.0);
  const auto is_equality = [](int i) { return i % 5 == 0; };
  for (int j = 0; j < cols; ++j) {
    bool in_le_row = false;
    for (int i = 0; i < rows; ++i) {
      if (rng.next_double() >= density) continue;
      const double a = 0.1 + rng.next_double();
      row_terms[static_cast<std::size_t>(i)].push_back({j, a});
      row_activity[static_cast<std::size_t>(i)] +=
          a * x0[static_cast<std::size_t>(j)];
      if (!is_equality(i)) in_le_row = true;
    }
    if (!in_le_row) {  // keep the program bounded: pin j to some <= row
      int i = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(rows)));
      if (is_equality(i)) i = (i + 1) % rows;
      const double a = 0.1 + rng.next_double();
      row_terms[static_cast<std::size_t>(i)].push_back({j, a});
      row_activity[static_cast<std::size_t>(i)] +=
          a * x0[static_cast<std::size_t>(j)];
    }
  }

  lp::Model model;
  for (int j = 0; j < cols; ++j)
    model.add_variable(0.0, lp::kInfinity, 2.0 * rng.next_double() - 1.0);
  for (int i = 0; i < rows; ++i) {
    if (is_equality(i)) {
      model.add_constraint(lp::Relation::kEqual,
                           row_activity[static_cast<std::size_t>(i)],
                           row_terms[static_cast<std::size_t>(i)]);
    } else {
      model.add_constraint(lp::Relation::kLessEqual,
                           row_activity[static_cast<std::size_t>(i)] +
                               rng.next_double() + 0.1,
                           row_terms[static_cast<std::size_t>(i)]);
    }
  }
  return model;
}

}  // namespace

static int main_body(const common::CliArgs& args) {
  const bench::TestbedConfig cfg = bench::TestbedConfig::from_cli(args);
  const int nodes = static_cast<int>(args.get_int("nodes", 10));
  // Scopes up to this size also solve the literal Fig. 4 LP. Kept tiny by
  // default: the program is so degenerate (thousands of rhs-0 rows) that
  // simplex time explodes with scope — the same wall that cost the
  // paper's authors 48 LPsolve-hours at scope 10000.
  const auto full_limit =
      static_cast<std::size_t>(args.get_int("full-limit", 25));
  // Scaling-grid knob: largest row count to run.
  const int grid_max_rows =
      static_cast<int>(args.get_int("grid-max-rows", 400));
  args.reject_unused();

  const bench::Testbed tb = bench::Testbed::build(cfg);
  tb.print_banner("Ablation B — LP sizes and solve times");

  common::Table table({"scope", "pairs |E|", "LP vars", "LP rows",
                       "full-LP solve (s)", "component solve (s)",
                       "components"});
  for (const std::size_t scope : {std::size_t{20}, std::size_t{40},
                                  std::size_t{60}, std::size_t{120},
                                  std::size_t{250}, std::size_t{500},
                                  std::size_t{1000}, std::size_t{2000}}) {
    core::PartialOptimizerConfig opt_cfg;
    opt_cfg.num_nodes = nodes;
    opt_cfg.scope = scope;
    opt_cfg.seed = cfg.seed;
    const core::PartialOptimizer optimizer(tb.january, tb.sizes, opt_cfg);
    const core::CcaInstance& instance = optimizer.scoped_instance();

    const core::LpFormulation formulation(instance);
    const core::LpSizeStats stats = formulation.stats();

    std::string full_time = "(skipped)";
    if (scope <= full_limit) {
      lp::SolverOptions options;
      options.max_iterations = 60000;  // fail fast instead of crawling
      const auto start = std::chrono::steady_clock::now();
      try {
        const core::FractionalPlacement x =
            core::solve_cca_lp(instance, options);
        full_time = common::Table::num(seconds_since(start), 2);
        (void)x;
      } catch (const common::Error&) {
        full_time = "(>60k pivots)";
      }
    }

    const auto start = std::chrono::steady_clock::now();
    const core::FractionalPlacement x =
        core::ComponentLpSolver(cfg.seed).solve(instance);
    const double component_time = seconds_since(start);
    const core::ComponentStructure cs = core::find_components(instance);
    (void)x;

    table.add_row({std::to_string(scope),
                   std::to_string(instance.pairs().size()),
                   std::to_string(stats.num_variables),
                   std::to_string(stats.num_constraints), full_time,
                   common::Table::num(component_time, 3),
                   std::to_string(cs.num_components())});
  }
  table.print(std::cout);
  std::cout << "\n(full-LP = literal Fig. 4 program via our simplex —"
               " the paper's LPsolve route; component = exact contraction"
               " described in component_solver.hpp)\n";

  // ------------------------------------------------------------------
  // Scaling grid: rows x density over seeded random LPs. Each cell solves
  // its model cold, then re-solves an rhs-perturbed sibling twice: cold,
  // and warm from the first solve's basis — the hot-restart pattern
  // bench_drift and the RecoveryPlanner live on. The two sibling solves
  // must agree on status and objective (check_lp_grid.py asserts it from
  // the JSON dump): hints change iteration counts, never answers.
  // ------------------------------------------------------------------
  std::cout << "\nScaling grid — synthetic sparse LPs (cols = 2x rows,"
               " every 5th row an equality)\n\n";
  common::Table grid({"rows", "cols", "density", "status", "iters",
                      "objective", "solve (ms)", "restart cold it",
                      "restart warm it", "warm hit"});
  std::vector<std::string> json_rows;
  const lp::Solver solver;
  for (const int rows : {50, 100, 200, 400}) {
    if (rows > grid_max_rows) continue;
    for (const double density : {0.02, 0.08}) {
      const int cols = 2 * rows;
      const std::uint64_t cell_seed =
          cfg.seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(rows) * 131 +
          static_cast<std::uint64_t>(density * 1000.0);
      const lp::Model model = make_grid_lp(rows, cols, density, cell_seed);
      // The rhs-perturbed sibling for the warm-restart measurement: every
      // rhs nudged up (deterministically per cell). The old basis may turn
      // primal infeasible, and a nudged equality row can make the sibling
      // infeasible outright.
      lp::Model perturbed;
      {
        common::Rng prng(cell_seed ^ 0xD1B54A32D192ED03ULL);
        for (int j = 0; j < model.num_variables(); ++j)
          perturbed.add_variable(model.lower_bound(j), model.upper_bound(j),
                                 model.objective_coef(j));
        for (int i = 0; i < model.num_constraints(); ++i)
          perturbed.add_constraint(model.relation(i),
                                   model.rhs(i) + 0.05 * prng.next_double(),
                                   model.row_terms(i));
      }
      const lp::SolveResult r = solver.solve(model);
      const lp::SolveResult restart_cold = solver.solve(perturbed);
      const lp::SolveResult restart_warm = solver.solve(perturbed, &r.basis);
      grid.add_row({std::to_string(rows), std::to_string(cols),
                    common::Table::num(density, 2),
                    to_string(r.solution.status),
                    std::to_string(r.solution.iterations),
                    common::Table::num(r.solution.objective, 6),
                    common::Table::num(r.stats.total_ms, 2),
                    std::to_string(restart_cold.solution.iterations),
                    std::to_string(restart_warm.solution.iterations),
                    restart_warm.stats.warm_start_hit ? "yes" : "no"});
      std::ostringstream row;
      row << "  {\"seed\": " << cfg.seed << ", \"rows\": " << rows
          << ", \"cols\": " << cols << ", \"density\": " << density
          << ", \"status\": \"" << to_string(r.solution.status) << "\""
          << ", \"objective\": " << r.solution.objective
          << ", \"iterations\": " << r.solution.iterations
          << ", \"phase1_iterations\": " << r.stats.phase1_iterations
          << ", \"phase2_iterations\": " << r.stats.phase2_iterations
          << ", \"factorizations\": " << r.stats.factorizations
          << ", \"fill_nnz\": " << r.stats.factor_fill_nnz
          << ", \"pricing_candidates\": " << r.stats.pricing_candidates
          << ", \"solve_ms\": " << r.stats.total_ms
          << ", \"restart_cold_status\": \""
          << to_string(restart_cold.solution.status) << "\""
          << ", \"restart_warm_status\": \""
          << to_string(restart_warm.solution.status) << "\""
          << ", \"restart_cold_objective\": "
          << restart_cold.solution.objective
          << ", \"restart_warm_objective\": "
          << restart_warm.solution.objective
          << ", \"restart_cold_iterations\": "
          << restart_cold.solution.iterations
          << ", \"restart_warm_iterations\": "
          << restart_warm.solution.iterations
          << ", \"restart_warm_hit\": "
          << (restart_warm.stats.warm_start_hit ? "true" : "false") << "}";
      json_rows.push_back(row.str());
    }
  }
  grid.print(std::cout);
  std::cout << "\n('restart' re-solves an rhs-perturbed sibling of the"
               " cell's model, cold and warm from the cell's optimal"
               " basis; a warm hit skips phase 1, a miss cold-starts)\n";

  if (!cfg.json_path.empty()) {
    std::ofstream out(cfg.json_path);
    CCA_CHECK_MSG(out.good(), "cannot write JSON log to " << cfg.json_path);
    out << "[\n";
    for (std::size_t i = 0; i < json_rows.size(); ++i)
      out << json_rows[i] << (i + 1 < json_rows.size() ? ",\n" : "\n");
    out << "]\n";
    std::cout << "\nwrote " << json_rows.size() << " cells to "
              << cfg.json_path << "\n";
  }

  bench::write_metrics(cfg);
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, main_body);
}
