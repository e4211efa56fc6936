// Map-based capacity split: the test-only build_groups oracle.
//
// The hash-map peeling and refinement build_groups ran before it moved to
// a shared CSR adjacency and dense per-object arrays. It rebuilds a
// group-restricted adjacency on every peel, which makes it slow but easy
// to audit; tests/test_groups.cpp checks that the production build_groups
// returns bitwise-identical groups and cut cost.
#pragma once

#include "core/component_solver.hpp"

namespace cca::core {

PlacementGroups oracle_build_groups(const CcaInstance& instance,
                                    const ComponentSolverOptions& options);

}  // namespace cca::core
