// Internals shared by the relaxed solvers: mirror descent without its
// telemetry (the price-dual solve falls back to it and records the solve
// once, as its own), and the telemetry itself.
#pragma once

#include "matching/solver_mirror.hpp"

namespace mfcp::matching::detail {

/// solve_mirror_from without record_solve.
SolveResult mirror_descent(const ContinuousObjective& objective, Matrix x0,
                           const MirrorSolverConfig& config);

/// Counts one finished solve in default_registry(), if one is installed:
/// solves, stop reasons (one labelled counter), capped solves, the
/// iteration histogram and the last residual. The handles are resolved
/// once per thread and registry, not looked up by name per solve.
void record_solve(const SolveResult& result);

}  // namespace mfcp::matching::detail
