// Exact solve of the default deploy objective in its price dual.
//
// The default deploy objective (smoothed max, log barrier, entropy,
// exclusive execution)
//     F(X) = (1/β) log Σ_i exp(β u_i) + φ(s) + τ Σ_ij x_ij log x_ij,
//     u_i = Σ_j t_ij x_ij,   s = (1/N) Σ_ij a_ij x_ij − γ,
// depends on X only through the M cluster loads u and the reliability
// slack s (φ is the barrier of barrier.hpp, linear below ε). Writing the
// smoothed max and φ through their conjugates and minimising over X
// column by column leaves a smooth concave problem in M + 1 prices:
//     max over y ∈ Δ_M, ν ∈ [−λ/ε, 0) of
//     D(y, ν) = H(y)/β + λ + λ log(−ν/λ) − νγ
//               − τ Σ_j log Σ_i exp(−(y_i t_ij + ν a_ij/N)/τ),
// with H the Shannon entropy. y prices each cluster's load and ν prices
// reliability. There is no duality gap, and the primal solution is the
// column softmax X*(:, j) = softmax_i(−(y_i t_ij + ν a_ij/N)/τ).
//
// solve_price_dual maximises D by damped Newton: a dense (M+2)² system
// carrying Σy = 1, steps taken in log y (so a price can shrink by many
// orders of magnitude in one step), Armijo backtracking on D, and an
// active set for ν at its −λ/ε bound (the slack ≤ ε region, where the
// barrier is linear). Objectives without this conjugate — the linear
// cost and hard-penalty ablations, a decaying speedup curve, τ = 0 — go
// to mirror descent (solve_relaxed routes). DESIGN.md §4 item 3 has the
// derivation.
#pragma once

#include "matching/solver_mirror.hpp"

namespace mfcp::matching {

/// True when `objective` has the price dual: an EntropicObjective over a
/// BarrierObjective whose speedup curve is constant. Reads only the
/// objective's structure.
[[nodiscard]] bool has_price_dual(const ContinuousObjective& objective);

/// Maximises D and returns X*. `residual` is stationarity_residual(
/// objective, X*, 1e-6), the measure mirror descent reports, and
/// `converged` is residual < config.tolerance. Two cases hand the problem
/// to mirror descent under config's iteration cap, with `stop` kFellBack:
/// Newton missing the tolerance (mirror descent continues from X*), and
/// an optimum with ν on its bound, which lies in the barrier's linear
/// safeguard rather than its domain (mirror descent from the uniform
/// start, as for an objective without the dual). Requires
/// has_price_dual(objective).
SolveResult solve_price_dual(const ContinuousObjective& objective,
                             const MirrorSolverConfig& config = {});

/// D at the prices x implies: y = softmax(β u(x)) and ν = φ'(s(x)). By
/// weak duality this is at most min F, and it equals F(x) exactly when x
/// is the optimum (the zero duality gap certificate). Requires
/// has_price_dual(objective).
[[nodiscard]] double price_dual_value(const ContinuousObjective& objective,
                                      const Matrix& x);

/// The solver for a relaxed matching: solve_price_dual when the
/// objective has the price dual, solve_mirror otherwise.
SolveResult solve_relaxed(const ContinuousObjective& objective,
                          const MirrorSolverConfig& config = {});

}  // namespace mfcp::matching
