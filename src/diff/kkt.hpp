// Analytical differentiation of the optimal matching (MFCP-AD, paper §3.3).
//
// At an interior stationary point X* of the barrier problem (10), the KKT
// conditions reduce to
//     ∇_X F(X*, T, A) + D^T ν = 0,      D X* = 1_N,
// because the box multipliers μ¹, μ² vanish strictly inside [0,1]^{MN}
// (the simplex solvers keep iterates interior). Total differentiation —
// paper Eq. (15) with the μ rows eliminated — gives the linear system
//     [ H   D^T ] [ dX ]     [ ∇²_XT F dT + ∇²_XA F dA ]
//     [ D   0   ] [ dν ]  = -[ 0                        ]
// whose solution yields the Jacobians dX*/dT and dX*/dA, or — via one
// adjoint solve — the vector-Jacobian products needed for backprop (Eq. 7).
#pragma once

#include "matching/smooth_objective.hpp"

namespace mfcp::diff {

struct KktJacobians {
  Matrix dx_dt;  // MN x MN: d vec(X*) / d vec(T)
  Matrix dx_da;  // MN x MN: d vec(X*) / d vec(A)
};

/// Full Jacobians by multi-RHS solve of the reduced KKT system at `xstar`
/// (which must be the converged interior optimum of `objective`).
KktJacobians kkt_full_jacobians(const matching::KktDifferentiableObjective& objective,
                                const Matrix& xstar);

struct KktVjp {
  Matrix grad_t;  // M x N: dL/dT given upstream dL/dX
  Matrix grad_a;  // M x N: dL/dA
};

/// Adjoint (vector-Jacobian product) path: one KKT solve instead of 2·MN.
/// `upstream` is dL/dX* (M x N). Mathematically identical to multiplying
/// the full Jacobians by the upstream gradient (property-tested).
KktVjp kkt_vjp(const matching::KktDifferentiableObjective& objective,
               const Matrix& xstar, const Matrix& upstream);

}  // namespace mfcp::diff
