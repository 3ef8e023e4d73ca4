// The decision-focused (MFCP) trainers: MFCP-AD (paper §3.3) and MFCP-FG
// (paper Algorithm 2, Theorem 3).
//
// Both fine-tune MSE-pretrained predictors on the regret of the matching
// they induce, with one training loop. Per epoch, over `rounds_per_step`
// sampled rounds of N tasks:
//   1. t̂_i = m_ω_i(z), â_i = m_φ_i(z) over the round's tasks;
//   2. T̂, Â = the measured T, A with the predicted rows swapped in — every
//      row at once (joint mode, Eq. 5/12), or row i alone with the others
//      at their measured values, one inner problem per cluster
//      (Algorithm 2 line 3);
//   3. X*(T̂, Â) = argmin of the training objective via mirror descent;
//   4. the seed gradients dL/dt̂_i, dL/dâ_i — the only step where the two
//      methods differ:
//      - AD: dL/dX* = (1/N) ∇_X F(X*, T, A) (true metrics; Eq. 7 first
//        term), pulled back through the KKT system (Eq. 15) as one
//        vector-Jacobian product (diff/kkt.hpp);
//      - FG: the zeroth-order estimator (diff/zeroth_order.hpp) applied
//        to the deployed pipeline loss, or to the relaxed surrogate;
//   5. backprop the seeds (plus an MSE anchor) through the predictor
//      networks (nn::fused_backward) and take optimizer steps — ω and φ
//      alternately, holding the other's predictions fixed within the step
//      (paper §3.3, last paragraph).
#pragma once

#include "mfcp/mfcp_config.hpp"
#include "mfcp/predictor.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/dataset.hpp"

namespace mfcp::core {

/// Decision-focused fine-tuning with analytic matching gradients. Requires
/// the convex setting (smoothed-max cost, exclusive execution).
MfcpTrainResult train_mfcp_ad(PlatformPredictor& predictor,
                              const sim::Dataset& train,
                              const MfcpConfig& config);

/// Decision-focused fine-tuning with zeroth-order matching gradients —
/// which is what makes the method applicable to the non-convex
/// parallel-execution objective (Eq. 16/17) and to the Table-1 ablation
/// objectives whose analytic sensitivities degenerate. Supports every
/// CostModel/ConstraintModel combination and arbitrary speedup curves.
/// When `pool` is non-null, the 2·S perturbed matching solves per inner
/// problem run in parallel.
MfcpTrainResult train_mfcp_fg(PlatformPredictor& predictor,
                              const sim::Dataset& train,
                              const MfcpConfig& config,
                              ThreadPool* pool = nullptr);

}  // namespace mfcp::core
