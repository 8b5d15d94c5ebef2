// Offline analyses over a sequence of disk idle-interval lengths.
//
// The paper grounds its choice of the timeout family on Lu et al.'s
// quantitative comparison [16]: the 2-competitive timeout (t_o = t_be) is
// provably within 2x of the offline oracle, and adaptive/stochastic policies
// close part of the remaining gap. These helpers replay a policy over an
// explicit gap sequence and report the p_d-band energy (static power above
// standby plus transition energy), enabling exactly that comparison — see
// `jpm run scenarios/timeout_policies.json`.
//
// Energy accounting per gap of length L under timeout t_o:
//   L <= t_o:  p_d * L                     (disk stays on)
//   L  > t_o:  p_d * t_o + p_d * t_be      (on until timeout, one round trip)
// The oracle knows L in advance: min(p_d * L, p_d * t_be).
#pragma once

#include <vector>

#include "jpm/disk/timeout_policy.h"
#include "jpm/pareto/timeout_math.h"

namespace jpm::disk {

// Offline-optimal energy over the gaps (joules).
double oracle_energy_j(const std::vector<double>& gaps_s,
                       const pareto::DiskTimeoutParams& params);

// Energy of a fixed timeout over the gaps. timeout may be kNeverTimeout.
double fixed_timeout_energy_j(const std::vector<double>& gaps_s,
                              double timeout_s,
                              const pareto::DiskTimeoutParams& params);

// Energy of the Douglis adaptive policy replayed over the gaps: the timeout
// adapts after every spin-up, exactly as the online policy would.
double adaptive_timeout_energy_j(const std::vector<double>& gaps_s,
                                 const AdaptiveTimeoutConfig& config,
                                 const pareto::DiskTimeoutParams& params);

// Energy of the session-predictive policy replayed over the gaps: every gap
// (exploited or not) feeds its idle-length EWMA.
double predictive_timeout_energy_j(const std::vector<double>& gaps_s,
                                   const pareto::DiskTimeoutParams& params,
                                   double ewma_weight = 0.25);

// Energy of Karlin's randomized policy: a fresh timeout drawn per gap;
// e/(e-1)-competitive in expectation.
double randomized_timeout_energy_j(const std::vector<double>& gaps_s,
                                   const pareto::DiskTimeoutParams& params,
                                   std::uint64_t seed = 1);

// Competitive ratio of a policy's energy against the oracle (>= 1).
double competitive_ratio(double policy_energy_j, double oracle_energy_j);

}  // namespace jpm::disk
