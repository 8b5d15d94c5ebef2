// Per-bank memory power management for the PD (timeout power-down) and DS
// (timeout disable) baseline policies.
//
// Both policies run a 2-competitive timeout per bank: after
// `powerdown_timeout_s` (PD) or `disable_timeout_s` (DS) of bank idleness the
// bank drops to its low-power mode. PD retains data (no behavioural effect,
// only energy); DS loses the bank's contents, so the engine must invalidate
// the bank's cached pages at the moment the disable fires — take_due_disables
// surfaces those moments exactly, in time order.
//
// Energy is integrated lazily per bank (on touch and at finalize). DS keeps
// its armed banks on an intrusive list in last-touch order: every bank shares
// one timeout, so they expire in exactly that order, and both touch and the
// next expiry are O(1).
#pragma once

#include <cstdint>
#include <vector>

#include "jpm/mem/rdram_model.h"

namespace jpm::mem {

enum class BankPolicy {
  kNapOnly,    // always-on: banks sit in nap forever
  kPowerDown,  // drop to power-down after powerdown_timeout_s
  kDisable,    // disable (lose data) after disable_timeout_s
};

struct BankDisable {
  std::uint32_t bank;
  double time_s;  // when the disable fired
};

class BankSet {
 public:
  BankSet(std::uint32_t bank_count, const RdramParams& params,
          BankPolicy policy, double start_time_s = 0.0);

  // Marks an access to the bank at time t (t must be nondecreasing across
  // calls). Re-enables a disabled bank.
  void touch(std::uint32_t bank, double t);

  // Earliest time a disable can fire, given no touch before t: the head
  // bank's expiry, or t + disable_timeout_s when no bank is armed (a touch
  // at or after t arms no earlier expiry). +inf for PD and nap. Events
  // from t strictly before it cannot trip a disable.
  double next_disable_s(double t) const;

  // Disables that fired at or before t, in nondecreasing time order (ties in
  // touch order). The caller invalidates the corresponding cache contents.
  // Empty unless the policy is kDisable.
  std::vector<BankDisable> take_due_disables(double t);

  // Integrates all banks' energy up to t (end of run or period boundary).
  void finalize(double t);

  // Static energy accumulated so far (through the last touch/finalize).
  double static_energy_j() const { return static_energy_j_; }
  std::uint32_t bank_count() const {
    return static_cast<std::uint32_t>(last_access_.size());
  }
  bool is_disabled(std::uint32_t bank) const;
  std::uint64_t disable_count() const { return disable_count_; }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  void integrate(std::uint32_t bank, double t);
  void unlink(std::uint32_t bank);
  void append(std::uint32_t bank);

  RdramParams params_;
  BankPolicy policy_;
  double bank_nap_w_;
  double bank_pd_w_;
  std::vector<double> last_access_;      // last touch (or start) per bank
  std::vector<double> integrated_to_;    // energy accounted through this time
  std::vector<bool> disabled_;
  // Armed banks (kDisable only), oldest touch at head_.
  std::vector<std::uint32_t> prev_;
  std::vector<std::uint32_t> next_;
  std::uint32_t head_ = kNone;
  std::uint32_t tail_ = kNone;
  double static_energy_j_ = 0.0;
  std::uint64_t disable_count_ = 0;
};

}  // namespace jpm::mem
