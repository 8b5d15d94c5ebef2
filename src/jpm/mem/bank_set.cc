#include "jpm/mem/bank_set.h"

#include <algorithm>
#include <limits>

#include "jpm/util/check.h"

namespace jpm::mem {

BankSet::BankSet(std::uint32_t bank_count, const RdramParams& params,
                 BankPolicy policy, double start_time_s)
    : params_(params),
      policy_(policy),
      bank_nap_w_(params.nap_power_w(params.bank_bytes)),
      bank_pd_w_(params.powerdown_power_w(params.bank_bytes)),
      last_access_(bank_count, start_time_s),
      integrated_to_(bank_count, start_time_s),
      disabled_(bank_count, false) {
  JPM_CHECK(bank_count > 0);
  if (policy_ == BankPolicy::kDisable) {
    prev_.resize(bank_count);
    next_.resize(bank_count);
    for (std::uint32_t b = 0; b < bank_count; ++b) append(b);
  }
}

void BankSet::unlink(std::uint32_t bank) {
  const std::uint32_t p = prev_[bank];
  const std::uint32_t n = next_[bank];
  (p == kNone ? head_ : next_[p]) = n;
  (n == kNone ? tail_ : prev_[n]) = p;
}

void BankSet::append(std::uint32_t bank) {
  prev_[bank] = tail_;
  next_[bank] = kNone;
  (tail_ == kNone ? head_ : next_[tail_]) = bank;
  tail_ = bank;
}

void BankSet::integrate(std::uint32_t bank, double t) {
  const double from = integrated_to_[bank];
  if (t <= from) return;

  double timeout;
  double low_w;
  switch (policy_) {
    case BankPolicy::kNapOnly:
      timeout = std::numeric_limits<double>::infinity();
      low_w = bank_nap_w_;
      break;
    case BankPolicy::kPowerDown:
      timeout = params_.powerdown_timeout_s;
      low_w = bank_pd_w_;
      break;
    case BankPolicy::kDisable:
      timeout = params_.disable_timeout_s;
      low_w = 0.0;  // disabled banks consume nothing
      break;
    default:
      JPM_CHECK_MSG(false, "unknown bank policy");
      return;
  }

  const double cutoff = last_access_[bank] + timeout;
  const double nap_dt = std::clamp(cutoff - from, 0.0, t - from);
  const double low_dt = (t - from) - nap_dt;
  static_energy_j_ += bank_nap_w_ * nap_dt + low_w * low_dt;
  integrated_to_[bank] = t;
}

void BankSet::touch(std::uint32_t bank, double t) {
  JPM_CHECK(bank < bank_count());
  integrate(bank, t);
  last_access_[bank] = t;
  if (policy_ == BankPolicy::kDisable) {
    // Enabled banks are exactly the armed ones: move to the tail (newest).
    if (!disabled_[bank]) unlink(bank);
    append(bank);
  }
  disabled_[bank] = false;
}

double BankSet::next_disable_s(double t) const {
  if (policy_ != BankPolicy::kDisable) {
    return std::numeric_limits<double>::infinity();
  }
  return head_ == kNone ? t + params_.disable_timeout_s
                        : last_access_[head_] + params_.disable_timeout_s;
}

std::vector<BankDisable> BankSet::take_due_disables(double t) {
  std::vector<BankDisable> fired;
  while (head_ != kNone) {
    const std::uint32_t bank = head_;
    const double fire_at = last_access_[bank] + params_.disable_timeout_s;
    if (fire_at > t) break;
    unlink(bank);
    integrate(bank, fire_at);
    disabled_[bank] = true;
    ++disable_count_;
    fired.push_back(BankDisable{bank, fire_at});
  }
  return fired;
}

void BankSet::finalize(double t) {
  for (std::uint32_t b = 0; b < bank_count(); ++b) integrate(b, t);
}

bool BankSet::is_disabled(std::uint32_t bank) const {
  JPM_CHECK(bank < bank_count());
  return disabled_[bank];
}

}  // namespace jpm::mem
