#include "jpm/mem/bank_set.h"

#include <gtest/gtest.h>

#include <limits>

#include "jpm/util/check.h"

namespace jpm::mem {
namespace {

RdramParams test_params() {
  RdramParams p;
  p.bank_bytes = 16 * kMiB;  // 10.5 mW nap
  return p;
}

TEST(BankSetTest, NapOnlyIntegratesConstantPower) {
  const auto p = test_params();
  BankSet banks(4, p, BankPolicy::kNapOnly);
  banks.finalize(100.0);
  EXPECT_NEAR(banks.static_energy_j(),
              4 * p.nap_power_w(p.bank_bytes) * 100.0, 1e-9);
}

TEST(BankSetTest, PowerDownDropsAfterTimeout) {
  auto p = test_params();
  p.powerdown_timeout_s = 10.0;  // exaggerated for visibility
  BankSet banks(1, p, BankPolicy::kPowerDown);
  banks.finalize(100.0);
  const double nap_w = p.nap_power_w(p.bank_bytes);
  const double expected = nap_w * 10.0 + 0.3 * nap_w * 90.0;
  EXPECT_NEAR(banks.static_energy_j(), expected, 1e-9);
}

TEST(BankSetTest, TouchRestartsPowerDownTimer) {
  auto p = test_params();
  p.powerdown_timeout_s = 10.0;
  BankSet banks(1, p, BankPolicy::kPowerDown);
  banks.touch(0, 50.0);  // was: nap 10, pd 40; now restarts
  banks.finalize(100.0);
  const double nap_w = p.nap_power_w(p.bank_bytes);
  // [0,10] nap, [10,50] pd, [50,60] nap, [60,100] pd.
  const double expected = nap_w * 20.0 + 0.3 * nap_w * 80.0;
  EXPECT_NEAR(banks.static_energy_j(), expected, 1e-9);
}

TEST(BankSetTest, DisableFiresAfterTimeout) {
  auto p = test_params();
  p.disable_timeout_s = 30.0;
  BankSet banks(2, p, BankPolicy::kDisable);
  banks.touch(0, 5.0);
  auto fired = banks.take_due_disables(40.0);
  // Bank 1 (never touched) fires at 30; bank 0 fires at 35.
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].bank, 1u);
  EXPECT_NEAR(fired[0].time_s, 30.0, 1e-12);
  EXPECT_EQ(fired[1].bank, 0u);
  EXPECT_NEAR(fired[1].time_s, 35.0, 1e-12);
  EXPECT_TRUE(banks.is_disabled(0));
  EXPECT_TRUE(banks.is_disabled(1));
  EXPECT_EQ(banks.disable_count(), 2u);
}

TEST(BankSetTest, TouchCancelsPendingDisable) {
  auto p = test_params();
  p.disable_timeout_s = 30.0;
  BankSet banks(1, p, BankPolicy::kDisable);
  banks.touch(0, 20.0);
  banks.touch(0, 45.0);
  EXPECT_TRUE(banks.take_due_disables(50.0).empty());
  auto fired = banks.take_due_disables(80.0);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_NEAR(fired[0].time_s, 75.0, 1e-12);
}

TEST(BankSetTest, DisabledBankConsumesNothing) {
  auto p = test_params();
  p.disable_timeout_s = 10.0;
  BankSet banks(1, p, BankPolicy::kDisable);
  banks.take_due_disables(10.0);
  banks.finalize(1000.0);
  const double nap_w = p.nap_power_w(p.bank_bytes);
  EXPECT_NEAR(banks.static_energy_j(), nap_w * 10.0, 1e-9);
}

TEST(BankSetTest, ReenabledBankResumesNap) {
  auto p = test_params();
  p.disable_timeout_s = 10.0;
  BankSet banks(1, p, BankPolicy::kDisable);
  banks.take_due_disables(10.0);
  ASSERT_TRUE(banks.is_disabled(0));
  banks.touch(0, 100.0);  // reactivation
  EXPECT_FALSE(banks.is_disabled(0));
  banks.finalize(105.0);
  const double nap_w = p.nap_power_w(p.bank_bytes);
  // nap [0,10], off [10,100], nap [100,105].
  EXPECT_NEAR(banks.static_energy_j(), nap_w * 15.0, 1e-9);
}

TEST(BankSetTest, LazyIntegrationMatchesEagerFinalize) {
  // Touching in several steps must integrate the same energy as one finalize.
  auto p = test_params();
  p.powerdown_timeout_s = 5.0;
  BankSet lazy(3, p, BankPolicy::kPowerDown);
  lazy.touch(1, 7.0);
  lazy.touch(1, 8.0);
  lazy.touch(2, 30.0);
  lazy.finalize(60.0);

  const double nap_w = p.nap_power_w(p.bank_bytes);
  const double pd_w = 0.3 * nap_w;
  // Bank 0: nap 5, pd 55. Bank 1: nap 5 + pd 2 + nap 1 + nap 5 + pd 47.
  // Bank 2: nap 5 + pd 25 + nap 5 + pd 25.
  const double b0 = nap_w * 5 + pd_w * 55;
  const double b1 = nap_w * 5 + pd_w * 2 + nap_w * 1 + nap_w * 5 + pd_w * 47;
  const double b2 = nap_w * 5 + pd_w * 25 + nap_w * 5 + pd_w * 25;
  EXPECT_NEAR(lazy.static_energy_j(), b0 + b1 + b2, 1e-9);
}

TEST(BankSetTest, NoDisablesFromNonDisablePolicies) {
  BankSet banks(2, test_params(), BankPolicy::kPowerDown);
  EXPECT_TRUE(banks.take_due_disables(1e9).empty());
}

TEST(BankSetTest, DisablesFireInLastTouchOrder) {
  auto p = test_params();
  p.disable_timeout_s = 10.0;
  BankSet banks(4, p, BankPolicy::kDisable);
  EXPECT_EQ(banks.next_disable_s(0.0), 10.0);  // every bank armed at start
  banks.touch(2, 1.0);
  banks.touch(0, 2.0);
  banks.touch(3, 3.0);
  banks.touch(1, 4.0);
  EXPECT_EQ(banks.next_disable_s(4.0), 11.0);
  banks.touch(2, 5.0);  // re-touch moves bank 2 to the back
  EXPECT_EQ(banks.next_disable_s(5.0), 12.0);
  const auto fired = banks.take_due_disables(100.0);
  ASSERT_EQ(fired.size(), 4u);
  const std::uint32_t order[] = {0, 3, 1, 2};
  const double times[] = {12.0, 13.0, 14.0, 15.0};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(fired[i].bank, order[i]);
    EXPECT_EQ(fired[i].time_s, times[i]);
  }
  // Every bank fired: nothing is armed, and a touch at or after t expires
  // no sooner than t + timeout.
  EXPECT_EQ(banks.next_disable_s(100.0), 110.0);
  EXPECT_EQ(banks.next_disable_s(250.0), 260.0);
  banks.touch(1, 103.0);
  EXPECT_EQ(banks.next_disable_s(104.0), 113.0);
}

TEST(BankSetTest, EqualTimeTouchesDisableInTouchOrder) {
  auto p = test_params();
  p.disable_timeout_s = 10.0;
  BankSet banks(5, p, BankPolicy::kDisable);
  for (std::uint32_t b : {3u, 1u, 4u, 0u, 2u}) banks.touch(b, 7.0);
  const auto early = banks.take_due_disables(16.9);
  EXPECT_TRUE(early.empty());
  const auto fired = banks.take_due_disables(17.0);  // <= fires
  ASSERT_EQ(fired.size(), 5u);
  const std::uint32_t order[] = {3, 1, 4, 0, 2};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(fired[i].bank, order[i]);
    EXPECT_EQ(fired[i].time_s, 17.0);
  }
}

TEST(BankSetTest, ReenabledBankRearmsBehindArmedBanks) {
  auto p = test_params();
  p.disable_timeout_s = 10.0;
  BankSet banks(2, p, BankPolicy::kDisable);
  banks.touch(1, 5.0);
  ASSERT_EQ(banks.take_due_disables(10.0).size(), 1u);  // bank 0 at 10
  ASSERT_TRUE(banks.is_disabled(0));
  banks.touch(0, 12.0);  // re-enable: armed again, behind bank 1
  EXPECT_FALSE(banks.is_disabled(0));
  EXPECT_EQ(banks.next_disable_s(12.0), 15.0);
  const auto fired = banks.take_due_disables(30.0);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].bank, 1u);
  EXPECT_EQ(fired[0].time_s, 15.0);
  EXPECT_EQ(fired[1].bank, 0u);
  EXPECT_EQ(fired[1].time_s, 22.0);
  EXPECT_EQ(banks.disable_count(), 3u);
}

TEST(BankSetTest, NextDisableIsInfiniteForPowerDownAndNap) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const BankPolicy policy :
       {BankPolicy::kPowerDown, BankPolicy::kNapOnly}) {
    BankSet banks(3, test_params(), policy);
    EXPECT_EQ(banks.next_disable_s(0.0), inf);
    banks.touch(1, 5.0);
    EXPECT_EQ(banks.next_disable_s(5.0), inf);
  }
}

TEST(BankSetTest, RejectsOutOfRangeBank) {
  BankSet banks(2, test_params(), BankPolicy::kNapOnly);
  EXPECT_THROW(banks.touch(2, 1.0), CheckError);
  EXPECT_THROW(banks.is_disabled(5), CheckError);
}

TEST(BankSetTest, RejectsZeroBanks) {
  EXPECT_THROW(BankSet(0, test_params(), BankPolicy::kNapOnly), CheckError);
}

}  // namespace
}  // namespace jpm::mem
