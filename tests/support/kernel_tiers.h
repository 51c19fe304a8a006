#ifndef AWMOE_TESTS_SUPPORT_KERNEL_TIERS_H_
#define AWMOE_TESTS_SUPPORT_KERNEL_TIERS_H_

#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "mat/kernel_tier.h"

namespace awmoe {

// Cases that hold at EACH kernel tier (graph == workspace bitwise,
// worker-count independence, ...) run once per tier:
//
//   class MySuite : public ::testing::TestWithParam<KernelTier>,
//                   protected KernelTierPin {
//     void SetUp() override { PinKernelTier(GetParam()); }
//   };
//   INSTANTIATE_TEST_SUITE_P(Tiers, MySuite,
//                            ::testing::ValuesIn(kAllKernelTiers),
//                            KernelTierParamName);

inline constexpr KernelTier kAllKernelTiers[] = {KernelTier::kReference,
                                                 KernelTier::kFast};

inline std::string KernelTierLabel(KernelTier tier) {
  return tier == KernelTier::kFast ? "fast" : "reference";
}

inline std::string KernelTierParamName(
    const ::testing::TestParamInfo<KernelTier>& info) {
  return KernelTierLabel(info.param);
}

/// Pins a kernel tier for the rest of the test; the previous tier comes
/// back when the fixture is destroyed. The fast tier on a build or CPU
/// without it skips the test (call from SetUp).
class KernelTierPin {
 protected:
  void PinKernelTier(KernelTier tier) {
    if (tier == KernelTier::kFast && !FastKernelTierAvailable()) {
      GTEST_SKIP() << "fast kernel tier unavailable on this build/CPU";
    }
    pin_.emplace(tier);
  }

 private:
  std::optional<ScopedKernelTier> pin_;
};

}  // namespace awmoe

#endif  // AWMOE_TESTS_SUPPORT_KERNEL_TIERS_H_
