// Unit tests for the machine-speed probe that calibrates host times.
#include "probe.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(SpeedProbe, SlicesContinueOneEventStream) {
  SpeedProbe whole{1};
  SpeedProbe sliced{1};
  EXPECT_GT(whole.run(30'000), 0.0);
  for (int i = 0; i < 3; ++i) EXPECT_GT(sliced.run(10'000), 0.0);
  EXPECT_NE(whole.checksum(), 0u);
  EXPECT_EQ(sliced.checksum(), whole.checksum());
}

TEST(SpeedProbe, MoreEventsTakeLonger) {
  SpeedProbe probe{1};
  const double few = probe.run(2'000);
  const double many = probe.run(2'000'000);
  EXPECT_LT(few, many);
}

}  // namespace
}  // namespace perfbench
