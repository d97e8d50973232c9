#include "schedule.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace perfbench {

using fairrec::GroupShape;
using fairrec::Rng;

const std::vector<SelectorShare>& SelectorMix() {
  static const std::vector<SelectorShare> mix = {
      {"algorithm1", 0.60},   {"greedy-value", 0.08}, {"local-search", 0.08},
      {"least-misery", 0.08}, {"envy-swap", 0.08},    {"fair-package", 0.08},
  };
  return mix;
}

const std::vector<GroupShape>& GroupShapes() {
  static const std::vector<GroupShape> shapes = {
      GroupShape::kCohesive, GroupShape::kRandom, GroupShape::kSkewed,
      GroupShape::kColdStart, GroupShape::kAdversarial};
  return shapes;
}

std::vector<ScheduledRequest> MakeRequestSchedule(const fairrec::Scenario& scenario,
                                                  int64_t count, double rate, uint64_t seed) {
  FAIRREC_CHECK(rate > 0.0);
  std::vector<double> weights;
  for (const SelectorShare& share : SelectorMix()) weights.push_back(share.weight);
  const int32_t num_users = scenario.ratings.num_users();

  Rng rng(seed ^ 0x7265717565737473ull);
  std::vector<ScheduledRequest> schedule(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    ScheduledRequest& r = schedule[static_cast<size_t>(i)];
    r.due_s = static_cast<double>(i) / rate;
    r.is_group = rng.NextBool(kGroupFraction);
    if (r.is_group) {
      const GroupShape shape = GroupShapes()[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(GroupShapes().size()) - 1))];
      r.group.members = scenario.MakeGroup(shape, kGroupSize, rng.NextUint64());
      r.group.z = kGroupZ;
      r.group.selector = SelectorMix()[rng.WeightedIndex(weights)].name;
    } else {
      r.user.user = static_cast<fairrec::UserId>(rng.UniformInt(0, num_users - 1));
    }
  }
  return schedule;
}

int64_t SamplePoisson(double mean, Rng& rng) {
  const double limit = std::exp(-mean);
  int64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= rng.NextDouble();
  } while (p > limit);
  return k - 1;
}

std::vector<ScheduledDelta> MakeDeltaSchedule(int32_t num_users, int32_t num_items,
                                              int64_t count, double rate,
                                              double mean_batch, uint64_t seed) {
  FAIRREC_CHECK(rate > 0.0);
  Rng rng(seed ^ 0x64656c7461737472ull);
  std::vector<ScheduledDelta> schedule(static_cast<size_t>(count));
  for (int64_t b = 0; b < count; ++b) {
    ScheduledDelta& d = schedule[static_cast<size_t>(b)];
    d.due_s = static_cast<double>(b) / rate;
    const int64_t upserts = std::max<int64_t>(1, SamplePoisson(mean_batch, rng));
    for (int64_t k = 0; k < upserts; ++k) {
      const auto user = static_cast<fairrec::UserId>(rng.UniformInt(0, num_users - 1));
      const auto item = static_cast<fairrec::ItemId>(rng.UniformInt(0, num_items - 1));
      const auto rating = static_cast<fairrec::Rating>(rng.UniformInt(1, 5));
      FAIRREC_CHECK(d.delta.Add(user, item, rating).ok());
    }
  }
  return schedule;
}

}  // namespace perfbench
