// Unit tests for the benchmark's own pieces: the percentile rule, schedule
// determinism, span self-time arithmetic, and the parity gates' ability to
// catch a planted mismatch.

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/scenario.h"
#include "gates.h"
#include "schedule.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

using fairrec::serve::GroupRecResponse;
using fairrec::serve::UserRecResponse;

std::vector<double> OneToN(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileTest, NearestRankOnSortedAndShuffledInput) {
  std::vector<double> v = OneToN(1000);
  EXPECT_EQ(Percentile(v, 0.99), 990.0);
  EXPECT_EQ(Percentile(v, 0.50), 500.0);
  EXPECT_EQ(Percentile(v, 1.0), 1000.0);
  fairrec::Rng rng(7);
  rng.Shuffle(v);
  EXPECT_EQ(Percentile(v, 0.99), 990.0);
  EXPECT_EQ(Percentile({42.0}, 0.99), 42.0);
  EXPECT_TRUE(std::isnan(Percentile({}, 0.5)));
}

TEST(PercentileTest, TenSamplesBeyondRule) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9);
  EXPECT_EQ(MinSamplesFor(0.99, 10), 1000);
  EXPECT_EQ(MinSamplesFor(0.90, 10), 100);
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0);
}

TEST(PercentileTest, FailuresCountAsInfiniteLatency) {
  // 10 failures in 1000: p99's rank (990) still lands on a completion.
  std::vector<double> v = OneToN(990);
  v.insert(v.end(), 10, kFailedLatency);
  EXPECT_EQ(Percentile(v, 0.99), 990.0);
  // One more failure pushes p99 onto a failure: the percentile is infinite,
  // not the slowest completion.
  v[0] = kFailedLatency;
  EXPECT_TRUE(std::isinf(Percentile(v, 0.99)));
  // A failure is slower than any completion even at the median.
  std::vector<double> mostly_failed(6, kFailedLatency);
  mostly_failed.push_back(1.0);
  EXPECT_TRUE(std::isinf(Median(mostly_failed)));
}

TEST(PercentileTest, WindowedP99IsTheMedianOfPerWindowP99s) {
  // Three windows of 1000; one holds a stall that delays 20 of its samples.
  std::vector<double> v;
  for (int w = 0; w < 3; ++w) {
    std::vector<double> window = OneToN(1000);
    if (w == 1) {
      for (int i = 0; i < 20; ++i) window[static_cast<size_t>(i)] = 5000.0;
    }
    v.insert(v.end(), window.begin(), window.end());
  }
  EXPECT_EQ(WindowedPercentile(v, 1000, 0.99), 990.0);
  // A trailing partial window joins the last full one.
  v.insert(v.end(), 500, 1.0);
  EXPECT_EQ(WindowedPercentile(v, 1000, 0.99), 990.0);
  EXPECT_TRUE(std::isnan(WindowedPercentile(OneToN(999), 1000, 0.99)));
  // Failures stay infinite inside a window.
  std::vector<double> failing(2000, 1.0);
  for (int i = 0; i < 30; ++i) failing[static_cast<size_t>(i)] = kFailedLatency;
  for (int i = 1000; i < 1030; ++i) failing[static_cast<size_t>(i)] = kFailedLatency;
  EXPECT_TRUE(std::isinf(WindowedPercentile(failing, 1000, 0.99)));
}

TEST(PercentileTest, WindowedP50IgnoresASlowSpellOverAFewWindows) {
  // Ten windows of 500; a slow spell triples every sample of two of them.
  std::vector<double> v;
  for (int w = 0; w < 10; ++w) {
    for (double x : OneToN(500)) v.push_back(w == 3 || w == 4 ? 3.0 * x : x);
  }
  EXPECT_EQ(WindowedPercentile(v, 500, 0.50), 250.0);
  EXPECT_GT(Percentile(v, 0.50), 250.0);  // the whole-phase p50 moves
}

fairrec::Scenario SmallScenario() {
  fairrec::ScenarioConfig config;
  config.num_patients = 200;
  config.num_documents = 120;
  config.seed = 99;
  return std::move(fairrec::BuildScenario(config)).value();
}

bool SameSchedule(const std::vector<ScheduledRequest>& a,
                  const std::vector<ScheduledRequest>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].due_s != b[i].due_s || a[i].is_group != b[i].is_group ||
        a[i].user.user != b[i].user.user || a[i].group.members != b[i].group.members ||
        a[i].group.z != b[i].group.z || a[i].group.selector != b[i].group.selector) {
      return false;
    }
  }
  return true;
}

TEST(ScheduleTest, RequestScheduleIsDeterministicInTheSeed) {
  const fairrec::Scenario scenario = SmallScenario();
  const auto a = MakeRequestSchedule(scenario, 500, 1000.0, 11);
  const auto b = MakeRequestSchedule(scenario, 500, 1000.0, 11);
  const auto c = MakeRequestSchedule(scenario, 500, 1000.0, 12);
  EXPECT_TRUE(SameSchedule(a, b));
  EXPECT_FALSE(SameSchedule(a, c));
  ASSERT_EQ(a.size(), 500u);
  EXPECT_DOUBLE_EQ(a[10].due_s, 0.010);
  int64_t groups = 0;
  for (const ScheduledRequest& r : a) {
    if (!r.is_group) continue;
    ++groups;
    EXPECT_EQ(r.group.members.size(), static_cast<size_t>(kGroupSize));
    EXPECT_NE(r.group.selector, "brute-force");
  }
  EXPECT_GT(groups, 100);
  EXPECT_LT(groups, 200);
}

TEST(ScheduleTest, DeltaScheduleIsDeterministicInTheSeed) {
  const auto a = MakeDeltaSchedule(300, 100, 50, 20.0, 8.0, 5);
  const auto b = MakeDeltaSchedule(300, 100, 50, 20.0, 8.0, 5);
  const auto c = MakeDeltaSchedule(300, 100, 50, 20.0, 8.0, 6);
  ASSERT_EQ(a.size(), 50u);
  bool all_same = true;
  bool any_differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_GE(a[i].delta.size(), 1);
    const auto ua = a[i].delta.upserts();
    const auto ub = b[i].delta.upserts();
    const auto uc = c[i].delta.upserts();
    all_same = all_same && a[i].due_s == b[i].due_s &&
               std::equal(ua.begin(), ua.end(), ub.begin(), ub.end());
    any_differs = any_differs || !std::equal(ua.begin(), ua.end(), uc.begin(), uc.end());
  }
  EXPECT_TRUE(all_same);
  EXPECT_TRUE(any_differs);
}

Span MakeSpan(int64_t id, int64_t parent, const char* name, int64_t start, int64_t end) {
  return Span{id, parent, 1, name, start, end};
}

TEST(TraceTest, SelfTimeSubtractsTheUnionOfChildren) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "request", 0, 100),
      MakeSpan(2, 1, "a", 10, 30),
      MakeSpan(3, 1, "b", 20, 50),   // overlaps a: [10, 50) counts once
      MakeSpan(4, 1, "c", 60, 70),
      MakeSpan(5, 4, "c.inner", 62, 66),
      MakeSpan(6, 1, "d", 95, 130),  // clipped to the parent's end
  };
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self.at(1), 100 - 40 - 10 - 5);
  EXPECT_EQ(self.at(2), 20);
  EXPECT_EQ(self.at(4), 10 - 4);
  EXPECT_EQ(self.at(5), 4);
}

TEST(TraceTest, SequentialLayersReconcileWithTheWall) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "request", 0, 1000),
      MakeSpan(2, 1, "serve.acquire", 0, 10),
      MakeSpan(3, 1, "cf.group_relevance", 10, 400),
      MakeSpan(4, 1, "core.context", 400, 900),
      MakeSpan(5, 1, "core.select", 905, 990),
  };
  const Reconciliation rec = Reconcile(spans, 1);
  EXPECT_EQ(rec.wall_ns, 1000);
  EXPECT_EQ(rec.unattributed_ns, 15);
  int64_t sum = rec.unattributed_ns;
  for (const auto& [name, ns] : rec.layer_self_ns) sum += ns;
  EXPECT_EQ(sum, rec.wall_ns);
  EXPECT_EQ(rec.layer_self_ns.at("core.context"), 500);
}

GroupRecResponse SampleGroupResponse() {
  GroupRecResponse r;
  r.generation = 3;
  r.selector = "algorithm1";
  r.items = {{5, 3.25}, {9, 2.5}};
  r.score = {0.5, 5.75, 2.875};
  r.members = {{1, true, 3.25, 1.0}, {2, false, 2.5, 0.75}};
  return r;
}

double NextUp(double v) { return std::nextafter(v, 1e300); }

TEST(GateTest, PlantedGroupResponseMismatchIsCaught) {
  const GroupRecResponse base = SampleGroupResponse();
  EXPECT_TRUE(SameGroupResponse(base, SampleGroupResponse()));
  GroupRecResponse r = SampleGroupResponse();
  r.items[1].score = NextUp(r.items[1].score);  // one ulp
  EXPECT_FALSE(SameGroupResponse(base, r));
  r = SampleGroupResponse();
  r.members[1].satisfaction = NextUp(r.members[1].satisfaction);
  EXPECT_FALSE(SameGroupResponse(base, r));
  r = SampleGroupResponse();
  r.generation = 4;
  EXPECT_FALSE(SameGroupResponse(base, r));
  r = SampleGroupResponse();
  std::swap(r.items[0], r.items[1]);
  EXPECT_FALSE(SameGroupResponse(base, r));
}

TEST(GateTest, PlantedUserResponseMismatchIsCaught) {
  UserRecResponse a;
  a.generation = 1;
  a.items = {{1, 4.0}, {2, 3.0}};
  UserRecResponse b = a;
  EXPECT_TRUE(SameUserResponse(a, b));
  b.items[0].score = NextUp(b.items[0].score);
  EXPECT_FALSE(SameUserResponse(a, b));
  b = a;
  b.items.pop_back();
  EXPECT_FALSE(SameUserResponse(a, b));
}

fairrec::PeerIndex SmallIndex(double last_similarity) {
  fairrec::PeerIndex::Builder builder(4, fairrec::PeerIndexOptions{});
  builder.OfferPair(0, 1, 0.9);
  builder.OfferPair(1, 2, 0.5);
  builder.OfferPair(2, 3, last_similarity);
  return std::move(builder).Build();
}

TEST(GateTest, PlantedIndexMismatchIsCaught) {
  EXPECT_TRUE(SameIndexBytes(SmallIndex(0.4), SmallIndex(0.4)));
  EXPECT_FALSE(SameIndexBytes(SmallIndex(0.4), SmallIndex(NextUp(0.4))));
}

TEST(GateTest, PlantedGraphStateMismatchIsCaught) {
  const fairrec::Scenario scenario = SmallScenario();
  fairrec::IncrementalPeerGraphOptions options;
  options.engine.num_threads = 1;
  auto a = fairrec::IncrementalPeerGraph::Build(scenario.ratings, options);
  auto b = fairrec::IncrementalPeerGraph::Build(scenario.ratings, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(SameGraphState(*a, *b));
  const auto deltas = MakeDeltaSchedule(scenario.ratings.num_users(),
                                        scenario.ratings.num_items(), 1, 1.0, 4.0, 3);
  ASSERT_TRUE(b->ApplyDelta(deltas[0].delta).ok());
  EXPECT_FALSE(SameGraphState(*a, *b));
}

}  // namespace
}  // namespace perfbench
