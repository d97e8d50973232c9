#ifndef PERFBENCH_SCHEDULE_H_
#define PERFBENCH_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/scenario.h"
#include "ratings/rating_delta.h"
#include "serve/recommendation_service.h"

namespace perfbench {

/// One selector of the served mix and its share of group requests.
struct SelectorShare {
  std::string name;
  double weight = 0.0;
};

/// Every registry selector except brute-force (exponential in z), with
/// algorithm1 taking the majority.
const std::vector<SelectorShare>& SelectorMix();

/// The five Scenario group shapes group requests draw from, uniformly.
const std::vector<fairrec::GroupShape>& GroupShapes();

/// Share of requests that are group requests; the rest are single-user.
/// The repository's serving drivers (bench_serving, fairrec_serve) use it.
inline constexpr double kGroupFraction = 0.3;
/// Members per group request and items per group response.
inline constexpr int32_t kGroupSize = 6;
inline constexpr int32_t kGroupZ = 10;

/// One pre-generated request of an open-loop schedule.
struct ScheduledRequest {
  /// Offset from the start of the phase at which the request is due.
  double due_s = 0.0;
  bool is_group = false;
  fairrec::serve::UserRecRequest user;
  fairrec::serve::GroupRecRequest group;
};

/// `count` requests due at a fixed rate (request i at i / rate seconds),
/// a kGroupFraction share of them groups. Deterministic in all arguments.
std::vector<ScheduledRequest> MakeRequestSchedule(const fairrec::Scenario& scenario,
                                                  int64_t count, double rate, uint64_t seed);

/// One pre-generated rating batch of an open-loop delta stream.
struct ScheduledDelta {
  double due_s = 0.0;
  fairrec::RatingDelta delta;
};

/// Knuth's Poisson sampler; fine for the small means batches use.
int64_t SamplePoisson(double mean, fairrec::Rng& rng);

/// `count` batches due at a fixed rate, each of max(1, Poisson(mean_batch))
/// upserts on uniformly drawn (user, item) cells of a num_users x num_items
/// corpus with ratings 1..5. Deterministic in all arguments.
std::vector<ScheduledDelta> MakeDeltaSchedule(int32_t num_users, int32_t num_items,
                                              int64_t count, double rate,
                                              double mean_batch, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SCHEDULE_H_
