#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {
namespace {

int64_t NearestRank(int64_t n, double q) {
  // The epsilon keeps q * n that is integral in exact arithmetic (0.99 *
  // 1000) from rounding up past it in binary floating point.
  const auto rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<int64_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  const int64_t rank = NearestRank(static_cast<int64_t>(samples.size()), q);
  const auto nth = samples.begin() + (rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

int64_t SamplesBeyond(int64_t n, double q) {
  if (n <= 0) return 0;
  return n - NearestRank(n, q);
}

int64_t MinSamplesFor(double q, int64_t min_beyond) {
  int64_t n = 1;
  while (SamplesBeyond(n, q) < min_beyond) ++n;
  return n;
}

double WindowedPercentile(const std::vector<double>& samples, size_t window, double q) {
  const size_t windows = window == 0 ? 0 : samples.size() / window;
  if (windows == 0) return std::numeric_limits<double>::quiet_NaN();
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto last = w + 1 == windows ? samples.end() : first + static_cast<std::ptrdiff_t>(window);
    per_window.push_back(Percentile(std::vector<double>(first, last), q));
  }
  return Median(std::move(per_window));
}

double Median(std::vector<double> samples) { return Percentile(std::move(samples), 0.5); }

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

}  // namespace perfbench
