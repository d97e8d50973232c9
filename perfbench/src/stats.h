#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// The latency a failed, shed or OutOfRange operation contributes: it misses
/// every limit, so it sorts after every completed operation.
inline constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile: the sample at rank ceil(q * n) (1-based) of the
/// sorted samples, q in (0, 1]. Failures enter as kFailedLatency, so a
/// percentile whose rank lands on a failure is infinite. Returns NaN when
/// `samples` is empty.
double Percentile(std::vector<double> samples, double q);

/// How many samples sort strictly beyond the nearest-rank q-percentile of n
/// samples. The benchmark reports a percentile only when this is >= 10.
int64_t SamplesBeyond(int64_t n, double q);

/// The smallest n for which SamplesBeyond(n, q) >= min_beyond.
int64_t MinSamplesFor(double q, int64_t min_beyond);

/// The median, over consecutive windows of `window` samples (in arrival
/// order), of each window's q-percentile. A trailing window shorter than
/// `window` joins the one before it. One stall of the host then inflates
/// only the windows it falls in, not the reported figure. Returns NaN when
/// there are fewer than `window` samples.
double WindowedPercentile(const std::vector<double>& samples, size_t window, double q);

double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
