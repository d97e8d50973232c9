#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// One timed call into a layer: name, interval, and the span that caused it.
/// Spans of one request or one build share `trace`.
struct Span {
  int64_t id = 0;
  int64_t parent = 0;  // 0: a root span
  int64_t trace = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// In-memory span log. Recording is thread-safe (dist worker slots record
/// from their own threads); spans are written out once, at the end.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A fresh id for a span about to be recorded, so children can name their
  /// parent before the parent's interval is known.
  int64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(Span span);

  /// Records [start_ns, NowNs()) under a fresh id and returns the id.
  int64_t RecordSince(std::string name, int64_t parent, int64_t trace,
                      int64_t start_ns);

  std::vector<Span> spans() const;
  std::vector<Span> SpansOfTrace(int64_t trace) const;

  /// One JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once;
/// children are clipped to the parent's interval).
std::map<int64_t, int64_t> SelfTimes(const std::vector<Span>& spans);

/// How one root span's wall time splits: the self time of every layer span
/// under it (summed per span name, over the whole subtree) and the root's
/// own uncovered remainder. When sibling spans do not overlap (calls made
/// one after another), sum(layer_self) + unattributed equals the root's
/// duration; with parallel children (dist worker slots) the layer sums are
/// busy time and only the unattributed remainder is a share of the wall.
struct Reconciliation {
  int64_t wall_ns = 0;
  int64_t unattributed_ns = 0;
  std::map<std::string, int64_t> layer_self_ns;
};
Reconciliation Reconcile(const std::vector<Span>& spans, int64_t root_id);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
