#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

int64_t Tracer::RecordSince(std::string name, int64_t parent, int64_t trace,
                            int64_t start_ns) {
  Span span;
  span.id = NewId();
  span.parent = parent;
  span.trace = trace;
  span.name = std::move(name);
  span.start_ns = start_ns;
  span.end_ns = NowNs();
  const int64_t id = span.id;
  Record(std::move(span));
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<Span> Tracer::SpansOfTrace(int64_t trace) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.trace == trace) out.push_back(s);
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans()) {
    std::fprintf(out,
                 "{\"id\":%lld,\"parent\":%lld,\"trace\":%lld,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.trace), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

std::map<int64_t, int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, const Span*> by_id;
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, int64_t>>> child_intervals;
  for (const Span& s : spans) by_id[s.id] = &s;
  for (const Span& s : spans) {
    const auto parent = by_id.find(s.parent);
    if (s.parent == 0 || parent == by_id.end()) continue;
    const int64_t lo = std::max(s.start_ns, parent->second->start_ns);
    const int64_t hi = std::min(s.end_ns, parent->second->end_ns);
    if (hi > lo) child_intervals[s.parent].emplace_back(lo, hi);
  }
  std::map<int64_t, int64_t> self;
  for (const Span& s : spans) {
    auto& intervals = child_intervals[s.id];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[s.id] = s.duration_ns() - covered;
  }
  return self;
}

Reconciliation Reconcile(const std::vector<Span>& spans, int64_t root_id) {
  std::unordered_map<int64_t, std::vector<const Span*>> children;
  const Span* root = nullptr;
  for (const Span& s : spans) {
    if (s.id == root_id) root = &s;
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  Reconciliation result;
  if (root == nullptr) return result;
  const std::map<int64_t, int64_t> self = SelfTimes(spans);
  result.wall_ns = root->duration_ns();
  result.unattributed_ns = self.at(root_id);
  std::vector<const Span*> stack = children[root_id];
  while (!stack.empty()) {
    const Span* s = stack.back();
    stack.pop_back();
    result.layer_self_ns[s->name] += self.at(s->id);
    for (const Span* c : children[s->id]) stack.push_back(c);
  }
  return result;
}

}  // namespace perfbench
