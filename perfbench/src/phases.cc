#include "phases.h"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <system_error>
#include <thread>

#include "stats.h"

namespace perfbench {

void Accounting::Add(const Accounting& other) {
  attempted += other.attempted;
  succeeded += other.succeeded;
  shed += other.shed;
  out_of_range += other.out_of_range;
  other_error += other.other_error;
}

void ReportApplyStats(const std::vector<double>& apply_ms,
                      const std::vector<fairrec::DeltaApplyStats>& stats,
                      std::map<std::string, double>& layers) {
  std::map<std::string, std::vector<double>> samples;
  int64_t full_rebuilds = 0;
  for (size_t b = 0; b < stats.size(); ++b) {
    const fairrec::DeltaApplyStats& s = stats[b];
    samples["sim.apply_ms"].push_back(apply_ms[b]);
    samples["sim.touched_items"].push_back(static_cast<double>(s.touched_items));
    samples["sim.changed_pairs"].push_back(static_cast<double>(s.changed_pairs));
    samples["sim.refinished_pairs"].push_back(static_cast<double>(s.refinished_pairs));
    samples["sim.rows_refinished"].push_back(static_cast<double>(s.rows_refinished));
    samples["sim.rows_patched"].push_back(static_cast<double>(s.rows_patched));
    full_rebuilds += s.used_full_rebuild ? 1 : 0;
  }
  for (auto& [name, values] : samples) layers[name] = Median(std::move(values));
  layers["sim.full_rebuilds"] = static_cast<double>(full_rebuilds);
}

void SleepUntilNs(int64_t deadline_ns) {
  const int64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

void SpinUntilNs(int64_t deadline_ns) {
  while (NowNs() < deadline_ns) {
  }
}

std::string JoinPath(const std::string& dir, const std::string& name) {
  return (std::filesystem::path(dir) / name).string();
}

void ResetDirectory(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
  std::filesystem::create_directories(path, ignored);
}

uint64_t FileBytes(const std::string& path) {
  std::error_code error;
  const auto bytes = std::filesystem::file_size(path, error);
  return error ? 0 : static_cast<uint64_t>(bytes);
}

void FlushWrites(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  syncfs(fd);
  close(fd);
}

}  // namespace perfbench
