#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/scenario.h"
#include "schedule.h"
#include "sim/incremental_peer_graph.h"
#include "trace.h"

namespace perfbench {

/// What every phase shares: where it may write, how many cores it may use,
/// and whether this is the traced pass.
struct RunContext {
  /// Scratch directory for artifacts, spills, checkpoints and journals.
  std::string work_dir;
  int32_t nproc = 1;
  uint64_t seed = 0;
  /// Non-null on the traced pass: spans are recorded here and the phase
  /// reports its per-layer metrics.
  Tracer* tracer = nullptr;

  bool traced() const { return tracer != nullptr; }
};

/// Operations attempted and how each ended.
struct Accounting {
  int64_t attempted = 0;
  int64_t succeeded = 0;
  int64_t shed = 0;
  int64_t out_of_range = 0;
  int64_t other_error = 0;

  int64_t failed() const { return shed + out_of_range + other_error; }
  void Add(const Accounting& other);
};

struct PhaseResult {
  /// End-to-end metrics this phase measured, by name.
  std::map<std::string, double> metrics;
  /// Per-layer metrics (traced pass only), by name.
  std::map<std::string, double> layers;
  Accounting ops;
  /// Parity-gate failures; any entry fails the run.
  std::vector<std::string> gate_failures;
  /// Non-empty when the run must not be scored (the load generator fell
  /// behind its schedule past the stated bound).
  std::string invalid;
};

/// Def. 1 peer options shared by every build path, so the three builds and
/// the serving graph all produce the same index. bench_serving's values.
inline constexpr double kPeerDelta = 0.1;
inline constexpr int32_t kMaxPeersPerUser = 64;

/// Each config holds only what the workload and --seconds set (see
/// main.cc); everything else is a constant of its phase.
struct BuildConfig {
  /// Rounds of builds (see build_phase.cc) repeat until these seconds have
  /// passed, at least three times.
  double seconds;
};

/// Builds the corpus's Def. 1 peer graph three ways and gates that all three
/// are byte-identical. Reports build_s, dist_build_s, ooc_build_s.
PhaseResult RunBuildPhase(const fairrec::Scenario& scenario, const BuildConfig& config,
                          const RunContext& context);

struct ServeConfig {
  /// The open loop runs this long, or longer if it needs more requests for
  /// three p99 windows of each kind (kMinOpenRequests).
  double open_seconds;
  double closed_seconds;
  /// Whether a delta thread publishes live batches while serving.
  bool deltas;
};

/// Delta batches per update_p50 window, live and durable: update_p50 is the
/// median over windows of each window's p50 (stats.h, WindowedPercentile).
inline constexpr size_t kUpdateP50Window = 32;

/// Mean upserts per Poisson-sized delta batch, live and durable.
inline constexpr double kDeltaMeanUpserts = 8.0;

/// Sets up LivePeerGraph + RecommendationService + ServingServer and drives
/// an open-loop then a closed-loop phase, optionally beside a delta stream.
PhaseResult RunServePhase(const fairrec::Scenario& scenario, const ServeConfig& config,
                          const RunContext& context);

/// The fewest durable batches: one checkpoint after batch 100 plus the 40
/// uncovered batches recovery replays (durable_phase.cc).
inline constexpr int64_t kDurableMinBatches = 140;

struct DurableConfig {
  /// At least kDurableMinBatches.
  int64_t batches;
};

/// Seeds a DurablePeerGraph, streams deltas with periodic checkpoints,
/// crashes, recovers, and gates the recovered graph against an
/// uninterrupted twin.
PhaseResult RunDurablePhase(const fairrec::Scenario& scenario,
                            const DurableConfig& config, const RunContext& context);

/// The sim.* per-layer metrics of a delta stream: medians of the apply time
/// and DeltaApplyStats counts, and how many batches fell back to a rebuild.
void ReportApplyStats(const std::vector<double>& apply_ms,
                      const std::vector<fairrec::DeltaApplyStats>& stats,
                      std::map<std::string, double>& layers);

inline double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }
inline double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

void SleepUntilNs(int64_t deadline_ns);
/// Busy-waits until the deadline. The open-loop generator uses it: its gaps
/// are under a millisecond, and a sleeping thread on a shared VM wakes up to
/// a few milliseconds late, which every latency timed from a due time would
/// carry. Spinning cut user_p50_ms on a quiet host from about 0.18 to 0.11 ms.
void SpinUntilNs(int64_t deadline_ns);

std::string JoinPath(const std::string& dir, const std::string& name);
/// Removes and recreates a directory.
void ResetDirectory(const std::string& path);
uint64_t FileBytes(const std::string& path);
/// Flushes the dirty pages of the filesystem holding `dir` (syncfs).
void FlushWrites(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
