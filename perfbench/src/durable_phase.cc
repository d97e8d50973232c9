#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "gates.h"
#include "phases.h"
#include "sim/durable_peer_graph.h"
#include "stats.h"

namespace perfbench {
namespace {

using fairrec::DurablePeerGraph;

constexpr int64_t kDurableTrace = 3'000'000;

/// First Opens per run; setup_s is their median.
constexpr int32_t kSetupReps = 3;
/// Recovery Opens per run; recovery_s is their median.
constexpr int32_t kRecoveryReps = 5;

/// Batches per second of the stream.
constexpr double kDeltaRate = 20.0;
/// A checkpoint blocks the stream for about 0.15 s, so the three or four
/// batches due meanwhile wait for it. Every 100 batches that is under 3% of
/// the stream, so its p90 stays inside the apply-time distribution instead
/// of on the edge of a checkpoint wait.
constexpr int32_t kCheckpointEvery = 100;
/// No checkpoint covers the last this-many batches; recovery replays
/// everything after the last checkpoint.
constexpr int32_t kUncoveredBatches = 40;
static_assert(kDurableMinBatches >= kCheckpointEvery + kUncoveredBatches,
              "every stream must checkpoint at least once");

fairrec::IncrementalPeerGraphOptions DurableOptions(const RunContext& context) {
  fairrec::IncrementalPeerGraphOptions options;
  // The stream runs alone, so each apply may use every core.
  options.engine.num_threads = static_cast<size_t>(context.nproc);
  options.peers.delta = kPeerDelta;
  options.peers.max_peers_per_user = kMaxPeersPerUser;
  return options;
}

}  // namespace

PhaseResult RunDurablePhase(const fairrec::Scenario& scenario, const DurableConfig& config,
                            const RunContext& context) {
  PhaseResult result;
  const fairrec::IncrementalPeerGraphOptions options = DurableOptions(context);
  Tracer* tracer = context.tracer;
  const auto fail = [&](const std::string& what, const fairrec::Status& status) {
    result.gate_failures.push_back(what + ": " + status.ToString());
    ++result.ops.attempted;
    ++result.ops.other_error;
    return result;
  };

  // ---- Setup: the first Open of a fresh directory (build + initial
  // checkpoint), repeated in fresh directories; the last one streams. ----
  std::vector<double> setup_s;
  std::optional<DurablePeerGraph> durable;
  std::string dir;
  for (int32_t rep = 0; rep < kSetupReps; ++rep) {
    durable.reset();
    if (!dir.empty()) ResetDirectory(dir);
    dir = JoinPath(context.work_dir, "durable-" + std::to_string(rep));
    ResetDirectory(dir);
    fairrec::RatingMatrix seed = scenario.ratings;
    const int64_t start = NowNs();
    auto opened = DurablePeerGraph::Open(dir, std::move(seed), options);
    setup_s.push_back(Seconds(NowNs() - start));
    if (!opened.ok()) return fail("durable open", opened.status());
    durable.emplace(std::move(opened).value());
  }
  result.metrics["setup_s"] = Median(setup_s);

  // ---- The open-loop delta stream with periodic checkpoints. A checkpoint
  // runs on the stream's thread, so batches due meanwhile wait for it. ----
  const std::vector<ScheduledDelta> deltas = MakeDeltaSchedule(
      scenario.ratings.num_users(), scenario.ratings.num_items(), config.batches,
      kDeltaRate, kDeltaMeanUpserts, context.seed ^ 0x64757261626c65ull);
  const int64_t last_covered = config.batches - kUncoveredBatches;
  std::vector<double> update_ms;
  std::vector<double> apply_ms;
  std::vector<double> checkpoint_s;
  std::vector<fairrec::DeltaApplyStats> apply_stats;
  uint64_t journal_bytes = 0;
  int64_t checkpointed_through = 0;
  const int64_t t0 = NowNs() + 1'000'000;
  for (int64_t b = 0; b < config.batches; ++b) {
    const int64_t due = t0 + static_cast<int64_t>(deltas[static_cast<size_t>(b)].due_s * 1e9);
    SleepUntilNs(due);
    const int64_t start = NowNs();
    auto applied = durable->ApplyDelta(deltas[static_cast<size_t>(b)].delta);
    const int64_t end = NowNs();
    if (tracer != nullptr) {
      tracer->Record({tracer->NewId(), 0, kDurableTrace, "durable.apply", start, end});
    }
    ++result.ops.attempted;
    if (!applied.ok()) {
      ++result.ops.other_error;
      update_ms.push_back(kFailedLatency);
      continue;
    }
    ++result.ops.succeeded;
    update_ms.push_back(Ms(end - due));
    apply_ms.push_back(Ms(end - start));
    apply_stats.push_back(*applied);
    journal_bytes = std::max(journal_bytes, durable->journal_bytes());
    if ((b + 1) % kCheckpointEvery == 0 && b + 1 <= last_covered) {
      checkpointed_through = b + 1;
      const int64_t cp_start = NowNs();
      const fairrec::Status status = durable->Checkpoint();
      checkpoint_s.push_back(Seconds(NowNs() - cp_start));
      if (tracer != nullptr) tracer->RecordSince("durable.checkpoint", 0, kDurableTrace, cp_start);
      if (!status.ok()) return fail("checkpoint", status);
    }
  }
  if (SamplesBeyond(static_cast<int64_t>(update_ms.size()), 0.90) < 10) {
    result.gate_failures.push_back("too few delta batches for a p90");
  }
  result.metrics["update_p50_ms"] = WindowedPercentile(update_ms, kUpdateP50Window, 0.50);
  result.metrics["update_p90_ms"] = Percentile(update_ms, 0.90);
  const uint64_t checkpoint_bytes = FileBytes(DurablePeerGraph::CheckpointPathOf(dir));

  // ---- Crash: drop the object with uncovered batches in the journal, then
  // re-Open (recovery reads the checkpoint and replays the tail; it writes
  // nothing, so every repetition recovers the same state). ----
  durable.reset();
  std::vector<double> recovery_s;
  int64_t replayed = 0;
  for (int32_t rep = 0; rep < kRecoveryReps; ++rep) {
    durable.reset();
    fairrec::RatingMatrix seed = scenario.ratings;
    const int64_t start = NowNs();
    auto reopened = DurablePeerGraph::Open(dir, std::move(seed), options);
    recovery_s.push_back(Seconds(NowNs() - start));
    if (tracer != nullptr) tracer->RecordSince("durable.recover", 0, kDurableTrace, start);
    if (!reopened.ok()) return fail("recovery open", reopened.status());
    durable.emplace(std::move(reopened).value());
    replayed = durable->recovery_info().replayed_batches;
  }
  result.metrics["recovery_s"] = Median(recovery_s);
  if (replayed != config.batches - checkpointed_through) {
    result.gate_failures.push_back("recovery replayed " + std::to_string(replayed) +
                                   " batches, expected " +
                                   std::to_string(config.batches - checkpointed_through));
  }

  // ---- Gate: the recovered graph equals an uninterrupted twin. ----
  auto twin = fairrec::IncrementalPeerGraph::Build(scenario.ratings, options);
  if (!twin.ok()) return fail("twin build", twin.status());
  for (const ScheduledDelta& d : deltas) {
    auto applied = twin->ApplyDelta(d.delta);
    if (!applied.ok()) return fail("twin apply", applied.status());
  }
  if (!SameGraphState(durable->graph(), *twin)) {
    result.gate_failures.push_back("recovered graph differs from its uninterrupted twin");
  }
  durable.reset();
  ResetDirectory(dir);

  if (tracer != nullptr) {
    result.layers["durable.apply_ms"] = Median(apply_ms);
    result.layers["durable.checkpoint_s"] = Median(checkpoint_s);
    result.layers["durable.checkpoint_bytes"] = static_cast<double>(checkpoint_bytes);
    result.layers["durable.journal_bytes"] = static_cast<double>(journal_bytes);
    result.layers["durable.replayed_batches"] = static_cast<double>(replayed);
    // The same ApplyDelta accounting the live stream reports; main keeps
    // whichever stream the workload drives.
    ReportApplyStats(apply_ms, apply_stats, result.layers);
  }
  return result;
}

}  // namespace perfbench
