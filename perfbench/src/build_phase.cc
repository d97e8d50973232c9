#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "gates.h"
#include "phases.h"
#include "sim/pairwise_engine.h"
#include "sim/tile_residency.h"
#include "stats.h"

namespace perfbench {
namespace {

using fairrec::DistBuildCoordinator;
using fairrec::DistBuildOptions;
using fairrec::PeerIndex;

/// Repetitions of the (short) engine and dist builds per out-of-core build
/// in each round. Rounds interleave the three paths, so each path's samples
/// spread over the whole phase and a slow spell of the host hits all three
/// alike instead of one path's whole sample.
constexpr int32_t kShortBuildsPerRound = 5;
constexpr int32_t kMinRounds = 3;
constexpr int32_t kDistPartitions = 8;
constexpr int32_t kTileUsers = 512;
/// Out-of-core residency budget, below the build corpus's moment store; the
/// phase fails if the store fits in it.
constexpr size_t kBudgetBytes = 24u << 20;

struct Samples {
  std::vector<double> engine_s, dist_s, ooc_s;
  std::map<std::string, std::vector<double>> layers;
  int64_t unattributed_ns = 0;
  int64_t reconciled_wall_ns = 0;

  void Layer(const std::string& name, double value) { layers[name].push_back(value); }
};

}  // namespace

PhaseResult RunBuildPhase(const fairrec::Scenario& scenario, const BuildConfig& config,
                          const RunContext& context) {
  PhaseResult result;
  const fairrec::RatingMatrix& matrix = scenario.ratings;
  fairrec::RatingSimilarityOptions similarity;
  fairrec::PeerIndexOptions peers;
  peers.delta = kPeerDelta;
  peers.max_peers_per_user = kMaxPeersPerUser;
  Tracer* tracer = context.tracer;
  Samples samples;
  PeerIndex reference;

  const auto fail = [&](const std::string& what, const fairrec::Status& status) {
    result.gate_failures.push_back(what + ": " + status.ToString());
    ++result.ops.other_error;
    return false;
  };

  // 1. The in-memory engine: one public call, nothing to split. Its first
  // index is the reference the other two paths must reproduce byte for byte.
  const auto engine_build = [&](int32_t rep) {
    fairrec::PairwiseEngineOptions engine_options;
    engine_options.num_threads = static_cast<size_t>(context.nproc);
    const fairrec::PairwiseSimilarityEngine engine(&matrix, similarity, engine_options);
    fairrec::PairwiseEngineStats engine_stats;
    const int64_t t = NowNs();
    auto index = engine.BuildPeerIndex(peers, &engine_stats);
    samples.engine_s.push_back(Seconds(NowNs() - t));
    ++result.ops.attempted;
    if (!index.ok()) return fail("engine build", index.status());
    ++result.ops.succeeded;
    if (rep == 0) {
      reference = std::move(index).value();
    } else if (!SameIndexBytes(*index, reference)) {
      result.gate_failures.push_back("engine index differs between repetitions");
    }
    if (tracer != nullptr) {
      tracer->RecordSince("build.engine", 0, 100 + rep, t);
      samples.Layer("sim.accumulate_s", engine_stats.accumulate_seconds);
      samples.Layer("sim.finish_s", engine_stats.finish_seconds);
      samples.Layer("sim.pairs_finished", static_cast<double>(engine_stats.pairs_finished));
    }
    return true;
  };

  // 2. The distributed build: worker slots plus the polling coordinator
  // stay within nproc threads.
  const std::string dist_dir = JoinPath(context.work_dir, "dist");
  const auto dist_build = [&](int32_t rep) {
    ResetDirectory(dist_dir);
    DistBuildOptions dist_options;
    dist_options.num_partitions = kDistPartitions;
    dist_options.worker_slots = static_cast<size_t>(std::max(1, context.nproc - 1));
    dist_options.artifact_dir = dist_dir;
    dist_options.worker.similarity = similarity;
    dist_options.worker.peers = peers;
    dist_options.reuse_existing_artifacts = false;
    DistBuildCoordinator coordinator(&matrix, dist_options);
    const int64_t dist_root = tracer != nullptr ? tracer->NewId() : 0;
    const int64_t dist_trace = 200'000 + rep;
    std::atomic<int64_t> last_worker_end{0};
    if (tracer != nullptr) {
      coordinator.set_worker_fn([tracer, dist_root, dist_trace, &last_worker_end](
                                    const fairrec::RatingMatrix& m,
                                    const fairrec::PartitionDescriptor& partition,
                                    int32_t attempt,
                                    const fairrec::DistWorkerOptions& options,
                                    const std::string& path) -> fairrec::Status {
        const int64_t attempt_id = tracer->NewId();
        const int64_t start = NowNs();
        auto artifact = fairrec::BuildPartialPeerArtifact(m, partition, attempt, options);
        tracer->RecordSince("dist.partial_build", attempt_id, dist_trace, start);
        fairrec::Status status = artifact.status();
        if (artifact.ok()) {
          const int64_t write_start = NowNs();
          status = artifact->WriteFile(path);
          tracer->RecordSince("dist.artifact_write", attempt_id, dist_trace, write_start);
        }
        const int64_t end = NowNs();
        tracer->Record({attempt_id, dist_root, dist_trace, "dist.attempt", start, end});
        int64_t seen = last_worker_end.load();
        while (end > seen && !last_worker_end.compare_exchange_weak(seen, end)) {
        }
        return status;
      });
    }
    const int64_t t = NowNs();
    auto dist = coordinator.Run();
    const int64_t dist_end = NowNs();
    samples.dist_s.push_back(Seconds(dist_end - t));
    ++result.ops.attempted;
    if (!dist.ok()) return fail("dist build", dist.status());
    ++result.ops.succeeded;
    if (!SameIndexBytes(dist->index, reference)) {
      result.gate_failures.push_back("dist index differs from the engine index");
    }
    if (tracer != nullptr) {
      const int64_t after_start = std::max(last_worker_end.load(), t);
      tracer->Record({tracer->NewId(), dist_root, dist_trace, "dist.after_workers",
                      after_start, dist_end});
      tracer->Record({dist_root, 0, dist_trace, "build.dist", t, dist_end});
      uint64_t artifact_bytes = 0;
      for (const std::string& path : dist->artifact_paths) artifact_bytes += FileBytes(path);
      const std::vector<Span> spans = tracer->SpansOfTrace(dist_trace);
      double partial_s = 0.0;
      double write_s = 0.0;
      for (const Span& s : spans) {
        if (s.name == "dist.partial_build") partial_s += Seconds(s.duration_ns());
        if (s.name == "dist.artifact_write") write_s += Seconds(s.duration_ns());
      }
      const Reconciliation rec = Reconcile(spans, dist_root);
      samples.unattributed_ns += rec.unattributed_ns;
      samples.reconciled_wall_ns += rec.wall_ns;
      samples.Layer("dist.partial_build_s", partial_s);
      samples.Layer("dist.artifact_write_s", write_s);
      samples.Layer("dist.after_workers_s", Seconds(dist_end - after_start));
      samples.Layer("dist.attempts_launched", dist->stats.attempts_launched);
      samples.Layer("dist.attempts_failed", dist->stats.attempts_failed);
      samples.Layer("dist.speculative_attempts", dist->stats.speculative_attempts);
      samples.Layer("dist.artifact_bytes", static_cast<double>(artifact_bytes));
    }
    return true;
  };

  // 3. Out of core: the moment store under a byte budget below its size,
  // then the index swept from it.
  const std::string spill_dir = JoinPath(context.work_dir, "ooc");
  const auto ooc_build = [&](int32_t rep) {
    ResetDirectory(spill_dir);
    fairrec::OutOfCoreBuildOptions ooc_options;
    ooc_options.store.tile_users = kTileUsers;
    ooc_options.budget_bytes = kBudgetBytes;
    ooc_options.spill_dir = spill_dir;
    const int64_t ooc_root = tracer != nullptr ? tracer->NewId() : 0;
    const int64_t ooc_trace = 300'000 + rep;
    fairrec::OutOfCoreBuildStats ooc_stats;
    fairrec::PairwiseEngineStats sweep_stats;
    const int64_t t = NowNs();
    auto store = fairrec::BuildMomentStoreOutOfCore(matrix, ooc_options, &ooc_stats);
    const int64_t store_end = NowNs();
    ++result.ops.attempted;
    if (!store.ok()) return fail("out-of-core store", store.status());
    auto index = fairrec::BuildPeerIndexFromStore(
        matrix, *store->store, store->residency.get(), similarity, peers, &sweep_stats);
    const int64_t ooc_end = NowNs();
    samples.ooc_s.push_back(Seconds(ooc_end - t));
    if (!index.ok()) return fail("out-of-core index", index.status());
    ++result.ops.succeeded;
    if (!SameIndexBytes(*index, reference)) {
      result.gate_failures.push_back("out-of-core index differs from the engine index");
    }
    const fairrec::TileResidencyStats& residency = store->residency->stats();
    if (residency.spill_bytes_written == 0) {
      result.gate_failures.push_back(
          "out-of-core budget is not below the store size (nothing spilled)");
    }
    if (tracer != nullptr) {
      tracer->Record({tracer->NewId(), ooc_root, ooc_trace, "sim.ooc_store", t, store_end});
      tracer->Record({tracer->NewId(), ooc_root, ooc_trace, "sim.ooc_index", store_end,
                      ooc_end});
      tracer->Record({ooc_root, 0, ooc_trace, "build.ooc", t, ooc_end});
      const Reconciliation rec = Reconcile(tracer->SpansOfTrace(ooc_trace), ooc_root);
      samples.unattributed_ns += rec.unattributed_ns;
      samples.reconciled_wall_ns += rec.wall_ns;
      samples.Layer("sim.ooc_store_s", Seconds(store_end - t));
      samples.Layer("sim.ooc_index_s", Seconds(ooc_end - store_end));
      samples.Layer("sim.ooc_emit_s", ooc_stats.emit_seconds);
      samples.Layer("sim.ooc_assemble_s", ooc_stats.assemble_seconds);
      samples.Layer("shuffle.records_in", static_cast<double>(ooc_stats.shuffle.records_in));
      samples.Layer("shuffle.spilled_bytes",
                    static_cast<double>(ooc_stats.shuffle.spilled_bytes));
      samples.Layer("residency.spill_bytes_written",
                    static_cast<double>(residency.spill_bytes_written));
      samples.Layer("residency.restore_bytes_read",
                    static_cast<double>(residency.restore_bytes_read));
      samples.Layer("residency.peak_resident_bytes",
                    static_cast<double>(residency.peak_resident_bytes));
    }
    return true;
  };

  // Rounds of kShortBuildsPerRound engine and dist builds and one
  // out-of-core build, at least kMinRounds and until the phase's seconds
  // have passed. The engine's first index is the reference.
  const int64_t start = NowNs();
  bool ok = true;
  for (int32_t round = 0;
       ok && (round < kMinRounds || Seconds(NowNs() - start) < config.seconds);
       ++round) {
    for (int32_t k = 0; ok && k < kShortBuildsPerRound; ++k) {
      ok = engine_build(round * kShortBuildsPerRound + k);
    }
    for (int32_t k = 0; ok && k < kShortBuildsPerRound; ++k) {
      ok = dist_build(round * kShortBuildsPerRound + k);
    }
    ok = ok && ooc_build(round);
  }
  ResetDirectory(dist_dir);
  ResetDirectory(spill_dir);

  result.metrics["build_s"] = Median(samples.engine_s);
  result.metrics["dist_build_s"] = Median(samples.dist_s);
  result.metrics["ooc_build_s"] = Median(samples.ooc_s);
  if (tracer != nullptr) {
    for (auto& [name, values] : samples.layers) result.layers[name] = Median(values);
    result.layers["trace.build_unattributed_share"] =
        samples.reconciled_wall_ns > 0
            ? static_cast<double>(samples.unattributed_ns) /
                  static_cast<double>(samples.reconciled_wall_ns)
            : 0.0;
  }
  return result;
}

}  // namespace perfbench
