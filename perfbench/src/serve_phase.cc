#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/group_context.h"
#include "eval/fairness_metrics.h"
#include "gates.h"
#include "phases.h"
#include "serve/server.h"
#include "serve/snapshot_source.h"
#include "sim/incremental_peer_graph.h"
#include "stats.h"

namespace perfbench {
namespace {

using fairrec::Result;
using fairrec::Status;
using fairrec::serve::GroupRecRequest;
using fairrec::serve::GroupRecResponse;
using fairrec::serve::LivePeerGraph;
using fairrec::serve::RecommendationService;
using fairrec::serve::ServingServer;
using fairrec::serve::ServingSnapshot;
using fairrec::serve::UserRecRequest;
using fairrec::serve::UserRecResponse;

/// Requests of one kind per p99 window: the fewest for which a p99 has ten
/// samples beyond it.
constexpr size_t kP99Window = 1000;
/// Requests of one kind per p50 window. A p50 is the median over windows,
/// so a slow spell of the host that covers a few windows of the open loop
/// moves it little.
constexpr size_t kP50Window = 500;

/// A run whose open-loop generator submitted later than this behind its
/// schedule (p99 per window of 2 * kP99Window submissions, median over the
/// windows) is invalid: the generator fell behind, and its latencies would
/// no longer describe the schedule's offered load. The generator spins
/// between due times, so it is late only when preempted; latencies are
/// timed from due times, so lateness below this bound is measured, not
/// hidden. On a contended 4-vCPU VM it reached 4-5 ms at p99.
constexpr double kMaxGeneratorLateP99Ms = 20.0;

/// On the traced pass, the decomposed requests' layer spans must cover their
/// wall time up to this share (summed over all sampled requests).
constexpr double kRequestUnattributedTolerance = 0.05;

constexpr int64_t kDeltaTrace = 2'000'000;

/// Open-loop requests at the least: with kGroupFraction groups, this holds
/// three p99 windows of group requests more than five standard deviations
/// above its binomial mean.
constexpr int64_t kMinOpenRequests = 10800;

/// Serving workers, the same on both workloads so that they differ only in
/// the delta thread. With the generator (this thread) and the delta thread
/// that is four threads on the reference host's four cores.
constexpr int32_t kServeWorkers = 2;

/// Open-loop requests per second: about a third of the median capacity_qps
/// (README.md, "Traffic").
constexpr double kOpenLoopQps = 1500.0;
/// Live delta batches per second (serve-churn): an apply takes about 30 ms
/// on one thread, so the delta thread is about a third busy.
constexpr double kLiveDeltaRate = 10.0;

/// Set-ups per run; setup_s is their median.
constexpr int32_t kSetupReps = 5;
/// Requests the closed loop keeps in flight.
constexpr int32_t kOutstanding = 8;
/// (snapshot, request, response) triples kept for the replay gate.
constexpr size_t kReplaySamples = 48;
/// Requests of each kind issued through the decomposed public calls on the
/// traced pass.
constexpr int32_t kDecomposedSamples = 200;

/// Slices of the closed-loop window that capacity_qps takes its median over.
constexpr int64_t kCapacityBuckets = 10;

enum class Outcome : uint8_t { kPending, kOk, kShed, kOutOfRange, kError };

Outcome OutcomeOf(const Status& status) {
  if (status.ok()) return Outcome::kOk;
  if (status.IsResourceExhausted()) return Outcome::kShed;
  if (status.IsOutOfRange()) return Outcome::kOutOfRange;
  return Outcome::kError;
}

void Count(Outcome outcome, Accounting& ops) {
  ++ops.attempted;
  switch (outcome) {
    case Outcome::kOk: ++ops.succeeded; break;
    case Outcome::kShed: ++ops.shed; break;
    case Outcome::kOutOfRange: ++ops.out_of_range; break;
    default: ++ops.other_error; break;
  }
}

/// What the last Acquire on this thread returned, and when. A serving worker
/// acquires at the start of each request and runs the request's callback
/// right after, on the same thread, so the callback reads its own request's
/// snapshot and acquire interval here.
struct AcquireMark {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  ServingSnapshot snapshot;
};

AcquireMark& LastAcquire() {
  thread_local AcquireMark mark;
  return mark;
}

/// Bench-side SnapshotSource over LivePeerGraph: every run keeps the
/// snapshot for the replay gate; the traced pass also times the call.
class RecordingSource final : public fairrec::serve::SnapshotSource {
 public:
  RecordingSource(const LivePeerGraph* live, bool timed) : live_(live), timed_(timed) {}

  ServingSnapshot Acquire() const override {
    AcquireMark& mark = LastAcquire();
    if (timed_) mark.start_ns = NowNs();
    mark.snapshot = live_->Acquire();
    if (timed_) mark.end_ns = NowNs();
    return mark.snapshot;
  }

 private:
  const LivePeerGraph* live_;
  bool timed_;
};

/// The serving stack, destroyed server first (it joins the workers that
/// read the rest).
struct ServingStack {
  std::unique_ptr<LivePeerGraph> live;
  std::unique_ptr<RecordingSource> source;
  std::unique_ptr<RecommendationService> service;
  std::unique_ptr<ServingServer> server;
};

Result<ServingStack> BuildStack(fairrec::RatingMatrix corpus, int32_t workers, bool timed,
                                double* graph_build_s) {
  fairrec::IncrementalPeerGraphOptions options;
  // One thread per ApplyDelta: the delta thread is one of the nproc.
  options.engine.num_threads = 1;
  options.peers.delta = kPeerDelta;
  options.peers.max_peers_per_user = kMaxPeersPerUser;
  const int64_t start = NowNs();
  auto built = fairrec::IncrementalPeerGraph::Build(std::move(corpus), options);
  *graph_build_s = Seconds(NowNs() - start);
  if (!built.ok()) return built.status();
  ServingStack stack;
  stack.live = std::make_unique<LivePeerGraph>(std::move(built).value());
  stack.source = std::make_unique<RecordingSource>(stack.live.get(), timed);
  stack.service = std::make_unique<RecommendationService>(stack.source.get());
  fairrec::serve::ServingServerOptions server_options;
  server_options.num_workers = workers;
  stack.server = std::make_unique<ServingServer>(stack.service.get(), server_options);
  return stack;
}

/// ComputeFairnessReport's min/max rule over the response's member rows:
/// members with no defined relevance are skipped; all-zero reads as 1.
double MinMaxRatio(const GroupRecResponse& response) {
  double lo = 0.0;
  double hi = 0.0;
  bool any = false;
  for (const auto& m : response.members) {
    if (m.satisfaction < 0.0) continue;
    lo = any ? std::min(lo, m.satisfaction) : m.satisfaction;
    hi = any ? std::max(hi, m.satisfaction) : m.satisfaction;
    any = true;
  }
  if (!any) return 1.0;
  return hi > 0.0 ? lo / hi : 1.0;
}

/// Def. 3: the share of members whose A_u the response hits.
double Def3Share(const GroupRecResponse& response) {
  if (response.members.empty()) return 0.0;
  int64_t satisfied = 0;
  for (const auto& m : response.members) satisfied += m.satisfied ? 1 : 0;
  return static_cast<double>(satisfied) / static_cast<double>(response.members.size());
}

/// One open-loop request, written only by the worker that completes it and
/// read after the server has drained.
struct RequestRecord {
  int64_t due_ns = 0;
  int64_t submit_ns = 0;
  int64_t acquire_start_ns = 0;
  int64_t acquire_end_ns = 0;
  int64_t done_ns = 0;
  Outcome outcome = Outcome::kPending;
  double minmax = 0.0;
  double def3 = 0.0;
};

/// A retained (snapshot, request, response) triple for the replay gate.
struct ReplaySample {
  bool filled = false;
  size_t request = 0;
  ServingSnapshot snapshot;
  UserRecResponse user;
  GroupRecResponse group;
};

/// Counts completions so the generator can wait for them.
struct CompletionCounter {
  std::mutex mu;
  std::condition_variable cv;
  int64_t done = 0;
  Accounting ops;

  /// Completion times of the successful requests (closed loop).
  std::vector<int64_t> ok_ns;

  void Complete(Outcome outcome, int64_t at_ns) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ++done;
      if (outcome == Outcome::kOk) ok_ns.push_back(at_ns);
      Count(outcome, ops);
    }
    cv.notify_all();
  }

  void WaitFor(int64_t target) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done >= target; });
  }
};

/// Submits one scheduled request; `done(outcome, response pointers)` runs on
/// the worker. Returns the Submit verdict.
template <typename OnDone>
Status Submit(ServingServer& server, const ScheduledRequest& request, OnDone on_done) {
  if (request.is_group) {
    return server.SubmitGroup(request.group, [on_done](Result<GroupRecResponse> r) mutable {
      on_done(r.ok() ? Outcome::kOk : OutcomeOf(r.status()), nullptr, r.ok() ? &*r : nullptr);
    });
  }
  return server.SubmitUser(request.user, [on_done](Result<UserRecResponse> r) mutable {
    on_done(r.ok() ? Outcome::kOk : OutcomeOf(r.status()), r.ok() ? &*r : nullptr, nullptr);
  });
}

/// Per-layer samples of the decomposed requests on the traced pass.
struct DecomposedTally {
  std::map<std::string, std::vector<double>> values;
  int64_t wall_ns = 0;
  int64_t unattributed_ns = 0;
};

/// A group request issued through the layers' public calls in the service's
/// order: Acquire -> MakeRecommender + RelevanceForGroup -> GroupContext::Build
/// -> Select, plus the fairness accounting (ComputeFairnessReport). Each call
/// is a span under one request span.
Result<GroupRecResponse> DecomposedGroup(const RecommendationService& service,
                                         const GroupRecRequest& request, int64_t trace,
                                         Tracer& tracer, RecommendationService::Scratch& scratch,
                                         ServingSnapshot* snapshot_out, DecomposedTally& tally) {
  const int64_t root = tracer.NewId();
  const int64_t root_start = NowNs();
  int64_t t = NowNs();
  ServingSnapshot snapshot = service.source().Acquire();
  tracer.RecordSince("serve.acquire", root, trace, t);

  t = NowNs();
  const fairrec::Recommender recommender = snapshot.MakeRecommender(service.options().recommender);
  auto members = recommender.RelevanceForGroup(request.members, scratch);
  const int64_t relevance_ns = NowNs() - t;
  tracer.RecordSince("cf.group_relevance", root, trace, t);
  if (!members.ok()) return members.status();

  t = NowNs();
  auto context = fairrec::GroupContext::Build(*members, service.options().context);
  const int64_t context_ns = NowNs() - t;
  tracer.RecordSince("core.context", root, trace, t);
  if (!context.ok()) return context.status();
  if (request.z > context->num_candidates()) {
    return Status::OutOfRange("z exceeds the group's candidate items");
  }
  auto selector = service.selector(request.selector);
  if (!selector.ok()) return selector.status();

  t = NowNs();
  auto selection = (*selector)->Select(*context, request.z);
  const int64_t select_ns = NowNs() - t;
  tracer.RecordSince("core.select", root, trace, t);
  if (!selection.ok()) return selection.status();

  t = NowNs();
  // Timed for the fairness-accounting layer; the response does not carry it.
  static_cast<void>(fairrec::ComputeFairnessReport(*context, *selection));
  const int64_t report_ns = NowNs() - t;
  tracer.RecordSince("eval.fairness_report", root, trace, t);

  GroupRecResponse response;
  response.generation = snapshot.generation;
  response.selector = (*selector)->name();
  response.score = selection->score;
  for (const fairrec::ItemId item : selection->items) {
    const int32_t index = context->CandidateIndexOf(item);
    response.items.push_back({item, context->candidate(index).group_relevance});
  }
  for (int32_t m = 0; m < context->group_size(); ++m) {
    const fairrec::MemberBreakdown& row = selection->members[static_cast<size_t>(m)];
    fairrec::serve::MemberSatisfaction sat;
    sat.user = context->members()[static_cast<size_t>(m)];
    sat.satisfied = row.satisfied;
    sat.relevance_sum = row.relevance_sum;
    sat.satisfaction = row.satisfaction;
    response.members.push_back(sat);
  }
  tracer.Record({root, 0, trace, "request.group", root_start, NowNs()});

  const Reconciliation rec = Reconcile(tracer.SpansOfTrace(trace), root);
  tally.wall_ns += rec.wall_ns;
  tally.unattributed_ns += rec.unattributed_ns;
  double peers = 0.0;
  double items = 0.0;
  for (const fairrec::MemberRelevance& m : *members) {
    peers += static_cast<double>(m.peers.size());
    items += static_cast<double>(m.relevance.size());
  }
  const auto n = static_cast<double>(members->size());
  tally.values["cf.group_relevance_ms"].push_back(Ms(relevance_ns));
  tally.values["cf.peers_per_member"].push_back(peers / n);
  tally.values["cf.items_estimated"].push_back(items / n);
  tally.values["core.context_ms"].push_back(Ms(context_ns));
  tally.values["core.candidates"].push_back(context->num_candidates());
  tally.values["core.select_ms." + response.selector].push_back(Ms(select_ns));
  tally.values["eval.fairness_report_us"].push_back(static_cast<double>(report_ns) * 1e-3);
  *snapshot_out = std::move(snapshot);
  return response;
}

/// A single-user request through Acquire -> MakeRecommender + RecommendForUser.
Result<UserRecResponse> DecomposedUser(const RecommendationService& service,
                                       const UserRecRequest& request, int64_t trace,
                                       Tracer& tracer, RecommendationService::Scratch& scratch,
                                       ServingSnapshot* snapshot_out, DecomposedTally& tally) {
  const int64_t root = tracer.NewId();
  const int64_t root_start = NowNs();
  int64_t t = NowNs();
  ServingSnapshot snapshot = service.source().Acquire();
  tracer.RecordSince("serve.acquire", root, trace, t);
  t = NowNs();
  const fairrec::Recommender recommender = snapshot.MakeRecommender(service.options().recommender);
  auto items = recommender.RecommendForUser(request.user, scratch);
  const int64_t rec_ns = NowNs() - t;
  tracer.RecordSince("cf.user_rec", root, trace, t);
  if (!items.ok()) return items.status();
  UserRecResponse response;
  response.generation = snapshot.generation;
  response.items = std::move(items).value();
  tracer.Record({root, 0, trace, "request.user", root_start, NowNs()});
  const Reconciliation rec = Reconcile(tracer.SpansOfTrace(trace), root);
  tally.wall_ns += rec.wall_ns;
  tally.unattributed_ns += rec.unattributed_ns;
  tally.values["cf.user_rec_ms"].push_back(Ms(rec_ns));
  *snapshot_out = std::move(snapshot);
  return response;
}

}  // namespace

PhaseResult RunServePhase(const fairrec::Scenario& scenario, const ServeConfig& config,
                          const RunContext& context) {
  PhaseResult result;
  const bool churn = config.deltas;
  const int32_t workers = std::min(kServeWorkers, std::max(1, context.nproc - 2));
  Tracer* tracer = context.tracer;

  // ---- Setup: corpus in memory -> graph + service + server, repeated. ----
  std::vector<double> setup_s;
  std::vector<double> graph_build_s;
  ServingStack stack;
  for (int32_t rep = 0; rep < kSetupReps; ++rep) {
    fairrec::RatingMatrix corpus = scenario.ratings;
    stack.server.reset();  // join the previous repetition's workers first
    stack = ServingStack{};
    double build_s = 0.0;
    const int64_t start = NowNs();
    auto built = BuildStack(std::move(corpus), workers, context.traced(), &build_s);
    setup_s.push_back(Seconds(NowNs() - start));
    graph_build_s.push_back(build_s);
    if (!built.ok()) {
      result.gate_failures.push_back("serving setup: " + built.status().ToString());
      return result;
    }
    stack = std::move(built).value();
  }
  result.metrics["setup_s"] = Median(setup_s);
  ServingServer& server = *stack.server;
  const RecommendationService& service = *stack.service;

  // ---- Schedules, generated before any timing starts. ----
  const auto open_count = std::max<int64_t>(
      kMinOpenRequests, static_cast<int64_t>(config.open_seconds * kOpenLoopQps));
  const std::vector<ScheduledRequest> schedule =
      MakeRequestSchedule(scenario, open_count, kOpenLoopQps, context.seed);
  const double stream_seconds =
      static_cast<double>(open_count) / kOpenLoopQps + config.closed_seconds;
  // The stream spans both loops; its rate rises if needed to fit the
  // batches a p90 needs into that window.
  const int64_t delta_count = std::max<int64_t>(
      MinSamplesFor(0.90, 10) + 20, static_cast<int64_t>(stream_seconds * kLiveDeltaRate));
  const std::vector<ScheduledDelta> deltas =
      churn ? MakeDeltaSchedule(scenario.ratings.num_users(), scenario.ratings.num_items(),
                                delta_count, static_cast<double>(delta_count) / stream_seconds,
                                kDeltaMeanUpserts, context.seed)
            : std::vector<ScheduledDelta>{};

  std::vector<RequestRecord> records(schedule.size());
  const size_t sample_every =
      std::max<size_t>(1, schedule.size() / kReplaySamples);
  std::vector<ReplaySample> samples(schedule.size() / sample_every + 1);

  // ---- Delta thread (serve-churn): Poisson-sized batches, open loop. ----
  const int64_t t0 = NowNs() + 2'000'000;
  std::vector<double> update_ms(deltas.size(), kFailedLatency);
  std::vector<fairrec::DeltaApplyStats> apply_stats(deltas.size());
  std::vector<double> apply_ms(deltas.size(), 0.0);
  std::thread delta_thread;
  if (churn) {
    delta_thread = std::thread([&] {
      for (size_t b = 0; b < deltas.size(); ++b) {
        const int64_t due = t0 + static_cast<int64_t>(deltas[b].due_s * 1e9);
        SleepUntilNs(due);
        const int64_t start = NowNs();
        auto applied = stack.live->ApplyDelta(deltas[b].delta);
        const int64_t end = NowNs();
        if (tracer != nullptr) {
          tracer->Record({tracer->NewId(), 0, kDeltaTrace, "sim.apply_delta", start, end});
        }
        apply_ms[b] = Ms(end - start);
        if (applied.ok()) {
          update_ms[b] = Ms(end - due);
          apply_stats[b] = *applied;
        }
      }
    });
  }

  // ---- Open loop: submit on schedule, time each request from its due time.
  CompletionCounter open_done;
  int64_t accepted = 0;
  std::vector<double> late_ms;
  late_ms.reserve(schedule.size());
  for (size_t i = 0; i < schedule.size(); ++i) {
    RequestRecord& record = records[i];
    record.due_ns = t0 + static_cast<int64_t>(schedule[i].due_s * 1e9);
    SpinUntilNs(record.due_ns);
    record.submit_ns = NowNs();
    late_ms.push_back(Ms(record.submit_ns - record.due_ns));
    ReplaySample* sample = i % sample_every == 0 ? &samples[i / sample_every] : nullptr;
    const Status submitted = Submit(
        server, schedule[i],
        [&record, &open_done, sample, i](Outcome outcome, UserRecResponse* user,
                                         GroupRecResponse* group) {
          record.done_ns = NowNs();
          const AcquireMark& mark = LastAcquire();
          record.acquire_start_ns = mark.start_ns;
          record.acquire_end_ns = mark.end_ns;
          record.outcome = outcome;
          if (group != nullptr) {
            record.minmax = MinMaxRatio(*group);
            record.def3 = Def3Share(*group);
          }
          if (sample != nullptr && outcome == Outcome::kOk) {
            sample->filled = true;
            sample->request = i;
            sample->snapshot = mark.snapshot;
            if (user != nullptr) sample->user = std::move(*user);
            if (group != nullptr) sample->group = std::move(*group);
          }
          open_done.Complete(outcome, record.done_ns);
        });
    if (submitted.ok()) {
      ++accepted;
    } else {
      record.outcome = OutcomeOf(submitted);
      Count(record.outcome, result.ops);
    }
  }
  open_done.WaitFor(accepted);
  result.ops.Add(open_done.ops);

  // ---- Closed loop: kOutstanding requests in flight from this thread. ----
  CompletionCounter closed_done;
  const int64_t closed_start = NowNs();
  const int64_t closed_end = closed_start + static_cast<int64_t>(config.closed_seconds * 1e9);
  int64_t issued = 0;
  size_t next = 0;
  while (NowNs() < closed_end) {
    {
      std::unique_lock<std::mutex> lock(closed_done.mu);
      closed_done.cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
        return issued - closed_done.done < kOutstanding;
      });
      if (issued - closed_done.done >= kOutstanding) continue;
    }
    const ScheduledRequest& request = schedule[next++ % schedule.size()];
    const Status submitted =
        Submit(server, request,
               [&closed_done](Outcome outcome, UserRecResponse*, GroupRecResponse*) {
                 closed_done.Complete(outcome, NowNs());
               });
    if (submitted.ok()) {
      ++issued;
    } else {
      Count(OutcomeOf(submitted), result.ops);
    }
  }
  closed_done.WaitFor(issued);
  result.ops.Add(closed_done.ops);
  // Completions per second in each of kCapacityBuckets equal slices of the
  // window, median over the slices: a host stall costs one slice.
  std::vector<double> bucket_ok(kCapacityBuckets, 0.0);
  const int64_t bucket_ns = (closed_end - closed_start) / kCapacityBuckets;
  for (const int64_t at : closed_done.ok_ns) {
    const int64_t bucket = (at - closed_start) / bucket_ns;
    if (bucket >= 0 && bucket < kCapacityBuckets) bucket_ok[static_cast<size_t>(bucket)] += 1.0;
  }
  for (double& ok : bucket_ok) ok /= static_cast<double>(bucket_ns) * 1e-9;
  result.metrics["capacity_qps"] = Median(bucket_ok);

  if (delta_thread.joinable()) delta_thread.join();
  for (size_t b = 0; b < deltas.size(); ++b) {
    Count(std::isinf(update_ms[b]) ? Outcome::kError : Outcome::kOk, result.ops);
  }

  // ---- Traced pass: the decomposed requests, then the worker-side splits.
  DecomposedTally tally;
  if (tracer != nullptr) {
    RecommendationService::Scratch scratch;
    int32_t groups = 0;
    int32_t users = 0;
    for (size_t i = 0; i < schedule.size(); ++i) {
      const ScheduledRequest& request = schedule[i];
      const int64_t trace = 1'000'000 + static_cast<int64_t>(i);
      ServingSnapshot snapshot;
      if (request.is_group && groups < kDecomposedSamples) {
        ++groups;
        auto composed = DecomposedGroup(service, request.group, trace, *tracer, scratch,
                                        &snapshot, tally);
        auto direct = service.RecommendGroupOn(snapshot, request.group, scratch);
        if (composed.ok() != direct.ok() ||
            (composed.ok() && !SameGroupResponse(*composed, *direct))) {
          result.gate_failures.push_back("decomposed group request " + std::to_string(i) +
                                         " differs from RecommendGroupOn");
        }
      } else if (!request.is_group && users < kDecomposedSamples) {
        ++users;
        auto composed = DecomposedUser(service, request.user, trace, *tracer, scratch,
                                       &snapshot, tally);
        auto direct = service.RecommendUserOn(snapshot, request.user, scratch);
        if (composed.ok() != direct.ok() ||
            (composed.ok() && !SameUserResponse(*composed, *direct))) {
          result.gate_failures.push_back("decomposed user request " + std::to_string(i) +
                                         " differs from RecommendUserOn");
        }
      }
    }
    const double unattributed = tally.wall_ns > 0 ? static_cast<double>(tally.unattributed_ns) /
                                                        static_cast<double>(tally.wall_ns)
                                                  : 0.0;
    if (unattributed > kRequestUnattributedTolerance) {
      result.gate_failures.push_back("request layer spans cover only " +
                                     std::to_string(1.0 - unattributed) +
                                     " of the decomposed requests' wall time");
    }
    result.layers["trace.request_unattributed_share"] = unattributed;
  }

  // ---- Quiesce, then the replay gate: every retained triple, bit for bit.
  const fairrec::serve::ServingServerStats server_stats = server.stats();
  server.Shutdown();
  {
    RecommendationService::Scratch scratch;
    for (const ReplaySample& sample : samples) {
      if (!sample.filled) continue;
      const ScheduledRequest& request = schedule[sample.request];
      bool same = false;
      if (request.is_group) {
        auto replay = service.RecommendGroupOn(sample.snapshot, request.group, scratch);
        same = replay.ok() && SameGroupResponse(*replay, sample.group);
      } else {
        auto replay = service.RecommendUserOn(sample.snapshot, request.user, scratch);
        same = replay.ok() && SameUserResponse(*replay, sample.user);
      }
      if (!same) {
        result.gate_failures.push_back("replay of request " + std::to_string(sample.request) +
                                       " differs from its served response");
      }
    }
  }

  // ---- Open-loop latencies: failures count as infinite. ----
  std::vector<double> user_ms, group_ms, minmax, def3;
  std::vector<double> queue_ms, acquire_us, exec_ms;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const RequestRecord& r = records[i];
    const bool ok = r.outcome == Outcome::kOk;
    (schedule[i].is_group ? group_ms : user_ms)
        .push_back(ok ? Ms(r.done_ns - r.due_ns) : kFailedLatency);
    if (ok && schedule[i].is_group) {
      minmax.push_back(r.minmax);
      def3.push_back(r.def3);
    }
    if (ok && tracer != nullptr) {
      queue_ms.push_back(Ms(r.acquire_start_ns - r.submit_ns));
      acquire_us.push_back(static_cast<double>(r.acquire_end_ns - r.acquire_start_ns) * 1e-3);
      exec_ms.push_back(Ms(r.done_ns - r.acquire_end_ns));
    }
  }
  // p99 per window of kP99Window requests of a kind (ten samples beyond
  // each window's p99), median over the windows.
  for (const auto& [name, values] : {std::pair{"user", &user_ms}, {"group", &group_ms}}) {
    if (values->size() < 3 * kP99Window) {
      result.gate_failures.push_back(std::string("too few ") + name +
                                     " requests for three p99 windows (" +
                                     std::to_string(values->size()) + ")");
    }
  }
  result.metrics["user_p50_ms"] = WindowedPercentile(user_ms, kP50Window, 0.50);
  result.metrics["user_p99_ms"] = WindowedPercentile(user_ms, kP99Window, 0.99);
  result.metrics["group_p50_ms"] = WindowedPercentile(group_ms, kP50Window, 0.50);
  result.metrics["group_p99_ms"] = WindowedPercentile(group_ms, kP99Window, 0.99);
  result.metrics["fairness_minmax"] = Mean(minmax);
  result.metrics["def3_share"] = Mean(def3);
  if (churn) {
    if (SamplesBeyond(static_cast<int64_t>(update_ms.size()), 0.90) < 10) {
      result.gate_failures.push_back("too few delta batches for a p90 (" +
                                     std::to_string(update_ms.size()) + ")");
    }
    result.metrics["update_p50_ms"] = WindowedPercentile(update_ms, kUpdateP50Window, 0.50);
    result.metrics["update_p90_ms"] = Percentile(update_ms, 0.90);
  }
  const double late_p99 = WindowedPercentile(late_ms, 2 * kP99Window, 0.99);
  if (!(late_p99 <= kMaxGeneratorLateP99Ms)) {
    result.invalid = "open-loop generator ran " + std::to_string(late_p99) +
                     " ms late at p99 (bound " + std::to_string(kMaxGeneratorLateP99Ms) + " ms)";
  }
  result.layers["gen.late_ms.p99"] = late_p99;

  if (tracer != nullptr) {
    for (auto& [name, values] : tally.values) {
      result.layers[name] = Median(values);
    }
    result.layers["serve.queue_wait_ms.p50"] = Percentile(queue_ms, 0.50);
    result.layers["serve.queue_wait_ms.p99"] = Percentile(queue_ms, 0.99);
    result.layers["serve.acquire_us.p50"] = Percentile(acquire_us, 0.50);
    result.layers["serve.acquire_us.p99"] = Percentile(acquire_us, 0.99);
    result.layers["serve.exec_ms.p50"] = Percentile(exec_ms, 0.50);
    result.layers["serve.exec_ms.p99"] = Percentile(exec_ms, 0.99);
    result.layers["serve.shed"] = static_cast<double>(server_stats.shed);
    result.layers["serve.completed_error"] = static_cast<double>(server_stats.completed_error);
    result.layers["serve.queue_peak"] = static_cast<double>(server_stats.queue_peak);
    result.layers["sim.graph_build_s"] = Median(graph_build_s);
    if (churn) ReportApplyStats(apply_ms, apply_stats, result.layers);
  }
  return result;
}

}  // namespace perfbench
