// The repository benchmark: one command, two workloads, every end-to-end
// metric by name with its unit and direction, and a traced run that reports
// the per-layer metrics. See perfbench/README.md for why each workload
// exists and what each metric should move.
//
//   perfbench --workload serve-read --seed 1 --seconds 12 --trace 0 --work-dir DIR
//
// Exit codes: 0 scored run; 1 usage or setup error; 2 a parity gate failed;
// 3 the run is invalid (the load generator fell behind its schedule).

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "data/scenario.h"
#include "phases.h"
#include "sim/pearson_finish_batch.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  // "lower" or "higher"; empty for per-layer metrics
};

/// The 12 end-to-end metrics, in BENCHMARK.json order.
const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower"},           {"peak_rss_mb", "MiB", "lower"},
      {"user_p50_ms", "ms", "lower"},      {"group_p50_ms", "ms", "lower"},
      {"capacity_qps", "req/s", "higher"}, {"fairness_minmax", "ratio", "higher"},
      {"def3_share", "ratio", "higher"},   {"update_p50_ms", "ms", "lower"},
      {"build_s", "s", "lower"},           {"dist_build_s", "s", "lower"},
      {"ooc_build_s", "s", "lower"},       {"recovery_s", "s", "lower"},
  };
  return specs;
}

/// Tails the phases measure on every pass but that no bound can hold on a
/// shared 4-vCPU host (README.md, "Tails"): the traced run reports the
/// untraced pass's values as tail.<name>.
const std::vector<MetricSpec>& TailMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"user_p99_ms", "ms", "lower"},
      {"group_p99_ms", "ms", "lower"},
      {"update_p90_ms", "ms", "lower"},
  };
  return specs;
}

/// The end-to-end metrics the traced run reports an overhead.<name> for:
/// all but peak_rss_mb. Both passes run in one process, and the peak RSS
/// never falls within a process, so the traced pass's peak includes the
/// untraced pass's and their difference is not what tracing costs.
const std::vector<MetricSpec>& OverheadMetrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s;
    for (const MetricSpec& m : EndToEndMetrics()) {
      if (std::string(m.name) != "peak_rss_mb") s.push_back(m);
    }
    return s;
  }();
  return specs;
}

/// The per-layer metrics of the traced run, in BENCHMARK.json order (the
/// tail.* entries follow, one per TailMetrics() entry, then the overhead.*
/// entries, one per OverheadMetrics() entry).
const std::vector<MetricSpec>& LayerMetrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"serve.queue_wait_ms.p50", "ms", ""},
        {"serve.queue_wait_ms.p99", "ms", ""},
        {"serve.acquire_us.p50", "us", ""},
        {"serve.acquire_us.p99", "us", ""},
        {"serve.exec_ms.p50", "ms", ""},
        {"serve.exec_ms.p99", "ms", ""},
        {"serve.shed", "count", ""},
        {"serve.completed_error", "count", ""},
        {"serve.queue_peak", "count", ""},
        {"gen.late_ms.p99", "ms", ""},
        {"cf.group_relevance_ms", "ms", ""},
        {"cf.user_rec_ms", "ms", ""},
        {"cf.peers_per_member", "count", ""},
        {"cf.items_estimated", "count", ""},
        {"core.context_ms", "ms", ""},
        {"core.candidates", "count", ""},
        {"core.select_ms.algorithm1", "ms", ""},
        {"core.select_ms.greedy-value", "ms", ""},
        {"core.select_ms.local-search", "ms", ""},
        {"core.select_ms.least-misery", "ms", ""},
        {"core.select_ms.envy-swap", "ms", ""},
        {"core.select_ms.fair-package", "ms", ""},
        {"eval.fairness_report_us", "us", ""},
        {"sim.apply_ms", "ms", ""},
        {"sim.touched_items", "count", ""},
        {"sim.changed_pairs", "count", ""},
        {"sim.refinished_pairs", "count", ""},
        {"sim.rows_refinished", "count", ""},
        {"sim.rows_patched", "count", ""},
        {"sim.full_rebuilds", "count", ""},
        {"sim.graph_build_s", "s", ""},
        {"sim.accumulate_s", "s", ""},
        {"sim.finish_s", "s", ""},
        {"sim.pairs_finished", "count", ""},
        {"sim.ooc_store_s", "s", ""},
        {"sim.ooc_index_s", "s", ""},
        {"sim.ooc_emit_s", "s", ""},
        {"sim.ooc_assemble_s", "s", ""},
        {"shuffle.records_in", "count", ""},
        {"shuffle.spilled_bytes", "bytes", ""},
        {"residency.spill_bytes_written", "bytes", ""},
        {"residency.restore_bytes_read", "bytes", ""},
        {"residency.peak_resident_bytes", "bytes", ""},
        {"dist.partial_build_s", "s", ""},
        {"dist.artifact_write_s", "s", ""},
        {"dist.after_workers_s", "s", ""},
        {"dist.attempts_launched", "count", ""},
        {"dist.attempts_failed", "count", ""},
        {"dist.speculative_attempts", "count", ""},
        {"dist.artifact_bytes", "bytes", ""},
        {"durable.apply_ms", "ms", ""},
        {"durable.checkpoint_s", "s", ""},
        {"durable.checkpoint_bytes", "bytes", ""},
        {"durable.journal_bytes", "bytes", ""},
        {"durable.replayed_batches", "count", ""},
        {"trace.request_unattributed_share", "ratio", ""},
        {"trace.build_unattributed_share", "ratio", ""},
    };
    return s;
  }();
  return specs;
}

// ---------------------------------------------------------------------------
// Workloads. Both run all three phases at full size, serve first, then the
// three peer-graph builds, then the durable delta stream, so every
// end-to-end metric is measured on each. They differ only in the serve
// phase: serve-churn publishes deltas beside the requests. Where two phases
// report the same metric (setup_s, update_*, sim.*), the earlier one in
// kPhaseOrder supplies it.
// ---------------------------------------------------------------------------

enum class Phase { kBuild, kServe, kDurable };
constexpr Phase kPhaseOrder[] = {Phase::kServe, Phase::kDurable, Phase::kBuild};

struct CorpusShape {
  int32_t patients;
  int32_t documents;
  double density;
  uint64_t salt;
};

/// Peer graph and moment store fit in RAM; the request path does the work.
/// At 3% density one seed in sixty tried left a patient with no Def. 1
/// peer; that patient is among the coldest raters, so every coldstart group
/// then had no candidate items and failed with OutOfRange. At 4% none of a
/// hundred seeds tried does.
constexpr CorpusShape kServeCorpus{2000, 800, 0.04, 0x7365727665ull};
/// Larger and sparser: a moment store well past the CPU caches and the
/// out-of-core budget.
constexpr CorpusShape kBuildCorpus{6000, 2000, 0.005, 0x6275696c64ull};
/// Small: each checkpoint rewrites the whole moment store (23 MB here,
/// about 0.15 s) while the stream waits.
constexpr CorpusShape kDurableCorpus{1000, 400, 0.04, 0x6475726162ull};

/// Shares of --seconds each phase measures for. The rest goes to set-up,
/// corpus generation and the gates.
constexpr double kOpenShare = 0.4;
constexpr double kClosedShare = 0.08;
constexpr double kBuildShare = 0.2;
/// Durable batches per second of --seconds: 20 batches/s over a fifth of
/// the run, and at least kDurableMinBatches.
constexpr double kDurableBatchesPerSecond = 4.0;

struct Workload {
  ServeConfig serve;
  BuildConfig build;
  DurableConfig durable;
};

bool MakeWorkload(const std::string& name, double seconds, Workload* w) {
  const bool churn = name == "serve-churn";
  if (!churn && name != "serve-read") return false;
  w->serve = {kOpenShare * seconds, kClosedShare * seconds, churn};
  w->build = {kBuildShare * seconds};
  w->durable = {std::max<int64_t>(kDurableMinBatches,
                                  static_cast<int64_t>(kDurableBatchesPerSecond * seconds))};
  return true;
}

// ---------------------------------------------------------------------------

struct PassResult {
  std::map<std::string, double> metrics;
  std::map<std::string, double> layers;
  Accounting ops;
  std::vector<std::string> gate_failures;
  std::string invalid;
};

fairrec::Scenario MakeCorpus(const CorpusShape& shape, uint64_t seed) {
  fairrec::ScenarioConfig config;
  config.num_patients = shape.patients;
  config.num_documents = shape.documents;
  config.rating_density = shape.density;
  config.seed = seed ^ shape.salt;
  auto scenario = fairrec::BuildScenario(config);
  if (!scenario.ok()) {
    std::fprintf(stderr, "corpus generation failed: %s\n",
                 scenario.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(scenario).value();
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

PassResult RunPass(const Workload& w, const RunContext& context) {
  // Serve runs first, before any phase has written to disk; each later phase
  // starts once the previous one's writes are flushed, so their writeback
  // does not land inside its timings.
  std::map<Phase, PhaseResult> results;
  int64_t start = NowNs();
  const auto phase_done = [&start](const char* phase) {
    std::fprintf(stderr, "phase %s: %.1f s\n", phase, Seconds(NowNs() - start));
    start = NowNs();
  };
  {
    const fairrec::Scenario corpus = MakeCorpus(kServeCorpus, context.seed);
    results[Phase::kServe] = RunServePhase(corpus, w.serve, context);
    phase_done("serve");
  }
  {
    FlushWrites(context.work_dir);
    const fairrec::Scenario corpus = MakeCorpus(kBuildCorpus, context.seed);
    results[Phase::kBuild] = RunBuildPhase(corpus, w.build, context);
    phase_done("build");
  }
  {
    FlushWrites(context.work_dir);
    const fairrec::Scenario corpus = MakeCorpus(kDurableCorpus, context.seed);
    results[Phase::kDurable] = RunDurablePhase(corpus, w.durable, context);
    phase_done("durable");
  }
  PassResult pass;
  for (const Phase phase : kPhaseOrder) {
    PhaseResult& r = results[phase];
    pass.metrics.merge(r.metrics);  // keeps the higher-priority phase's value
    pass.layers.merge(r.layers);
    pass.ops.Add(r.ops);
    pass.gate_failures.insert(pass.gate_failures.end(), r.gate_failures.begin(),
                              r.gate_failures.end());
    if (pass.invalid.empty()) pass.invalid = r.invalid;
  }
  pass.metrics["peak_rss_mb"] = PeakRssMiB();
  return pass;
}

// ---------------------------------------------------------------------------

int32_t OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int32_t>(std::max(1u, std::thread::hardware_concurrency()));
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string HostName() {
  char name[256] = {};
  if (gethostname(name, sizeof(name) - 1) != 0) return "unknown";
  return name;
}

/// A JSON number with all its digits; non-finite values cannot be JSON, so
/// an infinite percentile (it landed on a failed operation) prints as 1e12.
std::string Number(double v) {
  if (std::isinf(v)) v = v > 0 ? 1e12 : -1e12;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<MetricSpec>& specs,
                        const std::map<std::string, double>& values) {
  std::string out;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    if (it == values.end() || std::isnan(it->second)) continue;
    out += out.empty() ? "{" : ", ";
    out += Quote(spec.name) + ": {\"value\": " + Number(it->second) +
           ", \"unit\": " + Quote(spec.unit) + "}";
  }
  return out.empty() ? "{}" : out + "}";
}

std::string AccountingJson(const Accounting& ops) {
  return "{\"attempted\": " + std::to_string(ops.attempted) +
         ", \"succeeded\": " + std::to_string(ops.succeeded) +
         ", \"shed\": " + std::to_string(ops.shed) +
         ", \"out_of_range\": " + std::to_string(ops.out_of_range) +
         ", \"other_error\": " + std::to_string(ops.other_error) + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve-read|serve-churn "
               "--seed N --seconds S --trace 0|1 --work-dir DIR [--commit ID]\n");
  return 1;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::string(argv[i]).rfind("--", 0) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || !args.count("workload") || !args.count("seed") ||
      !args.count("seconds") || !args.count("trace") || !args.count("work-dir")) {
    return Usage();
  }
  const std::string workload_name = args["workload"];
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  const bool traced = args["trace"] == "1";
  if (seconds <= 0.0 || (args["trace"] != "0" && args["trace"] != "1")) return Usage();
  Workload workload;
  if (!MakeWorkload(workload_name, seconds, &workload)) return Usage();

  const int32_t nproc = OnlineCpus();
  const std::string commit = args.count("commit") ? args["commit"] : "unknown";
  const std::string fingerprint =
      "{\"host\": " + Quote(HostName()) + ", \"nproc\": " + std::to_string(nproc) +
      ", \"compiler\": " + Quote(Compiler()) + ", \"build_type\": " +
      Quote(PERFBENCH_BUILD_TYPE) + ", \"avx2_dispatch\": " +
      (fairrec::internal::FinishPearsonBatchHasAvx2() ? "true" : "false") +
      ", \"commit\": " + Quote(commit) + ", \"workload\": " + Quote(workload_name) +
      ", \"seed\": " + std::to_string(seed) + ", \"seconds\": " + Number(seconds) +
      ", \"trace\": " + (traced ? "1" : "0") + "}";
  std::printf("fingerprint: %s\n", fingerprint.c_str());
  std::fflush(stdout);

  const std::string work_dir = JoinPath(args["work-dir"], "run");
  ResetDirectory(work_dir);
  RunContext context;
  context.work_dir = work_dir;
  context.nproc = nproc;
  context.seed = seed;

  // The untraced pass gives the end-to-end metrics; the traced pass, when
  // asked for, gives the per-layer metrics and the tracing overhead.
  // A traced run splits --seconds between the two passes, so the overhead
  // compares passes of equal length.
  if (traced) MakeWorkload(workload_name, seconds / 2, &workload);
  PassResult pass = RunPass(workload, context);
  Tracer tracer;
  PassResult traced_pass;
  if (traced && pass.gate_failures.empty() && pass.invalid.empty()) {
    context.tracer = &tracer;
    traced_pass = RunPass(workload, context);
    pass.gate_failures = traced_pass.gate_failures;
    pass.invalid = traced_pass.invalid;
    pass.ops.Add(traced_pass.ops);
    for (const MetricSpec& m : OverheadMetrics()) {
      const double traced_value = traced_pass.metrics[m.name];
      const double untraced_value = pass.metrics[m.name];
      // A percentile that landed on a failure in either pass is infinite;
      // so is the difference.
      traced_pass.layers[std::string("overhead.") + m.name] =
          std::isinf(traced_value) || std::isinf(untraced_value)
              ? kFailedLatency
              : traced_value - untraced_value;
    }
    for (const MetricSpec& m : TailMetrics()) {
      traced_pass.layers[std::string("tail.") + m.name] = pass.metrics[m.name];
    }
  }
  ResetDirectory(work_dir);
  std::filesystem::remove(work_dir);

  for (const std::string& failure : pass.gate_failures) {
    std::fprintf(stderr, "PARITY GATE FAILED: %s\n", failure.c_str());
  }
  if (!pass.gate_failures.empty()) return 2;
  if (!pass.invalid.empty()) {
    std::fprintf(stderr, "INVALID RUN (not scored): %s\n", pass.invalid.c_str());
    return 3;
  }

  std::vector<MetricSpec> layer_specs = LayerMetrics();
  // tail.* then overhead.* names; reserved up front so the c_str() pointers
  // layer_specs keeps stay valid.
  std::vector<std::string> derived_names;
  derived_names.reserve(TailMetrics().size() + OverheadMetrics().size());
  for (const MetricSpec& m : TailMetrics()) {
    derived_names.push_back(std::string("tail.") + m.name);
    layer_specs.push_back({derived_names.back().c_str(), m.unit, ""});
  }
  for (const MetricSpec& m : OverheadMetrics()) {
    derived_names.push_back(std::string("overhead.") + m.name);
    layer_specs.push_back({derived_names.back().c_str(), m.unit, ""});
  }

  // Every declared metric must have been measured; a gap is a benchmark bug,
  // never a placeholder value.
  const auto missing = [](const std::vector<MetricSpec>& specs,
                          const std::map<std::string, double>& values) {
    for (const MetricSpec& m : specs) {
      const auto it = values.find(m.name);
      if (it == values.end() || std::isnan(it->second)) return std::string(m.name);
    }
    return std::string();
  };
  const std::string gap = traced ? missing(layer_specs, traced_pass.layers)
                                 : missing(EndToEndMetrics(), pass.metrics);
  if (!gap.empty()) {
    std::fprintf(stderr, "metric %s was not measured\n", gap.c_str());
    return 1;
  }

  for (const MetricSpec& m : EndToEndMetrics()) {
    std::printf("%-18s %16.6f %-6s (%s is better)\n", m.name, pass.metrics[m.name], m.unit,
                m.better);
  }
  if (traced) {
    for (const MetricSpec& m : layer_specs) {
      std::printf("%-34s %18.6f %s\n", m.name, traced_pass.layers[m.name], m.unit);
    }
  }
  std::printf("accounting: %s\n", AccountingJson(pass.ops).c_str());
  std::printf("generator: late_ms.p99 %s (bound 20 ms)\n",
              Number(pass.layers["gen.late_ms.p99"]).c_str());

  const std::string results_dir = JoinPath(args["work-dir"], "results");
  std::filesystem::create_directories(results_dir);
  const std::string stem = workload_name + "-seed" + std::to_string(seed) +
                           (traced ? "-trace" : "");
  if (std::FILE* out = std::fopen(JoinPath(results_dir, stem + ".json").c_str(), "w")) {
    std::fprintf(out,
                 "{\"fingerprint\": %s,\n \"accounting\": %s,\n \"metrics\": %s,\n"
                 " \"layers\": %s}\n",
                 fingerprint.c_str(), AccountingJson(pass.ops).c_str(),
                 MetricsJson(EndToEndMetrics(), pass.metrics).c_str(),
                 MetricsJson(layer_specs, traced ? traced_pass.layers : pass.layers).c_str());
    std::fclose(out);
  }
  if (traced) tracer.WriteJsonLines(JoinPath(results_dir, stem + "-spans.jsonl"));

  std::printf("{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              static_cast<long long>(pass.ops.attempted),
              static_cast<long long>(pass.ops.failed()),
              MetricsJson(traced ? layer_specs : EndToEndMetrics(),
                          traced ? traced_pass.layers : pass.metrics)
                  .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
