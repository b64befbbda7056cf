// perfbench: measures the ALT pipeline end to end and layer by layer on the
// host. One process runs one workload (see README.md):
//
//   perfbench --workload tune-r18|serve-alt|serve-ol --seed N --seconds S
//             --trace 0|1 --work DIR [--setup-only]
//
// It prints human-readable tables and, as its LAST stdout line, one JSON
// object with the raw results that run.py aggregates. Every timing is taken
// here, from outside the library, by timing calls into its public functions;
// per-layer counts come from the counters and spans the library records.
//
//   set-up     pretraining, tuning the served model, SaveArtifact,
//              LoadArtifact, Server::AddModel (session create + JIT) and one
//              warm-up request. Reported as setup_s.
//   timed      tune-r18: repeated core::Compile of ResNet-18, then traffic.
//              serve-*:  seeded open-loop traffic through serving::Server.
//   --trace 1  the same with program tracing (AltOptions::trace.path and the
//              global TraceRecorder) and benchmark-side spans, followed by
//              per-layer probes; prints the per-layer metrics instead.
//
// Served responses are checked against runtime::ExecuteReference outputs
// precomputed (outside set-up and the timed region) for a seeded input pool.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/core/alt.h"
#include "src/graph/networks.h"
#include "src/serving/server.h"
#include "src/sim/perf_model.h"
#include "src/support/metrics.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"

namespace {

using namespace alt;
using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Exact order statistics over client-side samples (nearest rank).

double NearestRank(std::vector<double> v, double p) {
  if (v.empty()) {
    return std::nan("");
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(std::max<size_t>(rank, 1), v.size()) - 1];
}

// Mean of the middle half of the samples (the interquartile mean). On a
// shared host short tunings fall into a fast and a slow mode whose mix
// changes from run to run; the median jumps between the modes while this
// mean moves with the mix and still ignores stalls.
double InterquartileMean(std::vector<double> v) {
  if (v.empty()) {
    return std::nan("");
  }
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 4;
  double sum = 0.0;
  for (size_t i = cut; i < v.size() - cut; ++i) {
    sum += v[i];
  }
  return sum / static_cast<double>(v.size() - 2 * cut);
}

// Mean of a registry histogram from its exact count and sum (the bucketed
// percentiles are never used).
double HistogramMean(const MetricsSnapshot& m, const std::string& name) {
  const HistogramSnapshot* h = m.histogram(name);
  return h == nullptr || h->count == 0 ? 0.0 : h->mean();
}

// ---------------------------------------------------------------------------
// Minimal JSON output.

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) { return Raw(key, JsonNumber(v)); }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  JsonObject& Bool(const std::string& key, bool v) { return Raw(key, v ? "true" : "false"); }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + JsonString(key) + ":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Spans: the library's (from its Chrome trace or TraceRecorder) and the
// benchmark's own around calls into the library's public functions, which
// are kept in memory and only recorded with --trace 1.

// One span of either source reduced to what self-time analysis needs.
struct Interval {
  std::string name;
  int tid = 0;
  double start_us = 0.0;
  double end_us = 0.0;
};

class SpanLog {
 public:
  static SpanLog& Get() {
    static SpanLog log;
    return log;
  }
  bool enabled = false;
  void Add(Interval span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }
  std::vector<Interval> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Interval> spans_;
};

int BenchThreadId() {
  static std::atomic<int> next{0};
  thread_local int id = next++;
  return id;
}

class Span {
 public:
  explicit Span(const char* name) : name_(name) {
    if (SpanLog::Get().enabled) {
      start_ns_ = TraceRecorder::NowNs();
    }
  }
  ~Span() {
    if (start_ns_ >= 0) {
      SpanLog::Get().Add(
          {name_, BenchThreadId(), start_ns_ / 1e3, TraceRecorder::NowNs() / 1e3});
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  int64_t start_ns_ = -1;
};

// Length of the union of `children`'s intervals clipped to [lo, hi].
double Coverage(std::vector<std::pair<double, double>> children, double lo, double hi) {
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double cursor = lo;
  for (auto [a, b] : children) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  return covered;
}

// Self time of every span: its duration minus the part of it covered by
// other spans nested inside it on the same thread. Spans nest strictly per
// thread (RAII), so the direct children of a span never overlap and one
// sweep with a stack of open ancestors finds them. Returns name ->
// {count, total_ms, self_ms}.
struct SpanTotals {
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

std::map<std::string, SpanTotals> SelfTimes(std::vector<Interval> spans) {
  std::sort(spans.begin(), spans.end(), [](const Interval& a, const Interval& b) {
    if (a.tid != b.tid) {
      return a.tid < b.tid;
    }
    return a.start_us != b.start_us ? a.start_us < b.start_us : a.end_us > b.end_us;
  });
  std::vector<double> child_us(spans.size(), 0.0);
  std::vector<size_t> open;
  for (size_t i = 0; i < spans.size(); ++i) {
    while (!open.empty() && (spans[open.back()].tid != spans[i].tid ||
                             spans[open.back()].end_us <= spans[i].start_us)) {
      open.pop_back();
    }
    if (!open.empty() && spans[i].end_us <= spans[open.back()].end_us) {
      child_us[open.back()] += spans[i].end_us - spans[i].start_us;
    }
    open.push_back(i);
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    const double dur_us = spans[i].end_us - spans[i].start_us;
    t.count += 1;
    t.total_ms += dur_us / 1e3;
    t.self_ms += (dur_us - child_us[i]) / 1e3;
  }
  return out;
}

// Summed coverage, inside every span named `parent`, of the spans named in
// `children` (same thread).
double CoveredMs(const std::vector<Interval>& spans, const std::string& parent,
                 const std::vector<std::string>& children) {
  double total = 0.0;
  for (const Interval& p : spans) {
    if (p.name != parent) {
      continue;
    }
    std::vector<std::pair<double, double>> inside;
    for (const Interval& c : spans) {
      if (c.tid == p.tid && c.start_us >= p.start_us && c.end_us <= p.end_us &&
          std::find(children.begin(), children.end(), c.name) != children.end()) {
        inside.push_back({c.start_us, c.end_us});
      }
    }
    total += Coverage(inside, p.start_us, p.end_us) / 1e3;
  }
  return total;
}

double TotalMs(const std::vector<Interval>& spans, const std::string& name) {
  double total = 0.0;
  for (const Interval& s : spans) {
    if (s.name == name) {
      total += (s.end_us - s.start_us) / 1e3;
    }
  }
  return total;
}

// Reads the complete ("ph":"X") events of a Chrome trace written by the
// library's TraceRecorder (one event object per array element, flat keys).
std::vector<Interval> ReadChromeTrace(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  auto field = [](const std::string& obj, const std::string& key) -> std::string {
    size_t k = obj.find("\"" + key + "\":");
    if (k == std::string::npos) {
      return "";
    }
    size_t v = k + key.size() + 3;
    if (obj[v] == '"') {
      size_t e = obj.find('"', v + 1);
      return obj.substr(v + 1, e - v - 1);
    }
    size_t e = obj.find_first_of(",}", v);
    return obj.substr(v, e - v);
  };
  std::vector<Interval> out;
  size_t pos = 0;
  while ((pos = text.find('{', pos + 1)) != std::string::npos) {
    size_t end = text.find('}', pos);
    if (end == std::string::npos) {
      break;
    }
    std::string obj = text.substr(pos, end - pos + 1);
    if (field(obj, "ph") == "X") {
      double ts = std::atof(field(obj, "ts").c_str());
      double dur = std::atof(field(obj, "dur").c_str());
      out.push_back({field(obj, "name"), std::atoi(field(obj, "tid").c_str()), ts, ts + dur});
    }
    pos = end;
  }
  return out;
}

std::vector<Interval> FromRecorder(const std::vector<TraceEvent>& events) {
  std::vector<Interval> out;
  for (const TraceEvent& e : events) {
    if (!e.instant) {
      out.push_back({e.name, e.tid, e.ts_us, e.ts_us + e.dur_us});
    }
  }
  return out;
}

void PrintSpanTable(const char* title, const std::vector<Interval>& spans) {
  std::printf("\n%s\n  %-34s %8s %12s %12s\n", title, "span", "count", "total_ms", "self_ms");
  for (const auto& [name, t] : SelfTimes(spans)) {
    std::printf("  %-34s %8lld %12.3f %12.3f\n", name.c_str(),
                static_cast<long long>(t.count), t.total_ms, t.self_ms);
  }
}

// ---------------------------------------------------------------------------
// Workloads.

struct Rung {
  double rps = 0.0;
  double share = 0.0;  // share of the serving time spent at this rate
};

// One tuning job: network, ALT variant, budget and tuner seed. Tuner seeds
// are fixed: across seeds the same job differs several-fold in tuning time
// and tuned latency, which would drown any code change.
struct TuneSpec {
  std::string network;
  core::AltVariant variant = core::AltVariant::kFull;
  int budget = 600;
  uint64_t seed = 1;
};

struct WorkloadSpec {
  std::string name;
  // Tuned repeatedly in the timed region for `tune_share` of --seconds
  // (at least once): tune_s and tuned_sim_us.
  TuneSpec timed;
  double tune_share = 0.0;
  // Tuned during set-up, saved, reloaded and served with the rest of the
  // timed region.
  TuneSpec served;
  // Server configuration: the largest batch one dispatch may form,
  // dispatcher workers, and intra-op threads per request (0 = all cores).
  int max_batch_size = 8;
  int workers = 1;
  int intra_threads = 0;
  // Fixed open-loop rate ladder (requests/s), ascending.
  std::vector<Rung> ladder;
  int light = 0;  // ladder index reported as light.*
  int heavy = 0;  // ladder index reported as heavy.*
  double limit_ms = 0.0;  // p95 latency limit for max_rps
};

constexpr int kPoolSize = 4;
constexpr int kRounds = 6;

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    // ResNet-18 joint tuning dominates; the 16x16x16 matmul it serves costs
    // microseconds per request, so its traffic measures the batching
    // front-end (default policy: batches of 8 or a 2 ms timeout).
    WorkloadSpec r18;
    r18.name = "tune-r18";
    r18.timed = {"r18", core::AltVariant::kFull, 600, 1};
    r18.tune_share = 0.6;
    r18.served = {"gmm16", core::AltVariant::kFull, 200, 1};
    r18.intra_threads = 1;
    r18.ladder = {{200, 0.4}, {4000, 0.4}, {16000, 0.2}};
    r18.light = 0;
    r18.heavy = 1;  // latency falls with load here: batches fill before the timeout
    r18.limit_ms = 100.0;
    v.push_back(r18);

    // The ResNet first layer is compute-bound (~500 ms per request on one
    // core). Four workers each run one request on one thread: sharding one
    // request over every core was 3.5x faster alone but its latency moved
    // 14-37% between runs, since any busy vCPU stalls the whole request.
    // Capacity is ~7-10 requests/s on a 4-vCPU host: 2 and 4 requests/s
    // pass the limit with margin (p95 <= 1.6 s even while the host is busy).
    // 32 requests/s for ~2 s queues ~60 requests, more than twice what the
    // workers finish in the 2.5 s limit, so it overloads even when the host
    // runs fast; 16 requests/s for 4 s passed the limit when it did. Tuning
    // gets 30% of the run: on a shared host short tunings fall into a fast
    // and a slow mode, each lasting about a second, so tune_s is steady only
    // when the tunings sample many stretches of the run.
    WorkloadSpec alt;
    alt.name = "serve-alt";
    alt.timed = {"first-layer", core::AltVariant::kFull, 600, 2};
    alt.tune_share = 0.3;
    alt.served = alt.timed;
    alt.max_batch_size = 1;
    alt.workers = 4;
    alt.intra_threads = 1;
    alt.ladder = {{2.0, 0.455}, {4.0, 0.455}, {32.0, 0.09}};
    alt.light = 0;
    alt.heavy = 1;
    alt.limit_ms = 2500.0;
    v.push_back(alt);

    WorkloadSpec ol = alt;
    ol.name = "serve-ol";
    ol.timed.variant = core::AltVariant::kLoopOnly;
    ol.served = ol.timed;
    v.push_back(ol);
    return v;
  }();
  for (const WorkloadSpec& s : specs) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

graph::Graph BuildNetwork(const std::string& name) {
  if (name == "r18") {
    return graph::BuildResNet18(1);
  }
  if (name == "gmm16") {
    return graph::BuildSingleMatmul(16, 16, 16);
  }
  return graph::BuildResNetFirstLayer(1);
}

const sim::Machine& Machine() { return sim::Machine::ByName("intel-cpu"); }

// ---------------------------------------------------------------------------
// Correctness checks.

struct Checks {
  std::vector<std::string> failures;
  void Fail(const std::string& what) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    failures.push_back(what);
  }
};

// The measurement engine's five-bucket invariant and a monotone tuning curve.
void CheckTuning(const autotune::CompiledNetwork& net, const std::string& what, Checks& checks) {
  const autotune::MeasureStats& s = net.measure_stats;
  if (s.requested != s.measured + s.cache_hits + s.failed + s.replayed + s.db_hits) {
    checks.Fail(what + ": requested != measured + cache_hits + failed + replayed + db_hits");
  }
  for (size_t i = 1; i < net.history_us.size(); ++i) {
    if (!(net.history_us[i] <= net.history_us[i - 1])) {
      checks.Fail(what + ": history_us is not monotone non-increasing");
      break;
    }
  }
}

bool MatchesReference(const std::vector<float>& got, const std::vector<float>& want) {
  if (got.size() != want.size()) {
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(std::fabs(got[i] - want[i]) <= 1e-4 + 1e-4 * std::fabs(want[i]))) {
      return false;
    }
  }
  return true;
}

// Seeded request payloads (inputs and constants, canonical layout) and their
// reference outputs, computed in parallel before set-up.
struct InputPool {
  std::vector<runtime::TensorDataMap> requests;
  std::vector<std::vector<float>> references;
};

// Set-up-only processes skip the references (their warm-up goes unchecked).
StatusOr<InputPool> BuildInputPool(const graph::Graph& g, uint64_t seed, int size,
                                   bool with_references) {
  InputPool pool;
  pool.requests.resize(size);
  pool.references.resize(with_references ? size : 0);
  const int out_id = g.ops().back().output;
  std::vector<Status> status(size, Status::Ok());
  std::vector<std::thread> threads;
  for (int i = 0; i < size; ++i) {
    threads.emplace_back([&, i] {
      Rng rng(seed * 7919 + static_cast<uint64_t>(i) + 1);
      runtime::FillGraphInputs(g, rng, pool.requests[i]);
      if (!with_references) {
        return;
      }
      runtime::TensorDataMap data = pool.requests[i];
      status[i] = runtime::ExecuteReference(g, data);
      pool.references[i] = std::move(data[out_id]);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const Status& s : status) {
    if (!s.ok()) {
      return s;
    }
  }
  return pool;
}

// ---------------------------------------------------------------------------
// Set-up: everything the served model needs before the first timed request.

struct Setup {
  core::LoadedArtifact loaded;
  std::unique_ptr<serving::Server> server;
  std::string model;
  double setup_s = 0.0;
  double pretrain_ms = 0.0;
  double tune_ms = 0.0;
  double save_ms = 0.0;
  double load_ms = 0.0;
  double add_model_ms = 0.0;
  double warmup_ms = 0.0;
  int64_t artifact_bytes = 0;
  MetricsSnapshot codegen;  // registry delta over AddModel + warm-up
};

core::AltOptions Options(const TuneSpec& t) {
  core::AltOptions o;
  o.budget = t.budget;
  o.seed = t.seed;
  o.variant = t.variant;
  return o;
}

StatusOr<Setup> RunSetup(const WorkloadSpec& w, const InputPool& pool, const std::string& work,
                         Checks& checks) {
  Span setup_span("bench.setup");
  Setup s;
  const auto t0 = Clock::now();
  {
    Span span("core.SharedPretrainedAgent");
    core::SharedPretrainedAgent(Machine());
  }
  const auto t1 = Clock::now();
  const core::AltOptions options = Options(w.served);
  StatusOr<autotune::CompiledNetwork> compiled = Status::Ok();
  {
    Span span("core.Compile");
    compiled = core::Compile(BuildNetwork(w.served.network), Machine(), options);
  }
  if (!compiled.ok()) {
    return compiled.status();
  }
  CheckTuning(*compiled, w.served.network + " set-up tuning", checks);
  const auto t2 = Clock::now();
  const std::string path = work + "/served.altart";
  {
    Span span("core.SaveArtifact");
    Status saved = core::SaveArtifact(*compiled, Machine(), options, path);
    if (!saved.ok()) {
      return saved;
    }
  }
  const auto t3 = Clock::now();
  {
    Span span("core.LoadArtifact");
    auto loaded = core::LoadArtifact(path);
    if (!loaded.ok()) {
      return loaded.status();
    }
    s.loaded = std::move(*loaded);
  }
  const auto t4 = Clock::now();
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  serving::ServerOptions server_options;
  server_options.policy.max_batch_size = w.max_batch_size;
  server_options.workers = w.workers;
  // A worker runs its batch's requests one after another: first-layer
  // batches hold one request, and a matmul request costs less than waking a
  // fan-out pool for it.
  server_options.intra_batch_threads = 1;
  server_options.session = core::ToSessionOptions(options);
  server_options.session.intra_threads = w.intra_threads;
  server_options.session.exec.engine = runtime::ExecEngine::kNative;
  s.server = std::make_unique<serving::Server>(server_options);
  s.model = w.served.network;
  {
    Span span("serving.Server.AddModel");
    Status added = s.server->AddModel(s.model, s.loaded);
    if (!added.ok()) {
      return added;
    }
  }
  const auto t5 = Clock::now();
  {
    Span span("serving.Server.Infer");
    auto out = s.server->Infer(s.model, pool.requests[0]);
    if (!out.ok() || (!pool.references.empty() && !MatchesReference(*out, pool.references[0]))) {
      checks.Fail("warm-up response does not match the reference");
    }
  }
  const auto t6 = Clock::now();
  s.codegen = MetricsRegistry::Global().Snapshot().DeltaSince(before);
  s.setup_s = MsBetween(t0, t6) / 1e3;
  s.pretrain_ms = MsBetween(t0, t1);
  s.tune_ms = MsBetween(t1, t2);
  s.save_ms = MsBetween(t2, t3);
  s.load_ms = MsBetween(t3, t4);
  s.add_model_ms = MsBetween(t4, t5);
  s.warmup_ms = MsBetween(t5, t6);
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  s.artifact_bytes = static_cast<int64_t>(f.tellg());
  return s;
}

// ---------------------------------------------------------------------------
// Open-loop traffic: one generator thread sends seeded Poisson arrivals and a
// collector thread times and checks the responses. Latency runs from when a
// request was DUE, so generator lateness and queueing both count.

struct StepResult {
  double rps = 0.0;
  double seconds = 0.0;
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t failed = 0;      // error responses, refusals included
  int64_t refused = 0;     // of which refused by admission control
  int64_t mismatched = 0;  // responses that differ from the reference
  int64_t backlog_end = 0; // queued, not yet dispatched, after the last send
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  bool within_limit = false;
};

// A failed or wrong response misses the limit; so does a step whose queue
// outgrew what the limit allows in flight (Little's law: rate x limit), with
// two requests of slack for Poisson bursts.
void Summarize(StepResult& r, double limit_ms) {
  r.p50 = NearestRank(r.latency_ms, 50);
  r.p90 = NearestRank(r.latency_ms, 90);
  r.p95 = NearestRank(r.latency_ms, 95);
  const double allowed_backlog = r.rps * limit_ms / 1e3 + 2.0;
  r.within_limit = r.ok == r.sent && r.p95 <= limit_ms &&
                   static_cast<double>(r.backlog_end) <= allowed_backlog;
}

void PrintStep(const char* label, const StepResult& r) {
  std::printf("  %-7s %8.1f rps %5.1fs: sent %5lld ok %5lld failed %lld mismatched %lld  "
              "p50 %9.3f ms  p95 %9.3f ms (n=%zu)  late p95 %.3f ms  backlog %lld  %s\n",
              label, r.rps, r.seconds, static_cast<long long>(r.sent),
              static_cast<long long>(r.ok), static_cast<long long>(r.failed),
              static_cast<long long>(r.mismatched), r.p50, r.p95, r.latency_ms.size(),
              NearestRank(r.late_ms, 95), static_cast<long long>(r.backlog_end),
              r.within_limit ? "ok" : "MISSES LIMIT");
}

StepResult RunStep(serving::Server& server, const std::string& model, const InputPool& pool,
                   double rps, double seconds, uint64_t trace_seed, uint64_t payload_seed,
                   double limit_ms) {
  StepResult r;
  r.rps = rps;
  r.seconds = seconds;
  // Arrivals: a Poisson process conditioned on its count (rate x seconds
  // arrivals at sorted uniform times) drawn from `trace_seed`, which is fixed
  // per rung, so every run replays the same bursts. With a few dozen
  // requests per rung, seed-drawn bursts moved p95 by 30-70% between runs.
  // The workload seed picks each request's payload.
  std::mt19937_64 trace_rng(trace_seed);
  std::mt19937_64 payload_rng(payload_seed);
  std::uniform_real_distribution<double> when(0.0, seconds);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(pool.requests.size()) - 1);
  const size_t count = std::max<size_t>(1, static_cast<size_t>(std::llround(rps * seconds)));
  std::vector<double> arrivals(count);
  std::vector<int> inputs(count);
  for (size_t i = 0; i < count; ++i) {
    arrivals[i] = when(trace_rng);
    inputs[i] = pick(payload_rng);
  }
  std::sort(arrivals.begin(), arrivals.end());

  struct Pending {
    std::future<serving::Response> future;
    Clock::time_point due;
    int input = 0;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool done = false;
  // The collector waits on the oldest outstanding response and sweeps the
  // rest every millisecond, so responses completing out of order (several
  // dispatcher workers, ~500 ms requests) are still timed to within that.
  std::thread collector([&] {
    std::vector<Pending> outstanding;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !queue.empty() || !outstanding.empty(); });
        for (Pending& p : queue) {
          outstanding.push_back(std::move(p));
        }
        queue.clear();
        if (done && outstanding.empty()) {
          return;
        }
      }
      outstanding.front().future.wait_for(std::chrono::milliseconds(1));
      const auto now = Clock::now();
      size_t kept = 0;
      for (size_t i = 0; i < outstanding.size(); ++i) {
        Pending& p = outstanding[i];
        if (p.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          if (kept != i) {
            outstanding[kept] = std::move(p);
          }
          ++kept;
          continue;
        }
        serving::Response resp = p.future.get();
        if (!resp.ok()) {
          ++r.failed;
          r.refused += resp.status().code() == StatusCode::kUnavailable;
        } else if (!MatchesReference(*resp, pool.references[p.input])) {
          ++r.mismatched;
        } else {
          ++r.ok;
          r.latency_ms.push_back(MsBetween(p.due, now));
        }
      }
      outstanding.resize(kept);
    }
  });

  const auto start = Clock::now();
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(arrivals[i]));
    std::this_thread::sleep_until(due);
    r.late_ms.push_back(MsBetween(due, Clock::now()));
    runtime::TensorDataMap request = pool.requests[inputs[i]];
    Pending p;
    {
      Span span("serving.Server.Submit");
      p.future = server.Submit(model, std::move(request));
    }
    p.due = due;
    p.input = inputs[i];
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(std::move(p));
    }
    cv.notify_one();
  }
  r.sent = static_cast<int64_t>(arrivals.size());
  r.backlog_end = server.queue_depth();
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();

  Summarize(r, limit_ms);
  return r;
}

// Pools the sub-steps of one rung, run in separate rounds, into one result.
StepResult Merge(const std::vector<StepResult>& parts, double limit_ms) {
  StepResult m;
  m.rps = parts[0].rps;
  for (const StepResult& p : parts) {
    m.seconds += p.seconds;
    m.sent += p.sent;
    m.ok += p.ok;
    m.failed += p.failed;
    m.refused += p.refused;
    m.mismatched += p.mismatched;
    m.backlog_end = std::max(m.backlog_end, p.backlog_end);
    m.latency_ms.insert(m.latency_ms.end(), p.latency_ms.begin(), p.latency_ms.end());
    m.late_ms.insert(m.late_ms.end(), p.late_ms.begin(), p.late_ms.end());
  }
  Summarize(m, limit_ms);
  return m;
}

double MaxRps(const std::vector<StepResult>& steps) {
  double best = 0.0;
  for (const StepResult& r : steps) {
    if (!r.within_limit) {
      break;
    }
    best = r.rps;
  }
  return best;
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced run only).

struct Probe {
  std::string group;
  double host_ms = 0.0;
  double sim_us = 0.0;
};

// runtime::Execute per program on physical buffers, in execution order;
// host time is the median of three runs.
StatusOr<std::vector<Probe>> ProbeGroups(const autotune::CompiledNetwork& net,
                                         const runtime::TensorDataMap& request) {
  runtime::BufferStore store;
  for (const auto& [id, canonical] : request) {
    auto physical = runtime::Physicalize(canonical, net.graph.tensor(id).shape,
                                         net.assignment.Get(id));
    if (!physical.ok()) {
      return physical.status();
    }
    store.Get(id) = std::move(*physical);
  }
  // The serving configuration: native kernels, intra-op sharding on every
  // core through one shared pool.
  runtime::ExecOptions exec;
  exec.engine = runtime::ExecEngine::kNative;
  exec.intra_pool = std::make_shared<runtime::IntraOpPool>(HardwareThreads());
  std::vector<Probe> out;
  for (size_t i = 0; i < net.programs.size(); ++i) {
    std::vector<double> times;
    for (int rep = 0; rep < 3; ++rep) {
      Span span("runtime.Execute");
      const auto t0 = Clock::now();
      Status st = runtime::Execute(net.programs[i], store, exec);
      if (!st.ok()) {
        return st;
      }
      times.push_back(MsBetween(t0, Clock::now()));
    }
    out.push_back({net.graph.op(net.groups[i].anchor_op).name, NearestRank(times, 50),
                   sim::EstimateProgram(net.programs[i], Machine()).latency_us});
  }
  return out;
}

// Median Run latency of a fresh session at `intra_threads`.
StatusOr<double> ProbeRun(const autotune::CompiledNetwork& net,
                          const runtime::TensorDataMap& request, int intra_threads) {
  runtime::SessionOptions options;
  options.exec.engine = runtime::ExecEngine::kNative;
  options.intra_threads = intra_threads;
  StatusOr<runtime::InferenceSession> session = Status::Ok();
  {
    Span span("runtime.InferenceSession.Create");
    session = runtime::InferenceSession::Create(net.graph, net.assignment,
                                                {net.groups, net.programs}, options);
  }
  if (!session.ok()) {
    return session.status();
  }
  std::vector<double> times;
  for (int rep = 0; rep < 4; ++rep) {
    Span span("runtime.InferenceSession.Run");
    const auto t0 = Clock::now();
    auto out = session->Run(request);
    if (!out.ok()) {
      return out.status();
    }
    if (rep > 0) {
      times.push_back(MsBetween(t0, Clock::now()));
    }
  }
  return NearestRank(times, 50);
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string work = ".";
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--work") {
      a.work = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string ChecksJson(const Checks& checks, int64_t attempted, int64_t failed) {
  JsonObject o;
  o.Bool("correct", checks.failures.empty());
  o.Num("attempted", static_cast<double>(attempted));
  o.Num("failed", static_cast<double>(failed));
  std::string list;
  for (const std::string& f : checks.failures) {
    list += (list.empty() ? "" : ",") + JsonString(f);
  }
  o.Raw("check_failures", "[" + list + "]");
  return o.str();
}

std::string StepsJson(const std::vector<StepResult>& steps) {
  std::string out;
  for (const StepResult& r : steps) {
    JsonObject o;
    o.Num("rps", r.rps).Num("seconds", r.seconds).Num("sent", r.sent).Num("ok", r.ok);
    o.Num("failed", r.failed).Num("mismatched", r.mismatched);
    o.Num("backlog_end", r.backlog_end).Num("p50_ms", r.p50).Num("p90_ms", r.p90);
    o.Num("p95_ms", r.p95);
    o.Num("late_p95_ms", NearestRank(r.late_ms, 95)).Bool("within_limit", r.within_limit);
    out += (out.empty() ? "" : ",") + o.str();
  }
  return "[" + out + "]";
}

// Layer metric table: name -> (value, unit).
using LayerMetrics = std::vector<std::tuple<std::string, double, std::string>>;

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--work DIR [--setup-only]\n");
    return 2;
  }
  const WorkloadSpec* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  SpanLog::Get().enabled = args.trace;
  Checks checks;

  // Reference outputs: outside set-up and the timed region.
  auto pool = BuildInputPool(BuildNetwork(w->served.network), args.seed,
                             args.setup_only ? 1 : kPoolSize, !args.setup_only);
  if (!pool.ok()) {
    std::fprintf(stderr, "reference execution failed: %s\n", pool.status().ToString().c_str());
    return 1;
  }

  auto setup = RunSetup(*w, *pool, args.work, checks);
  if (!setup.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", setup.status().ToString().c_str());
    return 1;
  }
  Setup& s = *setup;
  std::printf("%s set-up %.3f s: pretrain %.1f ms, tune %.1f ms, save %.1f ms, load %.1f ms, "
              "add_model %.1f ms, warm-up %.1f ms\n",
              w->name.c_str(), s.setup_s, s.pretrain_ms, s.tune_ms, s.save_ms, s.load_ms,
              s.add_model_ms, s.warmup_ms);

  JsonObject result;
  result.Str("workload", w->name).Num("seed", static_cast<double>(args.seed));
  result.Num("setup_s", s.setup_s);
  if (args.setup_only) {
    s.server->Shutdown();
    result.Raw("checks", ChecksJson(checks, 1, 0));
    std::printf("%s\n", result.str().c_str());
    return checks.failures.empty() ? 0 : 1;
  }

  // --- timed region ---
  // Tuning, light and heavy alternate over kRounds rounds, so each samples
  // the whole run rather than one stretch of it (host speed drifts by 10-20%
  // over seconds): each round tunes, runs one light step, tunes again and
  // runs one heavy step. The other rungs run once afterwards, ascending, to
  // find max_rps. The traced run tunes twice up front, untraced then traced,
  // and replays round 0's light rung untraced before turning the recorder on
  // (overhead).
  const graph::Graph timed_graph = BuildNetwork(w->timed.network);
  const std::string tune_trace_path = args.work + "/trace_tune.json";
  std::vector<double> tune_s;
  std::optional<autotune::CompiledNetwork> tuned;
  double untraced_tune_s = std::nan("");
  auto tune = [&](bool traced) -> Status {
    core::AltOptions options = Options(w->timed);
    options.trace.path = traced ? tune_trace_path : "";
    const auto t0 = Clock::now();
    StatusOr<autotune::CompiledNetwork> net = Status::Ok();
    {
      Span span("core.Compile");
      net = core::Compile(timed_graph, Machine(), options);
    }
    const double seconds = MsBetween(t0, Clock::now()) / 1e3;
    if (!net.ok()) {
      return net.status();
    }
    CheckTuning(*net, w->timed.network + " tuning", checks);
    if (tuned.has_value() && net->perf.latency_us != tuned->perf.latency_us) {
      checks.Fail("repeated tuning at a fixed seed gave a different tuned network");
    }
    (args.trace && !traced ? untraced_tune_s : tune_s.emplace_back()) = seconds;
    tuned = std::move(*net);
    return Status::Ok();
  };
  // Untraced runs tune before every light and heavy step: before step k of
  // 2 * kRounds, until the timed tunings have taken k such slices of
  // `tune_share`.
  double tuned_ms = 0.0;
  auto tune_slice = [&](int k) -> Status {
    const double target_ms = 1e3 * args.seconds * w->tune_share * k / (2 * kRounds);
    while (!args.trace && tuned_ms < target_ms) {
      const auto t0 = Clock::now();
      ALT_RETURN_IF_ERROR(tune(false));
      tuned_ms += MsBetween(t0, Clock::now());
    }
    return Status::Ok();
  };
  // Nominal, not what tuning left over: the arrival traces depend on it.
  const double serve_seconds = args.seconds * (1.0 - w->tune_share);
  auto run_rung = [&](int rung, int round, double share) {
    return RunStep(*s.server, s.model, *pool, w->ladder[rung].rps,
                   serve_seconds * w->ladder[rung].share * share,
                   1000 * static_cast<uint64_t>(rung + 1) + round,
                   args.seed * 1000 + 10 * rung + round, w->limit_ms);
  };
  const double round_share = 1.0 / kRounds;

  auto tuning_failed = [](const Status& status) {
    std::fprintf(stderr, "tuning failed: %s\n", status.ToString().c_str());
    return 1;
  };
  if (args.trace) {
    Status tuned_ok = tune(false);
    if (tuned_ok.ok()) {
      tuned_ok = tune(true);
    }
    if (!tuned_ok.ok()) {
      return tuning_failed(tuned_ok);
    }
  }
  std::optional<StepResult> untraced_light;
  std::vector<Interval> serve_trace;
  if (args.trace) {
    untraced_light = run_rung(w->light, 0, round_share);
    TraceRecorder::Global().Start();
  }
  const MetricsSnapshot ladder_before = MetricsRegistry::Global().Snapshot();
  std::printf("%s timed region (%.0f s; p95 limit %.1f ms):\n", w->name.c_str(), args.seconds,
              w->limit_ms);
  std::vector<StepResult> light_parts;
  std::vector<StepResult> heavy_parts;
  for (int round = 0; round < kRounds; ++round) {
    Status tuned_ok = tune_slice(2 * round + 1);
    if (!tuned_ok.ok()) {
      return tuning_failed(tuned_ok);
    }
    light_parts.push_back(run_rung(w->light, round, round_share));
    PrintStep("light", light_parts.back());
    tuned_ok = tune_slice(2 * round + 2);
    if (!tuned_ok.ok()) {
      return tuning_failed(tuned_ok);
    }
    heavy_parts.push_back(run_rung(w->heavy, round, round_share));
    PrintStep("heavy", heavy_parts.back());
  }
  std::vector<StepResult> steps;
  bool missed = false;
  for (int rung = 0; rung < static_cast<int>(w->ladder.size()) && !missed; ++rung) {
    if (rung == w->light || rung == w->heavy) {
      steps.push_back(Merge(rung == w->light ? light_parts : heavy_parts, w->limit_ms));
      PrintStep(rung == w->light ? "light=" : "heavy=", steps.back());
    } else {
      steps.push_back(run_rung(rung, 0, 1.0));
      PrintStep("rung", steps.back());
    }
    missed = !steps.back().within_limit;
  }
  if (args.trace) {
    serve_trace = FromRecorder(TraceRecorder::Global().StopAndDrain());
  }
  const double tuned_sim_us = tuned->perf.latency_us;
  std::printf("  tune    %s x%zu: interquartile mean %.3f s, median %.3f s, quartiles [%.3f, %.3f], "
              "range [%.3f, %.3f], sim %.3f us, %lld measured\n",
              w->timed.network.c_str(), tune_s.size(), InterquartileMean(tune_s),
              NearestRank(tune_s, 50),
              NearestRank(tune_s, 25), NearestRank(tune_s, 75), NearestRank(tune_s, 0),
              NearestRank(tune_s, 100), tuned_sim_us,
              static_cast<long long>(tuned->measure_stats.measured));
  const MetricsSnapshot ladder = MetricsRegistry::Global().Snapshot().DeltaSince(ladder_before);
  const double peak_rss_mb = PeakRssMb();

  // Every request that did not return the reference output counts in
  // error_rate; anything but an admission refusal is also a failed check.
  const StepResult light = Merge(light_parts, w->limit_ms);
  const StepResult heavy = Merge(heavy_parts, w->limit_ms);
  std::vector<const StepResult*> sent = {&light, &heavy};
  for (int rung = 0; rung < static_cast<int>(steps.size()); ++rung) {
    if (rung != w->light && rung != w->heavy) {
      sent.push_back(&steps[rung]);
    }
  }
  int64_t attempted = 1;  // the warm-up request
  int64_t failed = 0;
  for (const StepResult* step : sent) {
    const StepResult& r = *step;
    attempted += r.sent;
    failed += r.sent - r.ok;
    if (r.mismatched > 0) {
      checks.Fail(std::to_string(r.mismatched) + " responses differ from the reference");
    }
    if (r.failed > r.refused) {
      checks.Fail(std::to_string(r.failed - r.refused) + " requests failed");
    }
  }

  JsonObject e2e;
  e2e.Num("tune_s", InterquartileMean(tune_s)).Num("tuned_sim_us", tuned_sim_us);
  e2e.Num("light.p50_ms", light.p50).Num("light.p95_ms", light.p95);
  e2e.Num("heavy.p50_ms", heavy.p50).Num("heavy.p95_ms", heavy.p95);
  e2e.Num("max_rps", MaxRps(steps));
  e2e.Num("error_rate", static_cast<double>(failed) / static_cast<double>(attempted));
  e2e.Num("peak_rss_mb", peak_rss_mb);
  result.Raw("end_to_end", e2e.str());
  JsonObject samples;
  samples.Num("tune", static_cast<double>(tune_s.size()));
  samples.Num("light", static_cast<double>(light.latency_ms.size()));
  samples.Num("heavy", static_cast<double>(heavy.latency_ms.size()));
  result.Raw("samples", samples.str());
  std::string tune_json;
  for (double t : tune_s) {
    tune_json += (tune_json.empty() ? "" : ",") + JsonNumber(t);
  }
  result.Raw("tune_s_samples", "[" + tune_json + "]");
  result.Raw("steps", StepsJson(steps));

  if (args.trace) {
    // --- per-layer metrics ---
    LayerMetrics layer;
    auto add = [&](const std::string& name, double value, const std::string& unit) {
      layer.emplace_back(name, value, unit);
    };
    // Autotune/layout/sim/graph/loop come from the traced timed tuning.
    const std::vector<Interval> tune_trace = ReadChromeTrace(tune_trace_path);
    if (tune_trace.empty()) {
      checks.Fail("no spans read from " + tune_trace_path);
    }
    const double tune_ms = TotalMs(tune_trace, "tuner.tune");
    const double search_self_ms =
        tune_ms - CoveredMs(tune_trace, "tuner.tune", {"measure.batch", "tuner.lowering"});
    const autotune::MeasureStats& ms = tuned->measure_stats;
    const MetricsSnapshot& tm = tuned->metrics;
    add("autotune.search_self_ms", search_self_ms, "ms");
    add("autotune.joint_stage_ms", TotalMs(tune_trace, "tuner.joint_stage"), "ms");
    add("autotune.loop_stage_ms", TotalMs(tune_trace, "tuner.loop_stage"), "ms");
    add("autotune.measure_wall_ms", ms.wall_ms, "ms");
    add("autotune.measure_cpu_ms", ms.cpu_ms, "ms");
    add("autotune.requested", static_cast<double>(ms.requested), "count");
    add("autotune.measured", static_cast<double>(ms.measured), "count");
    add("autotune.cache_hit_ratio",
        ms.requested > 0 ? static_cast<double>(ms.cache_hits) / ms.requested : 0.0, "ratio");
    add("autotune.loop_batches", static_cast<double>(tm.counter("tuner.loop_batches")), "count");
    add("autotune.ppo_updates", static_cast<double>(tm.counter("ppo.updates")), "count");
    const int64_t enumerated = tm.counter("layout.candidates_enumerated");
    add("layout.candidates_enumerated", static_cast<double>(enumerated), "count");
    add("layout.dedup_ratio",
        enumerated > 0 ? static_cast<double>(tm.counter("layout.relation_dedup")) / enumerated
                       : 0.0,
        "ratio");
    add("sim.estimate_calls", static_cast<double>(tm.counter("sim.estimate_program_calls")),
        "count");
    add("sim.analysis_cache_ratio",
        ms.measured > 0 ? static_cast<double>(ms.analysis_cache_hits) / ms.measured : 0.0,
        "ratio");
    std::vector<double> estimate_ms;
    for (int rep = 0; rep < 3; ++rep) {
      Span span("sim.EstimatePrograms");
      const auto t0 = Clock::now();
      sim::EstimatePrograms(tuned->programs, Machine());
      estimate_ms.push_back(MsBetween(t0, Clock::now()));
    }
    add("sim.estimate_ms", NearestRank(estimate_ms, 50), "ms");
    std::vector<double> lower_ms;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      for (size_t i = 0; i < tuned->groups.size(); ++i) {
        Span span("loop.LowerGroup");
        auto program =
            loop::LowerGroup(tuned->graph, tuned->assignment, tuned->groups[i], tuned->schedules[i]);
        if (!program.ok()) {
          checks.Fail("LowerGroup failed on a tuned group: " + program.status().ToString());
        }
      }
      lower_ms.push_back(MsBetween(t0, Clock::now()));
    }
    add("loop.lower_ms", NearestRank(lower_ms, 50), "ms");
    int conversions = 0;
    for (const auto& group : tuned->groups) {
      conversions += tuned->graph.op(group.anchor_op).kind == graph::OpKind::kLayoutConvert;
    }
    add("graph.fused_groups", static_cast<double>(tuned->groups.size()), "count");
    add("graph.conversion_ops", conversions, "count");

    // Core/codegen/runtime/serving come from the served model.
    add("core.save_ms", s.save_ms, "ms");
    add("core.load_ms", s.load_ms, "ms");
    add("core.artifact_bytes", static_cast<double>(s.artifact_bytes), "bytes");
    add("codegen.create_ms", s.add_model_ms, "ms");
    add("codegen.compiles", static_cast<double>(s.codegen.counter("codegen.compiles")), "count");
    add("codegen.cache_hits", static_cast<double>(s.codegen.counter("codegen.cache_hits")),
        "count");
    add("codegen.fallback_programs",
        static_cast<double>(s.codegen.counter("codegen.fallback_programs")), "count");

    const autotune::CompiledNetwork& served = s.loaded.network;
    auto probes = ProbeGroups(served, pool->requests[0]);
    if (!probes.ok()) {
      checks.Fail("per-program execution failed: " + probes.status().ToString());
      probes = std::vector<Probe>();
    }
    std::printf("\nper-group host vs simulator (%s, native engine)\n  %-12s %12s %12s %10s\n",
                w->served.network.c_str(), "group", "host_ms", "sim_us", "host/sim");
    // Every workload reports the groups of every served model, 0 for the
    // ones its own model does not have, so all runs print the same names.
    for (const char* group : {"pad", "conv1", "op"}) {
      double host_ms = 0.0;
      double ratio = 0.0;
      for (const Probe& p : *probes) {
        if (p.group == group) {
          host_ms = p.host_ms;
          ratio = p.host_ms * 1e3 / p.sim_us;
          std::printf("  %-12s %12.3f %12.3f %10.1f\n", group, p.host_ms, p.sim_us, ratio);
        }
      }
      add(std::string("runtime.group.") + group + ".host_ms", host_ms, "ms");
      add(std::string("runtime.group.") + group + ".host_over_sim", ratio, "ratio");
    }
    auto serial = ProbeRun(served, pool->requests[0], 1);
    auto parallel = ProbeRun(served, pool->requests[0], HardwareThreads());
    if (!serial.ok() || !parallel.ok()) {
      checks.Fail("session probe failed");
    } else {
      std::printf("  Run: %.3f ms with 1 intra-op thread, %.3f ms with %d\n", *serial,
                  *parallel, HardwareThreads());
      add("runtime.intra_speedup", *serial / *parallel, "ratio");
    }
    add("runtime.parallel_programs",
        static_cast<double>(ladder.counter("interp.parallel_programs")), "count");
    add("runtime.parallel_degraded",
        static_cast<double>(ladder.counter("interp.parallel_degraded")), "count");
    add("runtime.arena_waits", static_cast<double>(ladder.counter("session.arena_waits")),
        "count");
    add("serving.queue_wait_ms.mean", HistogramMean(ladder, "serving.queue_wait_us") / 1e3,
        "ms");
    add("serving.batch_size.mean", HistogramMean(ladder, "serving.batch_size"), "count");
    add("serving.batch_ms.mean", HistogramMean(ladder, "serving.batch_us") / 1e3, "ms");
    add("serving.rejected", static_cast<double>(ladder.counter("serving.rejected")), "count");
    std::vector<double> late;
    for (const StepResult* r : sent) {
      late.insert(late.end(), r->late_ms.begin(), r->late_ms.end());
    }
    add("serving.gen_late_ms.p95", NearestRank(late, 95), "ms");
    add("serving.backlog_end", static_cast<double>(heavy.backlog_end), "count");

    // Tracing overhead: traced minus untraced, same work and inputs.
    const double traced_tune_s = tune_s[0];
    const double traced_p50 = light_parts[0].p50;
    const double untraced_p50 = untraced_light->p50;
    std::printf("\ntracing overhead: tune_s %.3f traced - %.3f untraced = %+.3f s (%+.1f%%)\n",
                traced_tune_s, untraced_tune_s, traced_tune_s - untraced_tune_s,
                100.0 * (traced_tune_s / untraced_tune_s - 1.0));
    std::printf("tracing overhead: light.p50_ms %.3f traced - %.3f untraced = %+.3f ms\n",
                traced_p50, untraced_p50, traced_p50 - untraced_p50);
    std::printf("autotune.search_self_ms %.1f = %.1f%% of traced tune_s\n", search_self_ms,
                search_self_ms / (traced_tune_s * 10.0));
    add("trace.tune_overhead_ms", 1e3 * (traced_tune_s - untraced_tune_s), "ms");
    add("trace.light_p50_overhead_ms", traced_p50 - untraced_p50, "ms");
    add("autotune.search_self_share", search_self_ms / (traced_tune_s * 1e3), "ratio");

    PrintSpanTable("program spans, tuning (self = duration - nested child spans)", tune_trace);
    PrintSpanTable("program spans, traffic", serve_trace);
    PrintSpanTable("benchmark spans around public calls", SpanLog::Get().spans());

    std::printf("\nratio bases: autotune.cache_hit_ratio = %lld hits / %lld requested; "
                "layout.dedup_ratio = %lld dedup / %lld enumerated; sim.analysis_cache_ratio = "
                "%lld hits / %lld measured\n",
                static_cast<long long>(ms.cache_hits), static_cast<long long>(ms.requested),
                static_cast<long long>(tm.counter("layout.relation_dedup")),
                static_cast<long long>(enumerated),
                static_cast<long long>(ms.analysis_cache_hits),
                static_cast<long long>(ms.measured));
    std::string body;
    for (const auto& [name, value, unit] : layer) {
      JsonObject m;
      m.Num("value", value).Str("unit", unit);
      body += (body.empty() ? "" : ",") + JsonString(name) + ":" + m.str();
    }
    result.Raw("per_layer", "{" + body + "}");
  }

  s.server->Shutdown();
  result.Raw("checks", ChecksJson(checks, attempted, failed));
  std::printf("%s\n", result.str().c_str());
  return checks.failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
