#include "src/autotune/tuner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "src/graph/networks.h"
#include "src/support/logging.h"
#include "src/support/string_util.h"
#include "src/support/trace.h"

namespace alt::autotune {

using graph::Graph;
using graph::LayoutAssignment;
using graph::Op;
using graph::OpKind;
using loop::FusedGroup;
using loop::LoopSchedule;

namespace {

MeasureEngineConfig EngineConfig(const TuningOptions& options) {
  MeasureEngineConfig c;
  c.threads = options.measure_threads;
  c.cache_enabled = options.measure_cache;
  c.faults = options.fault_injection;
  c.retry = options.measure_retry;
  c.replay = options.measure_replay;
  c.isolate.enabled = options.isolate_measurement;
  c.isolate.workers = options.measure_workers;
  c.isolate.deadline_ms = options.measure_deadline_ms;
  c.isolate.faults = options.worker_faults;
  c.database = options.measure_database;
  if (options.event_sink != nullptr) {
    TuningEventSink* sink = options.event_sink;
    c.on_measured = [sink](const std::string& key, const MeasureResult& result) {
      sink->OnMeasured(key, result);
    };
  }
  return c;
}

// Owns the tracing session of one Tune() run when trace_path is set: starts
// the global recorder on construction, stops it and writes the Chrome trace
// on destruction — error returns included. A failed write only costs the
// trace, never the tuning result.
class TraceSessionGuard {
 public:
  explicit TraceSessionGuard(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) {
      TraceRecorder::Global().Start();
    }
  }
  ~TraceSessionGuard() {
    if (path_.empty()) {
      return;
    }
    Status s = TraceRecorder::Global().StopAndWriteChromeTrace(path_);
    if (!s.ok()) {
      ALT_LOG(Warning) << "failed to write tuning trace " << path_ << ": " << s.message();
    } else {
      ALT_LOG(Info) << "wrote tuning trace to " << path_;
    }
  }

  TraceSessionGuard(const TraceSessionGuard&) = delete;
  TraceSessionGuard& operator=(const TraceSessionGuard&) = delete;

 private:
  std::string path_;
};

}  // namespace

JointTuner::JointTuner(const Graph& graph, const sim::Machine& machine, TuningOptions options)
    : graph_(graph),
      machine_(machine),
      options_(options),
      engine_(machine, EngineConfig(options)),
      rng_(options.seed) {
  if (options_.tune_layout && options_.method != SearchMethod::kRandom) {
    PpoOptions ppo;
    layout_agent_ = std::make_unique<PpoAgent>(ppo, rng_);
    if (options_.method == SearchMethod::kPpoPretrained &&
        options_.pretrained_agent != nullptr && !options_.pretrained_agent->empty()) {
      layout_agent_->Restore(*options_.pretrained_agent);
    }
  }
}

void JointTuner::RecordMeasurement(double latency_us, bool complex_group) {
  ++measurements_;
  // The tuning curve tracks the best latency found for complex-operator
  // groups (simple groups like padding would otherwise pollute the minimum).
  if (complex_group) {
    best_total_us_ = std::min(best_total_us_, latency_us);
  }
  // Until the first successful complex-group measurement there is no best to
  // chart; appending would leak the kNoBest sentinel into history_us. The
  // curve simply starts at the first complex success.
  if (has_best()) {
    history_us_.push_back(best_total_us_);
  }
}

void JointTuner::BeginPhase(const char* phase) {
  TraceInstant("tuner.phase", phase);
  if (options_.event_sink != nullptr) {
    options_.event_sink->OnPhase(phase);
  }
}

MeasureResult JointTuner::MeasureGroup(const Graph& g, const LayoutAssignment& la,
                                       const FusedGroup& group, const LoopSchedule& sched) {
  return engine_.MeasureOne(g, la, group, sched);
}

std::vector<double> JointTuner::Features(const loop::LoopNestSignature& sig,
                                         const LoopSchedule& sched,
                                         const std::vector<double>& layout_state) const {
  std::vector<double> f;
  auto lg = [](double v) { return std::log1p(v); };
  double flops = 1.0;
  for (int64_t e : sig.spatial_extents) {
    flops *= static_cast<double>(e);
  }
  for (int64_t e : sig.reduction_extents) {
    flops *= static_cast<double>(e);
  }
  f.push_back(lg(flops));
  for (size_t j = 0; j < sched.spatial.size() && j < 7; ++j) {
    f.push_back(lg(sched.spatial[j].outer));
    f.push_back(lg(sched.spatial[j].mid));
    f.push_back(lg(sched.spatial[j].inner));
    f.push_back(lg(sched.spatial[j].vec));
  }
  for (size_t r = 0; r < sched.reduction.size() && r < 4; ++r) {
    f.push_back(lg(sched.reduction[r].outer));
    f.push_back(lg(sched.reduction[r].inner));
  }
  f.push_back(sched.parallel_axes);
  f.push_back(sched.inner_order_rotation);
  f.push_back(sched.unroll_inner_reduction ? 1.0 : 0.0);
  for (size_t i = 0; i < layout_state.size() && i < 12; ++i) {
    f.push_back(lg(std::abs(layout_state[i])));
  }
  f.resize(56, 0.0);
  return f;
}

void JointTuner::LoopTuneBatch(const Graph& g, const LayoutAssignment& la,
                               const FusedGroup& group,
                               const std::vector<double>& layout_state, LoopTuneState& state,
                               Rng& rng) {
  TraceSpan span("tuner.loop_batch");
  static Counter& batches = MetricsRegistry::Global().counter("tuner.loop_batches");
  batches.Add();
  auto sig_or = loop::GroupSignature(g, la, group);
  if (!sig_or.ok()) {
    return;
  }
  const auto& sig = *sig_or;

  // Sample a batch: random points plus random-walk neighbours of the best.
  std::vector<Point> batch;
  for (int i = 0; i < options_.batch_size; ++i) {
    if (!state.best_point.empty() && i % 2 == 1) {
      batch.push_back(NeighbourPoint(state.best_point, rng));
    } else {
      batch.push_back(RandomPoint(state.space.num_knobs(), rng));
    }
  }

  // Rank with the cost model; only the predicted top-k are measured.
  std::vector<std::pair<double, int>> ranked;
  {
    TraceSpan rank_span("tuner.rank");
    for (int i = 0; i < static_cast<int>(batch.size()); ++i) {
      double score = 0.0;
      if (options_.use_cost_model && cost_model_.trained()) {
        score = cost_model_.Predict(Features(sig, state.space.Decode(batch[i]), layout_state));
      } else {
        score = rng.NextDouble();
      }
      ranked.push_back({score, i});
    }
    std::sort(ranked.begin(), ranked.end());
  }
  int to_measure = options_.use_cost_model
                       ? std::min<int>(options_.top_k, ranked.size())
                       : static_cast<int>(ranked.size());

  // Lower + estimate the predicted top-k concurrently; the reduction below
  // walks results in rank order, so the trajectory (budget spend, cost-model
  // training set, best-so-far updates) is identical for any thread count.
  std::vector<LoopSchedule> scheds;
  scheds.reserve(to_measure);
  for (int r = 0; r < to_measure; ++r) {
    scheds.push_back(state.space.Decode(batch[ranked[r].second]));
  }
  auto results = engine_.Measure(g, la, group, scheds);
  const bool complex = graph::IsComplex(g.op(group.anchor_op).kind);
  for (int r = 0; r < to_measure; ++r) {
    const MeasureResult& res = results[r];
    if (!res.status.ok()) {
      continue;
    }
    if (!res.cache_hit) {
      // Cache hits are free: no budget spent, no duplicate training row.
      RecordMeasurement(res.latency_us, complex);
      train_x_.push_back(Features(sig, scheds[r], layout_state));
      train_y_.push_back(std::log1p(res.latency_us));
    }
    if (res.latency_us < state.best_latency) {
      state.best_latency = res.latency_us;
      state.best_point = batch[ranked[r].second];
      state.best_schedule = scheds[r];
    }
  }
  if (options_.use_cost_model && train_x_.size() >= 24 && train_x_.size() % 24 == 0) {
    TraceSpan fit_span("tuner.cost_model_fit");
    cost_model_.Fit(train_x_, train_y_);
  }
  if (options_.event_sink != nullptr) {
    // "No result yet" is reported as NaN, never as the internal sentinel.
    options_.event_sink->OnBatchDone(
        measurements_,
        has_best() ? best_total_us_ : std::numeric_limits<double>::quiet_NaN());
  }
}

namespace {

// Applies a decoded layout candidate to a trial assignment. Returns the extra
// conversion cost in microseconds (approximated during search; a real
// conversion op is only inserted when the winner is committed).
double ApplyCandidate(const Graph& g, const Op& op, const DecodedLayouts& decoded,
                      bool multi_hop, InputLayoutPolicy policy, const sim::Machine& machine,
                      LayoutAssignment& la) {
  la.Set(op.inputs[1], decoded.weight);  // constants transform offline
  double penalty = 0.0;
  int in_id = op.inputs[0];
  int producer = g.ProducerOf(in_id);
  bool producer_complex = producer >= 0 && graph::IsComplex(g.op(producer).kind);
  // A simple sole-consumer producer can be re-lowered to emit any layout,
  // including overwriting one assigned during initialization.
  bool producer_writes = producer >= 0 && !producer_complex &&
                         g.op(producer).kind != OpKind::kLayoutConvert &&
                         g.ConsumersOf(in_id).size() == 1;
  if (producer_complex && policy == InputLayoutPolicy::kInheritProducer) {
    // ALT-FP: read whatever layout the producer already emits.
  } else if (producer_complex && policy == InputLayoutPolicy::kForceProducer) {
    la.Set(in_id, decoded.input);  // ALT-BP: override the producer's output
  } else if (g.IsConstant(in_id) || producer_writes) {
    la.Set(in_id, decoded.input);
  } else if (!graph::SameLayout(la.Get(in_id), decoded.input, g.tensor(in_id).shape)) {
    // Conversion operator cost: read + write of the physical tensor.
    auto phys = la.PhysicalShape(g, in_id);
    double bytes = 4.0;
    if (phys.ok()) {
      for (int64_t d : *phys) {
        bytes *= static_cast<double>(d);
      }
    }
    penalty = 2.0 * bytes / (machine.dram_bw_gbps * 1e3) + (machine.gpu_like ? 3.0 : 0.5);
    la.Set(in_id, decoded.input);  // trial: pretend converted
  }
  la.Set(op.output, decoded.output);
  if (multi_hop) {
    graph::PropagateOutputLayout(g, la, op.output, true, /*overwrite=*/true);
  }
  return penalty;
}

// Well-known layouts expressed inside the template space, assessed before RL
// exploration starts: the blocked NCHWc family (what NeoCPU/Ansor fix a
// priori) and the channels-last family. This guarantees the joint stage never
// does worse than the fixed-layout baselines it subsumes.
std::vector<DecodedLayouts> SeedLayouts(const Graph& g, const Op& op) {
  std::vector<DecodedLayouts> seeds;
  {
    DecodedLayouts canonical;  // empty sequences: NOHW / KN
    canonical.desc = "seed:canonical";
    seeds.push_back(std::move(canonical));
  }
  auto largest_divisor_leq = [](int64_t n, int64_t cap) {
    int64_t best = 1;
    for (int64_t d = 1; d <= std::min(n, cap); ++d) {
      if (n % d == 0) {
        best = d;
      }
    }
    return best;
  };
  auto finish = [&](StatusOr<ConvLayouts> layouts, const char* desc) {
    if (!layouts.ok()) {
      return;
    }
    DecodedLayouts d;
    d.output = layouts->output;
    d.input = layouts->input;
    d.weight = layouts->weight;
    d.state = RelationState(g, op, d);
    d.desc = desc;
    seeds.push_back(std::move(d));
  };
  if (op.kind == OpKind::kMatmul) {
    const auto& sa = g.tensor(op.inputs[0]).shape;
    const auto& sb = g.tensor(op.inputs[1]).shape;
    GmmLayoutParams params;
    params.mt = largest_divisor_leq(sa[0], 16);
    params.nt = largest_divisor_leq(sb[1], 16);
    params.kt = sa[1];
    auto layouts = MakeGmmTemplates(g, op, params);
    if (layouts.ok()) {
      DecodedLayouts d;
      d.output = layouts->c;
      d.input = layouts->a;
      d.weight = layouts->b;
      d.state = RelationState(g, op, d);
      d.desc = "seed:NKn16";
      seeds.push_back(std::move(d));
    }
    return seeds;
  }
  const auto& out_shape = g.tensor(op.output).shape;
  const auto& in_shape = g.tensor(op.inputs[0]).shape;
  const auto& w_shape = g.tensor(op.inputs[1]).shape;
  int sd = op.conv.spatial_dims;
  ConvLayoutParams blocked;
  for (int d = 0; d < sd; ++d) {
    blocked.spatial_tiles.push_back(out_shape[2 + d]);  // spatial untiled
  }
  blocked.out_tile = largest_divisor_leq(out_shape[1], 16);
  blocked.in_tile = largest_divisor_leq(in_shape[1], 16);
  blocked.w_in_tile = largest_divisor_leq(w_shape[1], 16);
  blocked.w_out_tile = largest_divisor_leq(w_shape[0], 16);
  finish(MakeConvTemplates(g, op, blocked), "seed:blocked16");

  ConvLayoutParams channels_last = blocked;
  channels_last.out_tile = out_shape[1];
  channels_last.in_tile = in_shape[1];
  channels_last.w_in_tile = w_shape[1];
  channels_last.w_out_tile = w_shape[0];
  finish(MakeConvTemplates(g, op, channels_last), "seed:channels_last");
  return seeds;
}

}  // namespace

StatusOr<std::optional<DecodedLayouts>> JointTuner::TuneOpLayout(int op_id,
                                                                 int op_budget) {
  TraceSpan span("tuner.tune_op_layout", "op=" + std::to_string(op_id));
  const Op& op = graph_.op(op_id);
  auto space_or = LayoutSpace::ForOp(graph_, op_id, options_.two_level_templates);
  if (!space_or.ok()) {
    return space_or.status();
  }
  const LayoutSpace& space = *space_or;

  double best_reward = -1e30;
  std::optional<DecodedLayouts> best_layouts;
  std::vector<double> agent_state;  // starts canonical (all zeros)

  // Briefly loop-tunes `group` under `la`, seeding with the heuristic
  // default schedule so a layout's reward reflects a competent loop nest.
  // The batch draws come from a generator seeded per candidate (from its
  // relation fingerprint), so the assessment is a deterministic function of
  // the layout relation rather than of the shared tuner RNG's position.
  auto assess = [&](const LayoutAssignment& la, const FusedGroup& group,
                    const std::vector<double>& layout_state, uint64_t candidate_seed,
                    std::optional<LoopSchedule>* schedule_out) -> double {
    auto sig = loop::GroupSignature(graph_, la, group);
    if (!sig.ok()) {
      return -1.0;
    }
    LoopTuneState loop_state;
    loop_state.space = LoopSpace::ForSignature(*sig, machine_, options_.restricted_loop_space);
    LoopSchedule def = LoopSpace::Default(*sig, machine_);
    MeasureResult def_res = MeasureGroup(graph_, la, group, def);
    if (def_res.status.ok()) {
      if (!def_res.cache_hit) {
        RecordMeasurement(def_res.latency_us, true);
      }
      loop_state.best_schedule = def;
      loop_state.best_latency = def_res.latency_us;
    }
    Rng candidate_rng(candidate_seed);
    for (int round = 0; round < options_.loop_rounds_per_layout; ++round) {
      LoopTuneBatch(graph_, la, group, layout_state, loop_state, candidate_rng);
    }
    if (schedule_out != nullptr) {
      *schedule_out = loop_state.best_schedule;
    }
    return loop_state.best_schedule.has_value() ? loop_state.best_latency : -1.0;
  };

  // Holds the best schedule found for the most recently evaluated candidate.
  std::optional<LoopSchedule> last_schedule_storage;
  std::optional<LoopSchedule>* last_schedule_ = &last_schedule_storage;

  // Evaluates a fully-decoded layout candidate: apply to a trial assignment,
  // rebuild the loop nest, loop-tune briefly, return latency (or -1).
  auto evaluate_candidate = [&](const DecodedLayouts& decoded,
                                uint64_t candidate_seed) -> double {
    LayoutAssignment trial = assignment_;
    double penalty = ApplyCandidate(graph_, op, decoded, options_.propagate_multi_hop,
                                    options_.input_policy, machine_, trial);
    auto groups = loop::PartitionGraph(graph_, trial, true);
    const FusedGroup* target = nullptr;
    for (const auto& grp : groups) {
      if (grp.anchor_op == op_id) {
        target = &grp;
      }
    }
    if (target == nullptr) {
      return -1.0;
    }
    double tuned = assess(trial, *target, decoded.state, candidate_seed, last_schedule_);
    return tuned < 0 ? -1.0 : tuned + penalty;
  };

  // Semantic dedup (layout/relation.h): candidates whose layout triples have
  // equal relation fingerprints denote the same physical layouts, so every
  // spelling after the first replays the recorded evaluation (latency,
  // schedule, and failure alike) and spends no measurement budget.
  struct CachedEval {
    double latency = -1.0;
    std::optional<LoopSchedule> schedule;
  };
  std::unordered_map<std::string, CachedEval> relation_cache;
  static Counter& enumerated =
      MetricsRegistry::Global().counter("layout.candidates_enumerated");
  static Counter& deduped = MetricsRegistry::Global().counter("layout.relation_dedup");

  auto evaluate_dedup = [&](const DecodedLayouts& decoded) -> double {
    enumerated.Add();
    // The key always exists when the relations are constructible: it both
    // addresses the replay cache and seeds the candidate's loop-tuning RNG,
    // so dedup on/off cannot change which schedules a candidate explores.
    std::string key = RelationKey(graph_, op, decoded);
    if (options_.layout_relation_dedup && !key.empty()) {
      auto it = relation_cache.find(key);
      if (it != relation_cache.end()) {
        deduped.Add();
        *last_schedule_ = it->second.schedule;
        return it->second.latency;
      }
    }
    uint64_t candidate_seed =
        options_.seed ^
        (std::hash<std::string>{}(key.empty() ? decoded.desc : key) | 1ull);
    double latency = evaluate_candidate(decoded, candidate_seed);
    if (!key.empty()) {
      relation_cache.emplace(std::move(key), CachedEval{latency, *last_schedule_});
    }
    return latency;
  };

  auto consider = [&](const DecodedLayouts& decoded, double latency) {
    double reward = -std::log1p(latency);  // Eq. (3) with U = 0, log-scaled
    if (reward > best_reward) {
      best_reward = reward;
      best_layouts = decoded;
      agent_state = decoded.state;
      if (last_schedule_ != nullptr && last_schedule_->has_value()) {
        joint_best_schedules_[op_id] = **last_schedule_;
      }
    }
    return reward;
  };

  int spent_start = measurements_;
  int failed_attempts = 0;
  // With the measurement cache on, an agent that keeps re-proposing already-
  // cached layouts spends no budget; the streak counter keeps that from
  // spinning forever. (Cache off: every successful evaluation spends budget,
  // so the streak never grows and historical behavior is unchanged.)
  int zero_spend_streak = 0;

  // Known-good template instances first (see SeedLayouts).
  for (const auto& seed :
       options_.seed_layout_candidates ? SeedLayouts(graph_, op)
                                       : std::vector<DecodedLayouts>{}) {
    if (measurements_ - spent_start >= op_budget) {
      break;
    }
    double latency = evaluate_dedup(seed);
    if (latency > 0) {
      consider(seed, latency);
    }
  }

  while (measurements_ - spent_start < op_budget && failed_attempts < 4 * op_budget + 32 &&
         zero_spend_streak < 64) {
    int spent_before = measurements_;
    Point point;
    if (layout_agent_ != nullptr) {
      auto action = layout_agent_->Act(agent_state);
      point.assign(action.begin(), action.begin() + std::min<size_t>(action.size(),
                                                                     space.num_knobs()));
      point.resize(space.num_knobs(), 0.5);
    } else {
      point = RandomPoint(space.num_knobs(), rng_);
    }
    auto decoded = space.Decode(graph_, point);
    if (!decoded.ok()) {
      ++failed_attempts;
      if (layout_agent_ != nullptr) {
        layout_agent_->Reward(-10.0);
      }
      continue;
    }
    double latency = evaluate_dedup(*decoded);
    if (latency < 0) {
      ++failed_attempts;
      if (layout_agent_ != nullptr) {
        layout_agent_->Reward(-10.0);
      }
      continue;
    }
    double reward = consider(*decoded, latency);
    if (layout_agent_ != nullptr) {
      layout_agent_->Reward(reward);
    }
    zero_spend_streak = measurements_ == spent_before ? zero_spend_streak + 1 : 0;
  }

  return best_layouts;
}

void JointTuner::CommitLayouts(int op_id, const DecodedLayouts& layouts) {
  // Commit: weight offline, input via the real propagation machinery (may
  // insert a conversion op), output propagated per variant. Cache ids first:
  // RequestInputLayout can append ops, invalidating references into ops_.
  int weight_id = graph_.op(op_id).inputs[1];
  int in_id = graph_.op(op_id).inputs[0];
  int out_id = graph_.op(op_id).output;
  assignment_.Set(weight_id, layouts.weight);
  int producer = graph_.ProducerOf(in_id);
  bool producer_complex = producer >= 0 && graph::IsComplex(graph_.op(producer).kind);
  if (producer_complex && options_.input_policy == InputLayoutPolicy::kInheritProducer) {
    // ALT-FP: no request; the consumer reads the producer's layout.
  } else if (producer_complex && options_.input_policy == InputLayoutPolicy::kForceProducer) {
    assignment_.Set(in_id, layouts.input);  // ALT-BP override
  } else {
    graph::RequestInputLayout(graph_, assignment_, op_id, 0, layouts.input);
  }
  assignment_.Set(out_id, layouts.output);
  graph::PropagateOutputLayout(graph_, assignment_, out_id, options_.propagate_multi_hop,
                               /*overwrite=*/true);
  if (options_.event_sink != nullptr) {
    auto sched_it = joint_best_schedules_.find(op_id);
    options_.event_sink->OnLayoutCommitted(
        op_id, layouts,
        sched_it == joint_best_schedules_.end() ? nullptr : &sched_it->second);
  }
}

StatusOr<CompiledNetwork> JointTuner::Tune() {
  // Session-scoped telemetry: the trace guard owns the recorder (and writes
  // the file on any exit path); the metrics snapshot anchors the per-run
  // delta attached to the result.
  TraceSessionGuard trace_session(options_.trace_path);
  const MetricsSnapshot metrics_start = MetricsRegistry::Global().Snapshot();
  TraceSpan tune_span("tuner.tune");

  if (!options_.tune_layout && options_.initial_assignment != nullptr) {
    assignment_ = *options_.initial_assignment;
  }
  // Initialize every conv with the fixed layout family. For loop-only
  // baselines (ALT-OL / Ansor) these layouts are final; for full ALT they are
  // the starting point the joint stage improves on — ALT's template space is
  // a superset of them, so ALT never starts worse than ALT-OL.
  if (options_.initial_assignment == nullptr &&
      options_.fixed_layout != FixedLayout::kCanonical) {
    for (int op_id : graph_.ComplexOps()) {
      // Cache what we need: RequestInputLayout below can append ops and
      // invalidate references into the op vector.
      const Op op = graph_.op(op_id);
      if (op.kind == OpKind::kMatmul) {
        continue;  // KN default
      }
      int sd = op.conv.spatial_dims;
      layout::LayoutSeq out_seq;
      layout::LayoutSeq in_seq;
      if (options_.fixed_layout == FixedLayout::kChannelsLast) {
        out_seq = ChannelsLast(sd);
        in_seq = ChannelsLast(sd);
      } else {
        auto blocked_out = BlockedChannels(graph_.tensor(op.output).shape,
                                           std::min<int64_t>(16, graph_.tensor(op.output)
                                                                     .shape[1]));
        auto blocked_in = BlockedChannels(graph_.tensor(op.inputs[0]).shape,
                                          std::min<int64_t>(16, graph_.tensor(op.inputs[0])
                                                                    .shape[1]));
        if (!blocked_out.ok() || !blocked_in.ok()) {
          continue;
        }
        out_seq = *blocked_out;
        in_seq = *blocked_in;
      }
      assignment_.Set(op.output, out_seq);
      graph::RequestInputLayout(graph_, assignment_, op_id, 0, in_seq);
      graph::PropagateOutputLayout(graph_, assignment_, op.output, true);
    }
  }

  // --- joint stage ---
  BeginPhase("joint");
  if (options_.tune_layout) {
    TraceSpan joint_span("tuner.joint_stage");
    auto complex_ops = graph_.ComplexOps();
    if (options_.reverse_op_order) {
      std::reverse(complex_ops.begin(), complex_ops.end());
    }
    // Deduplicate ops by workload signature: operators with identical shapes
    // and attributes share one tuning task (our stand-in for the paper's much
    // larger per-op budgets), and the winning layouts apply to every member.
    std::vector<std::pair<std::string, std::vector<int>>> classes;
    for (int op_id : complex_ops) {
      const Op& op = graph_.op(op_id);
      std::ostringstream key;
      key << static_cast<int>(op.kind) << "|"
          << ir::ShapeToString(graph_.tensor(op.inputs[0]).shape) << "|"
          << ir::ShapeToString(graph_.tensor(op.inputs[1]).shape) << "|" << op.conv.groups
          << "|" << op.conv.stride[0] << "|" << op.conv.dilation[0];
      bool found = false;
      for (auto& [k, members] : classes) {
        if (k == key.str()) {
          members.push_back(op_id);
          found = true;
        }
      }
      if (!found) {
        classes.push_back({key.str(), {op_id}});
      }
    }
    int joint_budget = static_cast<int>(options_.total_budget * options_.joint_fraction);
    if (!classes.empty() && joint_budget > 0) {
      int per_class = std::max(joint_budget / static_cast<int>(classes.size()),
                               3 * (options_.top_k + 1));
      for (const auto& [key, members] : classes) {
        if (measurements_ >= joint_budget) {
          break;
        }
        auto best = TuneOpLayout(members[0],
                                 std::min(per_class, joint_budget - measurements_));
        if (!best.ok()) {
          return best.status();
        }
        if (!best->has_value()) {
          continue;
        }
        auto rep_schedule = joint_best_schedules_.find(members[0]);
        for (int member : members) {
          CommitLayouts(member, **best);
          if (member != members[0] && rep_schedule != joint_best_schedules_.end()) {
            joint_best_schedules_[member] = rep_schedule->second;
          }
        }
      }
    }
  }

  // --- loop-only stage ---
  BeginPhase("loop");
  std::optional<TraceSpan> loop_span;
  loop_span.emplace("tuner.loop_stage");
  auto groups = loop::PartitionGraph(graph_, assignment_, true);
  std::vector<LoopTuneState> states(groups.size());
  std::vector<loop::LoopNestSignature> sigs(groups.size());
  std::vector<bool> tunable(groups.size(), false);
  std::vector<double> weight(groups.size(), 0.0);

  for (size_t i = 0; i < groups.size(); ++i) {
    const Op& anchor = graph_.op(groups[i].anchor_op);
    auto sig = loop::GroupSignature(graph_, assignment_, groups[i]);
    if (!sig.ok()) {
      continue;
    }
    sigs[i] = *sig;
    if (anchor.kind == OpKind::kSoftmax || anchor.kind == OpKind::kLayerNorm) {
      continue;  // fixed lowering
    }
    tunable[i] = true;
    states[i].space =
        LoopSpace::ForSignature(sigs[i], machine_, options_.restricted_loop_space);
    // Seed with the heuristic default and, for complex groups, the best
    // schedule the joint stage found for the committed layout.
    LoopSchedule def = LoopSpace::Default(sigs[i], machine_);
    MeasureResult def_res = MeasureGroup(graph_, assignment_, groups[i], def);
    if (def_res.status.ok()) {
      if (!def_res.cache_hit) {
        RecordMeasurement(def_res.latency_us, graph::IsComplex(anchor.kind));
      }
      states[i].best_schedule = def;
      states[i].best_latency = def_res.latency_us;
      weight[i] = def_res.latency_us;
    }
    auto joint_it = joint_best_schedules_.find(groups[i].anchor_op);
    if (joint_it != joint_best_schedules_.end()) {
      MeasureResult jres = MeasureGroup(graph_, assignment_, groups[i], joint_it->second);
      if (jres.status.ok()) {
        if (!jres.cache_hit) {
          RecordMeasurement(jres.latency_us, true);
        }
        if (jres.latency_us < states[i].best_latency) {
          states[i].best_schedule = joint_it->second;
          states[i].best_latency = jres.latency_us;
          weight[i] = jres.latency_us;
        }
      }
    }
  }

  double total_weight = 0.0;
  for (double w : weight) {
    total_weight += w;
  }
  int remaining = options_.total_budget - measurements_;
  if (remaining > 0 && total_weight > 0) {
    for (size_t i = 0; i < groups.size(); ++i) {
      if (!tunable[i]) {
        continue;
      }
      int share = static_cast<int>(remaining * weight[i] / total_weight);
      int spent_start = measurements_;
      int stalls = 0;
      while (measurements_ - spent_start < share && stalls < 16) {
        int before = measurements_;
        LoopTuneBatch(graph_, assignment_, groups[i], {}, states[i], rng_);
        stalls = measurements_ == before ? stalls + 1 : 0;
      }
    }
  }

  loop_span.reset();

  // --- final lowering ---
  BeginPhase("lower");
  TraceSpan lowering_span("tuner.lowering");
  CompiledNetwork result;
  result.graph = graph_;
  result.assignment = assignment_;
  result.groups = groups;
  for (size_t i = 0; i < groups.size(); ++i) {
    StatusOr<ir::Program> program = Status::Ok();
    if (tunable[i] && states[i].best_schedule.has_value()) {
      result.schedules.push_back(*states[i].best_schedule);
      program = loop::LowerGroup(graph_, assignment_, groups[i], *states[i].best_schedule);
    } else {
      result.schedules.push_back(
          LoopSchedule::Naive(sigs[i].spatial_extents, sigs[i].reduction_extents));
      program = loop::LowerGroupNaive(graph_, assignment_, groups[i]);
    }
    if (!program.ok()) {
      return program.status();
    }
    result.programs.push_back(std::move(*program));
  }
  result.perf = sim::EstimatePrograms(result.programs, machine_);
  result.measurements_used = measurements_;
  result.history_us = history_us_;
  result.measure_stats = engine_.stats();
  result.metrics = MetricsRegistry::Global().Snapshot().DeltaSince(metrics_start);
  const MeasureStats& ms = result.measure_stats;
  ALT_LOG(Info) << "measure engine: " << ms.requested << " candidates, " << ms.measured
                << " measured, " << ms.cache_hits << " cache hits, " << ms.replayed
                << " replayed, " << ms.db_hits << " db hits, " << ms.failed << " failed, "
                << ms.retries << " retries, " << ms.quarantined << " quarantined, "
                << ms.worker_restarts << " worker restarts, wall "
                << FormatMicros(ms.wall_ms * 1e3)
                << " (" << engine_.threads() << " thread(s), cache "
                << (engine_.cache_enabled() ? "on" : "off") << ")";
  return result;
}

std::vector<double> PretrainLayoutAgent(const sim::Machine& machine, uint64_t seed,
                                        int budget) {
  // Optimize a couple of C2D and GMM workloads with a fresh PPO agent (the
  // paper pretrains on C2D and GMM with recommended hyper-parameters, §6).
  Rng rng(seed);
  PpoOptions ppo;
  ppo.batch_before_update = 8;
  PpoAgent agent(ppo, rng);

  struct Workload {
    graph::Graph g;
    int op_id;
  };
  std::vector<Workload> workloads;
  {
    graph::ConvConfig cfg;
    cfg.in_channels = 16;
    cfg.out_channels = 32;
    cfg.spatial[0] = cfg.spatial[1] = 28;
    cfg.kernel[0] = cfg.kernel[1] = 3;
    cfg.pad = 0;
    graph::Graph g = graph::BuildSingleConv(graph::OpKind::kConv2d, cfg);
    workloads.push_back({std::move(g), 0});
  }
  {
    graph::Graph g = graph::BuildSingleMatmul(128, 64, 128);
    workloads.push_back({std::move(g), 0});
  }

  for (int step = 0; step < budget; ++step) {
    Workload& wl = workloads[step % workloads.size()];
    auto space = LayoutSpace::ForOp(wl.g, wl.op_id, false);
    if (!space.ok()) {
      continue;
    }
    auto action = agent.Act({});
    Point point(action.begin(), action.begin() + std::min<size_t>(action.size(),
                                                                  space->num_knobs()));
    point.resize(space->num_knobs(), 0.5);
    auto decoded = space->Decode(wl.g, point);
    if (!decoded.ok()) {
      agent.Reward(-10.0);
      continue;
    }
    graph::LayoutAssignment la;
    const Op& op = wl.g.op(wl.op_id);
    la.Set(op.output, decoded->output);
    la.Set(op.inputs[0], decoded->input);
    la.Set(op.inputs[1], decoded->weight);
    auto groups = loop::PartitionGraph(wl.g, la, true);
    auto sig = loop::GroupSignature(wl.g, la, groups[0]);
    if (!sig.ok()) {
      agent.Reward(-10.0);
      continue;
    }
    auto sched = LoopSpace::Default(*sig, machine);
    auto program = loop::LowerGroup(wl.g, la, groups[0], sched);
    if (!program.ok()) {
      agent.Reward(-10.0);
      continue;
    }
    double latency = sim::EstimateProgram(*program, machine).latency_us;
    agent.Reward(-std::log1p(latency));
  }
  return agent.Snapshot();
}

}  // namespace alt::autotune
