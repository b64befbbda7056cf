// Tests for the auto-tuning stack: GBT cost model, PPO agent, search spaces,
// and the joint tuner (including the headline property that joint layout +
// loop tuning beats loop-only tuning).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/autotune/gbt.h"
#include "src/autotune/ppo.h"
#include "src/autotune/space.h"
#include "src/autotune/tuner.h"
#include "src/baselines/baselines.h"
#include "src/core/alt.h"
#include "src/graph/networks.h"
#include "src/runtime/session.h"
#include "src/support/fileio.h"
#include "src/support/trace.h"

namespace alt {
namespace {

using autotune::Point;

TEST(Gbt, FitsSimpleFunction) {
  // y = 3*x0 + noise-free step on x1.
  Rng rng(3);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    double a = rng.NextDouble();
    double b = rng.NextDouble();
    x.push_back({a, b});
    y.push_back(3.0 * a + (b > 0.5 ? 1.0 : 0.0));
  }
  autotune::GradientBoostedTrees gbt;
  gbt.Fit(x, y);
  double err = 0.0;
  for (int i = 0; i < 200; ++i) {
    err += std::abs(gbt.Predict(x[i]) - y[i]);
  }
  EXPECT_LT(err / 200, 0.15);
}

TEST(Gbt, RanksMonotoneData) {
  // The cost model's job is ranking; check order preservation.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    x.push_back({static_cast<double>(i)});
    y.push_back(static_cast<double>(i) * 2.0);
  }
  autotune::GradientBoostedTrees gbt;
  gbt.Fit(x, y);
  EXPECT_LT(gbt.Predict({10.0}), gbt.Predict({80.0}));
}

// Reference fit for the differential test below: the exact greedy split
// finder that rebuilds and sorts (value, residual) pairs for every feature at
// every node. GradientBoostedTrees presorts instead and must reproduce these
// trees bit for bit.
class ReferenceGbt {
 public:
  explicit ReferenceGbt(autotune::GbtOptions options) : options_(options) {}

  void Fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y) {
    trees_.clear();
    base_ = std::accumulate(y.begin(), y.end(), 0.0) / y.size();
    std::vector<double> pred(y.size(), base_);
    for (int t = 0; t < options_.num_trees; ++t) {
      std::vector<double> residual(y.size());
      for (size_t i = 0; i < y.size(); ++i) {
        residual[i] = y[i] - pred[i];
      }
      Tree tree;
      tree.push_back(Node{});
      std::vector<int> indices(x.size());
      std::iota(indices.begin(), indices.end(), 0);
      Split(tree, 0, x, residual, indices, 0, static_cast<int>(x.size()), 0);
      for (size_t i = 0; i < y.size(); ++i) {
        pred[i] += options_.learning_rate * PredictTree(tree, x[i]);
      }
      trees_.push_back(std::move(tree));
    }
  }

  double Predict(const std::vector<double>& x) const {
    double out = base_;
    for (const auto& tree : trees_) {
      out += options_.learning_rate * PredictTree(tree, x);
    }
    return out;
  }

 private:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    double value = 0.0;
    int left = -1;
    int right = -1;
  };
  using Tree = std::vector<Node>;

  static double PredictTree(const Tree& tree, const std::vector<double>& x) {
    int node = 0;
    while (tree[node].feature >= 0) {
      const Node& n = tree[node];
      double v = n.feature < static_cast<int>(x.size()) ? x[n.feature] : 0.0;
      node = v <= n.threshold ? n.left : n.right;
    }
    return tree[node].value;
  }

  void Split(Tree& tree, int node_id, const std::vector<std::vector<double>>& x,
             const std::vector<double>& residual, std::vector<int>& indices, int begin, int end,
             int depth) {
    int count = end - begin;
    double sum = 0.0;
    for (int i = begin; i < end; ++i) {
      sum += residual[indices[i]];
    }
    tree[node_id].value = count > 0 ? sum / count : 0.0;
    if (depth >= options_.max_depth || count < 2 * options_.min_samples_leaf) {
      return;
    }
    double best_gain = 1e-12;
    int best_feature = -1;
    double best_threshold = 0.0;
    std::vector<std::pair<double, double>> vals(count);  // (feature value, residual)
    for (int f = 0; f < static_cast<int>(x[0].size()); ++f) {
      for (int i = 0; i < count; ++i) {
        int idx = indices[begin + i];
        vals[i] = {x[idx][f], residual[idx]};
      }
      std::sort(vals.begin(), vals.end());
      double left_sum = 0.0;
      for (int i = 0; i + 1 < count; ++i) {
        left_sum += vals[i].second;
        if (vals[i].first == vals[i + 1].first) {
          continue;
        }
        int nl = i + 1;
        int nr = count - nl;
        if (nl < options_.min_samples_leaf || nr < options_.min_samples_leaf) {
          continue;
        }
        double right_sum = sum - left_sum;
        double gain = left_sum * left_sum / nl + right_sum * right_sum / nr - sum * sum / count;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = f;
          best_threshold = 0.5 * (vals[i].first + vals[i + 1].first);
        }
      }
    }
    if (best_feature < 0) {
      return;
    }
    auto mid_it = std::partition(indices.begin() + begin, indices.begin() + end,
                                 [&](int idx) { return x[idx][best_feature] <= best_threshold; });
    int mid = static_cast<int>(mid_it - indices.begin());
    if (mid == begin || mid == end) {
      return;
    }
    tree[node_id].feature = best_feature;
    tree[node_id].threshold = best_threshold;
    int left = static_cast<int>(tree.size());
    tree.push_back(Node{});
    int right = static_cast<int>(tree.size());
    tree.push_back(Node{});
    tree[node_id].left = left;
    tree[node_id].right = right;
    Split(tree, left, x, residual, indices, begin, mid, depth + 1);
    Split(tree, right, x, residual, indices, mid, end, depth + 1);
  }

  autotune::GbtOptions options_;
  double base_ = 0.0;
  std::vector<Tree> trees_;
};

// A tuner-shaped training set: 56 columns mixing discrete log-tile values
// (long tie runs), continuous values, signed zeros, all-constant and
// zero-padding columns, with duplicated rows and targets from a small
// discrete set (equal, zero and negative residuals).
void MakeGbtCorpus(uint64_t seed, int n, std::vector<std::vector<double>>& x,
                   std::vector<double>& y) {
  Rng rng(seed);
  const int kWidth = 56;
  x.assign(n, std::vector<double>(kWidth, 0.0));
  y.assign(n, 0.0);
  const bool discrete_targets = seed % 3 == 0;
  const bool constant_targets = seed % 11 == 5;
  for (int i = 0; i < n; ++i) {
    if (i > 0 && rng.NextDouble() < 0.15) {
      int src = static_cast<int>(rng.NextBelow(i));
      x[i] = x[src];
      y[i] = y[src];
      continue;
    }
    std::vector<double>& row = x[i];
    for (int f = 0; f < 40; ++f) {
      switch (f % 5) {
        case 0:
        case 1:  // log2 of a power-of-two tile in [1, 64]
          row[f] = static_cast<double>(rng.NextBelow(7));
          break;
        case 2:  // a boolean knob
          row[f] = rng.NextDouble() < 0.3 ? 1.0 : 0.0;
          break;
        case 3:  // continuous
          row[f] = rng.NextDouble() * 10.0 - 5.0;
          break;
        default:  // signed zeros tie with each other
          row[f] = rng.NextDouble() < 0.5 ? (rng.NextDouble() < 0.5 ? -0.0 : 0.0) : 2.0;
          break;
      }
    }
    for (int f = 40; f < 44; ++f) {
      row[f] = 3.5;  // constant, nonzero
    }
    // Columns 44..55 stay zero padding.
    if (constant_targets) {
      y[i] = 1.25;
    } else if (discrete_targets) {
      y[i] = static_cast<double>(static_cast<int>(row[0]) % 3) - 1.0;
    } else {
      y[i] = 0.7 * row[0] - 0.4 * row[5] + row[3] * row[2] + 0.1 * rng.NextDouble();
    }
  }
}

TEST(Gbt, PresortedFitMatchesReferenceBitForBit) {
  const int kSizes[] = {7, 8, 9, 24, 25, 31, 48, 96, 240, 480};
  const autotune::GbtOptions kOptions[] = {
      {},                       // the tuner's cost model
      {12, 6, 0.5, 1},          // deep trees, singleton leaves
      {10, 3, 0.3, 12},         // n near 2 * min_samples_leaf at the root
  };
  int checked = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (int n : kSizes) {
      if (n >= 240 && seed > 2) {
        continue;  // the reference is slow; two seeds cover the large sizes
      }
      for (const autotune::GbtOptions& options : kOptions) {
        std::vector<std::vector<double>> x;
        std::vector<double> y;
        MakeGbtCorpus(seed * 1000 + n, n, x, y);
        autotune::GradientBoostedTrees gbt(options);
        ReferenceGbt reference(options);
        gbt.Fit(x, y);
        reference.Fit(x, y);
        // Training rows, plus probes that land on and between thresholds.
        std::vector<std::vector<double>> probes = x;
        std::vector<std::vector<double>> extra;
        std::vector<double> unused;
        MakeGbtCorpus(seed * 7919 + n, 16, extra, unused);
        probes.insert(probes.end(), extra.begin(), extra.end());
        for (const auto& probe : probes) {
          double got = gbt.Predict(probe);
          double want = reference.Predict(probe);
          ASSERT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
              << "seed " << seed << " n " << n << " depth " << options.max_depth << ": " << got
              << " vs " << want;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 5000);
}

TEST(Gbt, RejectsRaggedRows) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  std::vector<std::vector<double>> x = {{1.0, 2.0}, {3.0}, {5.0, 6.0}};
  std::vector<double> y = {1.0, 2.0, 3.0};
  autotune::GradientBoostedTrees gbt;
  EXPECT_DEATH(gbt.Fit(x, y), "GBT row 1 has 1 features, row 0 has 2");
}

TEST(Ppo, LearnsBanditTarget) {
  // Reward peaks when action[0] is near 0.8: the agent should move there.
  Rng rng(11);
  autotune::PpoOptions options;
  options.batch_before_update = 8;
  options.action_dim = 2;
  options.log_std = -1.2;  // low noise so the mean shift dominates the reward
  autotune::PpoAgent agent(options, rng);
  double early = 0.0;
  double late = 0.0;
  const int steps = 600;
  for (int i = 0; i < steps; ++i) {
    auto a = agent.Act({});
    double reward = -std::abs(a[0] - 0.8);
    agent.Reward(reward);
    if (i < 100) {
      early += reward;
    }
    if (i >= steps - 100) {
      late += reward;
    }
  }
  EXPECT_GT(late / 100, early / 100 + 0.02);
}

TEST(LayoutSpaceTest, DecodeProducesValidTemplates) {
  graph::ConvConfig cfg;
  cfg.in_channels = 16;
  cfg.out_channels = 32;
  cfg.spatial[0] = cfg.spatial[1] = 24;
  cfg.kernel[0] = cfg.kernel[1] = 3;
  cfg.pad = 0;
  graph::Graph g = graph::BuildSingleConv(graph::OpKind::kConv2d, cfg);
  auto space = autotune::LayoutSpace::ForOp(g, 0, false);
  ASSERT_TRUE(space.ok());
  EXPECT_GE(space->num_knobs(), 6);  // paper: six tunable parameters for C2D
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    Point p = autotune::RandomPoint(space->num_knobs(), rng);
    auto decoded = space->Decode(g, p);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    // Shapes must transform cleanly.
    std::vector<int64_t> shape = g.tensor(g.op(0).output).shape;
    EXPECT_TRUE(decoded->output.ApplyToShape(shape).ok());
  }
}

TEST(LayoutSpaceTest, GmmSpaceSmallerThanConv) {
  graph::Graph gm = graph::BuildSingleMatmul(64, 64, 64);
  auto gmm_space = autotune::LayoutSpace::ForOp(gm, 0, false);
  ASSERT_TRUE(gmm_space.ok());
  EXPECT_EQ(gmm_space->num_knobs(), 3);  // mt, kt, nt as in §5.1
}

TEST(LoopSpaceTest, DecodeAlwaysValid) {
  loop::LoopNestSignature sig;
  sig.spatial_extents = {2, 36, 24, 64};
  sig.reduction_extents = {16, 3, 3};
  auto space = autotune::LoopSpace::ForSignature(sig, sim::Machine::IntelCpu());
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    Point p = autotune::RandomPoint(space.num_knobs(), rng);
    loop::LoopSchedule s = space.Decode(p);
    ASSERT_EQ(s.spatial.size(), 4u);
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(s.spatial[j].outer * s.spatial[j].mid * s.spatial[j].inner * s.spatial[j].vec,
                sig.spatial_extents[j]);
    }
    for (size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(s.reduction[r].outer * s.reduction[r].inner, sig.reduction_extents[r]);
    }
  }
}

TEST(LoopSpaceTest, RestrictedSpaceIsSmaller) {
  loop::LoopNestSignature sig;
  sig.spatial_extents = {4, 32, 32, 32};
  sig.reduction_extents = {64};
  auto full = autotune::LoopSpace::ForSignature(sig, sim::Machine::IntelCpu(), false);
  auto restricted = autotune::LoopSpace::ForSignature(sig, sim::Machine::IntelCpu(), true);
  EXPECT_LT(restricted.NumPoints(), full.NumPoints());
}

// ---------------------------------------------------------------------------
// Joint tuner end-to-end.
// ---------------------------------------------------------------------------

graph::Graph SmallConvGraph() {
  graph::Graph g("tune_target");
  int x = g.AddInput("x", {1, 16, 28, 28});
  graph::PadAttrs pad;
  pad.before = {0, 0, 1, 1};
  pad.after = {0, 0, 1, 1};
  int p = g.AddPad(x, pad, "pad");
  int w = g.AddConstant("w", {32, 16, 3, 3});
  graph::ConvAttrs attrs;
  int c = g.AddConv(graph::OpKind::kConv2d, p, w, attrs, "conv");
  int b = g.AddConstant("b", {32});
  int biased = g.AddBiasAdd(c, b, 1, "bias");
  g.AddRelu(biased, "relu");
  return g;
}

TEST(JointTuner, TunedBeatsDefaultSchedules) {
  graph::Graph g = SmallConvGraph();
  const auto& machine = sim::Machine::IntelCpu();

  auto vendor = baselines::RunBaseline(baselines::BaselineKind::kVendor, g, machine, 0);
  ASSERT_TRUE(vendor.ok()) << vendor.status().ToString();

  core::AltOptions options;
  options.budget = 200;
  options.method = autotune::SearchMethod::kRandom;  // deterministic-ish, fast
  auto tuned = core::Compile(g, machine, options);
  ASSERT_TRUE(tuned.ok()) << tuned.status().ToString();

  EXPECT_LT(tuned->perf.latency_us, vendor->perf.latency_us * 1.05);
  EXPECT_GT(tuned->measurements_used, 50);
}

TEST(JointTuner, JointBeatsLoopOnly) {
  // The headline claim: joint layout+loop tuning finds faster programs than
  // loop-only tuning with the same budget.
  graph::Graph g = SmallConvGraph();
  const auto& machine = sim::Machine::IntelCpu();

  core::AltOptions full;
  full.budget = 240;
  full.method = autotune::SearchMethod::kRandom;
  full.seed = 3;
  auto alt = core::Compile(g, machine, full);
  ASSERT_TRUE(alt.ok());

  core::AltOptions ol = full;
  ol.variant = core::AltVariant::kLoopOnly;
  auto alt_ol = core::Compile(g, machine, ol);
  ASSERT_TRUE(alt_ol.ok());

  EXPECT_LE(alt->perf.latency_us, alt_ol->perf.latency_us * 1.10);
}

TEST(JointTuner, HistoryIsSentinelFreeAndMonotoneNonIncreasing) {
  graph::Graph g = SmallConvGraph();
  core::AltOptions options;
  options.budget = 120;
  options.method = autotune::SearchMethod::kRandom;
  auto result = core::Compile(g, sim::Machine::ArmCpu(), options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->history_us.empty());
  for (size_t i = 0; i < result->history_us.size(); ++i) {
    // The curve starts at the first successful measurement: every entry is a
    // real latency, never the tuner's internal "no best yet" sentinel.
    EXPECT_LT(result->history_us[i], 1e29) << "sentinel leaked at " << i;
    EXPECT_GT(result->history_us[i], 0.0);
    if (i > 0) {
      EXPECT_LE(result->history_us[i], result->history_us[i - 1]);
    }
  }
}

// Records everything the tuner announces through the event-sink interface.
struct RecordingSink : autotune::TuningEventSink {
  std::vector<std::string> phases;
  std::vector<double> batch_bests;
  void OnMeasured(const std::string&, const autotune::MeasureResult&) override {}
  void OnLayoutCommitted(int, const autotune::DecodedLayouts&,
                         const loop::LoopSchedule*) override {}
  void OnBatchDone(int, double best_us) override { batch_bests.push_back(best_us); }
  void OnPhase(const std::string& phase) override { phases.push_back(phase); }
};

TEST(JointTuner, SinkSeesOrderedPhasesAndNoSentinel) {
  graph::Graph g = SmallConvGraph();
  const auto& machine = sim::Machine::IntelCpu();
  core::AltOptions options;
  options.budget = 120;
  options.method = autotune::SearchMethod::kRandom;

  RecordingSink sink;
  autotune::TuningOptions tuning = core::ToTuningOptions(options, machine);
  tuning.event_sink = &sink;
  autotune::JointTuner tuner(g, machine, tuning);
  auto result = tuner.Tune();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(sink.phases, (std::vector<std::string>{"joint", "loop", "lower"}));
  ASSERT_FALSE(sink.batch_bests.empty());
  for (double best : sink.batch_bests) {
    // "No result yet" is NaN; anything else is a real latency. The 1e30
    // internal sentinel must never cross the sink interface.
    if (!std::isnan(best)) {
      EXPECT_LT(best, 1e29);
      EXPECT_GT(best, 0.0);
    }
  }
}

TEST(JointTuner, AllFailingMeasurementsReportNaNNeverSentinel) {
  // Every measurement attempt fails, so a best latency never exists: the
  // tuning curve must stay empty and every batch report NaN — the pre-fix
  // behavior pushed 1e30 into both.
  graph::Graph g = SmallConvGraph();
  const auto& machine = sim::Machine::IntelCpu();
  core::AltOptions options;
  options.budget = 60;
  options.method = autotune::SearchMethod::kRandom;
  options.fault.injection.always_fail_first = 1000;  // beyond any retry count
  options.fault.retry.max_attempts = 1;

  RecordingSink sink;
  autotune::TuningOptions tuning = core::ToTuningOptions(options, machine);
  tuning.event_sink = &sink;
  autotune::JointTuner tuner(g, machine, tuning);
  auto result = tuner.Tune();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_TRUE(result->history_us.empty());
  ASSERT_FALSE(sink.batch_bests.empty());
  for (double best : sink.batch_bests) {
    EXPECT_TRUE(std::isnan(best)) << "reported " << best << " with no successful measurement";
  }
}

TEST(JointTuner, TracedRunWritesChromeTraceAndMatchingMetrics) {
  graph::Graph g = SmallConvGraph();
  core::AltOptions options;
  options.budget = 120;
  options.method = autotune::SearchMethod::kRandom;
  const std::string trace_path = ::testing::TempDir() + "tuner_trace_test.json";
  RemoveFile(trace_path);
  options.trace.path = trace_path;

  auto result = core::Compile(g, sim::Machine::IntelCpu(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto trace = ReadFile(trace_path);
  ASSERT_TRUE(trace.ok()) << "trace file missing: " << trace.status().ToString();
  EXPECT_NE(trace->find("\"traceEvents\""), std::string::npos);
  for (const char* span : {"tuner.tune", "tuner.joint_stage", "tuner.loop_stage",
                           "measure.batch", "measure.candidate"}) {
    EXPECT_NE(trace->find(std::string("\"") + span + "\""), std::string::npos)
        << "trace is missing span " << span;
  }
  RemoveFile(trace_path);

  // The per-run metrics snapshot rides on the result and agrees with the
  // engine's counters.
  EXPECT_EQ(result->metrics.counter("measure.requested"), result->measure_stats.requested);
  EXPECT_EQ(result->metrics.counter("measure.measured"), result->measure_stats.measured);
  EXPECT_GT(result->metrics.counter("sim.estimate_program_calls"), 0);
  EXPECT_GT(result->metrics.counter("tuner.loop_batches"), 0);

  // The recorder is session-scoped: a later untraced compile records nothing.
  core::AltOptions untraced = options;
  untraced.trace.path.clear();
  auto again = core::Compile(g, sim::Machine::IntelCpu(), untraced);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(TraceRecorder::Global().enabled());
}

TEST(JointTuner, BudgetIsRespected) {
  graph::Graph g = SmallConvGraph();
  core::AltOptions options;
  options.budget = 100;
  options.method = autotune::SearchMethod::kRandom;
  auto result = core::Compile(g, sim::Machine::IntelCpu(), options);
  ASSERT_TRUE(result.ok());
  // Default-schedule seeding adds one measurement per group beyond the knob
  // budget; allow modest slack only.
  EXPECT_LE(result->measurements_used, options.budget + 24);
}

TEST(JointTuner, TunedNetworkStaysNumericallyCorrect) {
  graph::Graph g = SmallConvGraph();
  core::AltOptions options;
  options.budget = 80;
  options.method = autotune::SearchMethod::kRandom;
  auto result = core::Compile(g, sim::Machine::IntelCpu(), options);
  ASSERT_TRUE(result.ok());

  // Execute the tuned programs and compare against the reference on the
  // TUNED graph (which may contain conversion ops).
  Rng rng(21);
  runtime::TensorDataMap data;
  runtime::FillGraphInputs(result->graph, rng, data);
  loop::LoweredNetwork net;
  net.groups = result->groups;
  net.programs = result->programs;
  auto out = runtime::RunLoweredNetwork(result->graph, result->assignment, net, data);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(runtime::ExecuteReference(result->graph, data).ok());
  int out_id = net.groups.back().OutputTensor(result->graph);
  EXPECT_LT(runtime::MaxAbsDiff(*out, data[out_id]), 2e-3);
}

TEST(Baselines, AllRunOnGmm) {
  graph::Graph g = graph::BuildSingleMatmul(64, 128, 64);
  const auto& machine = sim::Machine::NvidiaGpu();
  for (auto kind : {baselines::BaselineKind::kVendor, baselines::BaselineKind::kAutoTvm,
                    baselines::BaselineKind::kFlexTensor, baselines::BaselineKind::kAnsor}) {
    auto result = baselines::RunBaseline(kind, g, machine, 60, 2);
    ASSERT_TRUE(result.ok()) << baselines::BaselineName(kind) << ": "
                             << result.status().ToString();
    EXPECT_GT(result->perf.latency_us, 0.0);
  }
}

TEST(Pretraining, SnapshotRoundTrips) {
  auto snapshot = autotune::PretrainLayoutAgent(sim::Machine::ArmCpu(), 7, 24);
  EXPECT_FALSE(snapshot.empty());
  Rng rng(1);
  autotune::PpoAgent agent(autotune::PpoOptions{}, rng);
  agent.Restore(snapshot);
  EXPECT_EQ(agent.Snapshot().size(), snapshot.size());
}

}  // namespace
}  // namespace alt
