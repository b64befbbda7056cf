#include "src/autotune/gbt.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/support/status.h"

namespace alt::autotune {

// The training set of one Fit, laid out for the presorted split search.
//
// Features with a single distinct value can never split and are dropped.
// Every remaining ("active") feature a keeps its column of values and a dense
// rank per row (equal values share a rank). Per tree, order[a] lists the rows
// in (value, residual) order — the order the exact greedy scan sums residuals
// in — and every node owns the same segment [begin, end) of every column,
// which order-preserving partitions keep sorted for the children.
struct GradientBoostedTrees::FitState {
  explicit FitState(const std::vector<std::vector<double>>& rows)
      : x(rows), n(static_cast<int>(rows.size())) {
    std::vector<double> column(n);
    std::vector<int> by_value(n);
    std::vector<int> rank(n);
    for (int f = 0; f < static_cast<int>(rows[0].size()); ++f) {
      for (int row = 0; row < n; ++row) {
        column[row] = rows[row][f];
      }
      std::iota(by_value.begin(), by_value.end(), 0);
      std::sort(by_value.begin(), by_value.end(),
                [&](int a, int b) { return column[a] < column[b]; });
      int distinct = 0;
      for (int i = 0; i < n; ++i) {
        if (i > 0 && column[by_value[i]] != column[by_value[i - 1]]) {
          ++distinct;
        }
        rank[by_value[i]] = distinct;
      }
      if (distinct == 0) {
        continue;
      }
      features.push_back(f);
      num_ranks.push_back(distinct + 1);
      values.insert(values.end(), column.begin(), column.end());
      ranks.insert(ranks.end(), rank.begin(), rank.end());
    }
    residual.resize(n);
    indices.resize(n);
    order.resize(features.size() * n);
    goes_left.resize(n);
    spill.resize(n);
  }

  const std::vector<std::vector<double>>& x;
  int n;
  std::vector<int> features;   // active feature ids, ascending
  std::vector<int> num_ranks;  // distinct values per active feature
  std::vector<double> values;  // values[a * n + row]
  std::vector<int> ranks;      // ranks[a * n + row]
  std::vector<double> residual;
  // Node rows in the order the node mean sums them (std::partition per split).
  std::vector<int> indices;
  std::vector<int> order;      // order[a * n + pos]: rows in (value, residual) order
  std::vector<char> goes_left; // scratch: row's side of the current split
  std::vector<int> spill;      // scratch: right-child rows during a partition
};

double GradientBoostedTrees::Tree::Predict(const std::vector<double>& x) const {
  int node = 0;
  while (nodes[node].feature >= 0) {
    const Node& n = nodes[node];
    double v = n.feature < static_cast<int>(x.size()) ? x[n.feature] : 0.0;
    node = v <= n.threshold ? n.left : n.right;
  }
  return nodes[node].value;
}

void GradientBoostedTrees::Split(Tree& tree, int node_id, FitState& s, int begin, int end,
                                 int depth) {
  int count = end - begin;
  double sum = 0.0;
  for (int i = begin; i < end; ++i) {
    sum += s.residual[s.indices[i]];
  }
  double mean = count > 0 ? sum / count : 0.0;
  tree.nodes[node_id].value = mean;
  if (depth >= options_.max_depth || count < 2 * options_.min_samples_leaf) {
    return;
  }

  const int n = s.n;
  const double* residual = s.residual.data();
  double best_gain = 1e-12;
  int best_feature = -1;
  double best_threshold = 0.0;
  for (size_t a = 0; a < s.features.size(); ++a) {
    const int* col = s.order.data() + a * n;
    const double* val = s.values.data() + a * n;
    if (val[col[begin]] == val[col[end - 1]]) {
      continue;  // constant within this node
    }
    double left_sum = 0.0;
    for (int i = begin; i + 1 < end; ++i) {
      double v = val[col[i]];
      double next = val[col[i + 1]];
      left_sum += residual[col[i]];
      if (v == next) {
        continue;
      }
      int nl = i + 1 - begin;
      int nr = count - nl;
      if (nl < options_.min_samples_leaf || nr < options_.min_samples_leaf) {
        continue;
      }
      double right_sum = sum - left_sum;
      double gain = left_sum * left_sum / nl + right_sum * right_sum / nr - sum * sum / count;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = s.features[a];
        best_threshold = 0.5 * (v + next);
      }
    }
  }
  if (best_feature < 0) {
    return;
  }

  auto mid_it = std::partition(s.indices.begin() + begin, s.indices.begin() + end,
                               [&](int idx) { return s.x[idx][best_feature] <= best_threshold; });
  int mid = static_cast<int>(mid_it - s.indices.begin());
  if (mid == begin || mid == end) {
    return;
  }
  tree.nodes[node_id].feature = best_feature;
  tree.nodes[node_id].threshold = best_threshold;
  int left = static_cast<int>(tree.nodes.size());
  tree.nodes.push_back(Node{});
  int right = static_cast<int>(tree.nodes.size());
  tree.nodes.push_back(Node{});
  tree.nodes[node_id].left = left;
  tree.nodes[node_id].right = right;

  // Stable-partition every column segment so both children stay sorted.
  // Skipped when neither child can split again.
  const int min_split = 2 * options_.min_samples_leaf;
  if (depth + 1 < options_.max_depth && (mid - begin >= min_split || end - mid >= min_split)) {
    for (int i = begin; i < end; ++i) {
      s.goes_left[s.indices[i]] = i < mid;
    }
    for (size_t a = 0; a < s.features.size(); ++a) {
      int* col = s.order.data() + a * n;
      int l = begin;
      int r = 0;
      for (int i = begin; i < end; ++i) {
        int row = col[i];
        if (s.goes_left[row]) {
          col[l++] = row;
        } else {
          s.spill[r++] = row;
        }
      }
      std::copy(s.spill.begin(), s.spill.begin() + r, col + l);
    }
  }
  Split(tree, left, s, begin, mid, depth + 1);
  Split(tree, right, s, mid, end, depth + 1);
}

GradientBoostedTrees::Tree GradientBoostedTrees::FitTree(FitState& s) {
  // Rows by residual, then a stable counting sort by value rank per column:
  // each column lists its rows in (value, residual) order.
  const int n = s.n;
  std::vector<int> by_residual(n);
  std::iota(by_residual.begin(), by_residual.end(), 0);
  std::sort(by_residual.begin(), by_residual.end(),
            [&](int a, int b) { return s.residual[a] < s.residual[b]; });
  std::vector<int> next;
  for (size_t a = 0; a < s.features.size(); ++a) {
    const int* rank = s.ranks.data() + a * n;
    next.assign(s.num_ranks[a] + 1, 0);
    for (int row = 0; row < n; ++row) {
      ++next[rank[row] + 1];
    }
    std::partial_sum(next.begin(), next.end(), next.begin());
    int* col = s.order.data() + a * n;
    for (int row : by_residual) {
      col[next[rank[row]]++] = row;
    }
  }
  std::iota(s.indices.begin(), s.indices.end(), 0);

  Tree tree;
  tree.nodes.push_back(Node{});
  Split(tree, 0, s, 0, n, 0);
  return tree;
}

void GradientBoostedTrees::Fit(const std::vector<std::vector<double>>& x,
                               const std::vector<double>& y) {
  trees_.clear();
  if (x.empty()) {
    return;
  }
  ALT_CHECK(x.size() == y.size());
  for (size_t i = 1; i < x.size(); ++i) {
    ALT_CHECK_MSG(x[i].size() == x[0].size(), "GBT row " << i << " has " << x[i].size()
                                                  << " features, row 0 has " << x[0].size());
  }
  base_ = std::accumulate(y.begin(), y.end(), 0.0) / y.size();
  FitState state(x);
  std::vector<double> pred(y.size(), base_);
  for (int t = 0; t < options_.num_trees; ++t) {
    for (size_t i = 0; i < y.size(); ++i) {
      state.residual[i] = y[i] - pred[i];
    }
    Tree tree = FitTree(state);
    for (size_t i = 0; i < y.size(); ++i) {
      pred[i] += options_.learning_rate * tree.Predict(x[i]);
    }
    trees_.push_back(std::move(tree));
  }
}

double GradientBoostedTrees::Predict(const std::vector<double>& x) const {
  double out = base_;
  for (const auto& tree : trees_) {
    out += options_.learning_rate * tree.Predict(x);
  }
  return out;
}

}  // namespace alt::autotune
