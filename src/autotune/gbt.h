// Gradient-boosted regression trees — the cost model family the paper uses
// (an XGBoost ensemble, §5.2.3). Trained online on measured points to rank
// candidate programs so only the predicted top-k get "measured".

#ifndef ALT_AUTOTUNE_GBT_H_
#define ALT_AUTOTUNE_GBT_H_

#include <cstdint>
#include <vector>

namespace alt::autotune {

struct GbtOptions {
  int num_trees = 40;
  int max_depth = 4;
  double learning_rate = 0.3;
  int min_samples_leaf = 4;
};

class GradientBoostedTrees {
 public:
  explicit GradientBoostedTrees(GbtOptions options = {}) : options_(options) {}

  // Fits on (features, targets); squared loss, exact greedy splits. Every
  // row of x must have the same width. The split search is presorted (see
  // DESIGN.md §19) but yields the trees of the plain per-node sort-and-scan,
  // bit for bit.
  void Fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y);

  double Predict(const std::vector<double>& x) const;

  bool trained() const { return !trees_.empty(); }

 private:
  struct Node {
    int feature = -1;      // -1: leaf
    double threshold = 0.0;
    double value = 0.0;    // leaf prediction
    int left = -1;
    int right = -1;
  };
  struct Tree {
    std::vector<Node> nodes;
    double Predict(const std::vector<double>& x) const;
  };
  // Column-major training set and per-tree presorted row orders (gbt.cc).
  struct FitState;

  Tree FitTree(FitState& s);
  void Split(Tree& tree, int node, FitState& s, int begin, int end, int depth);

  GbtOptions options_;
  double base_ = 0.0;
  std::vector<Tree> trees_;
};

}  // namespace alt::autotune

#endif  // ALT_AUTOTUNE_GBT_H_
