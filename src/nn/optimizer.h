// First-order optimisers. The GNMR paper trains with Adam (lr 1e-3, batch
// 32) and a 0.96 exponential learning-rate decay (Section IV-A4); the L2
// term of Eq. 7 is applied as decoupled weight decay.
#ifndef GNMR_NN_OPTIMIZER_H_
#define GNMR_NN_OPTIMIZER_H_

#include <unordered_map>
#include <vector>

#include "src/tensor/autodiff.h"

namespace gnmr {
namespace nn {

/// Base optimiser: applies updates to params with gradients, then clears
/// those gradients.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Updates every param that accumulated a gradient and zeroes its grad.
  void Step(const std::vector<ad::Var>& params);

  double learning_rate() const { return lr_; }
  void set_learning_rate(double lr) { lr_ = lr; }
  /// Multiplies the learning rate by `factor` (exponential decay schedule).
  void DecayLearningRate(double factor) { lr_ *= factor; }

 protected:
  explicit Optimizer(double lr) : lr_(lr) {}
  virtual void Update(ad::Var* param) = 0;

  double lr_;
};

/// Adam (Kingma & Ba 2015) with decoupled weight decay (AdamW).
class Adam : public Optimizer {
 public:
  explicit Adam(double lr, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8, double weight_decay = 0.0);

 protected:
  void Update(ad::Var* param) override;

 private:
  struct State {
    tensor::Tensor m;
    tensor::Tensor v;
    int64_t t = 0;
  };
  double beta1_, beta2_, eps_, weight_decay_;
  std::unordered_map<const ad::Node*, State> state_;
};

/// Global L2 norm over all parameter gradients (0 if none).
double GlobalGradNorm(const std::vector<ad::Var>& params);

/// Scales all gradients so the global norm is at most `max_norm`.
void ClipGradNorm(const std::vector<ad::Var>& params, double max_norm);

}  // namespace nn
}  // namespace gnmr

#endif  // GNMR_NN_OPTIMIZER_H_
