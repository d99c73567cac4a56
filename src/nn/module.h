// Base class for neural modules: a named bag of trainable parameters.
#ifndef GNMR_NN_MODULE_H_
#define GNMR_NN_MODULE_H_

#include <vector>

#include "src/tensor/autodiff.h"

namespace gnmr {
namespace nn {

/// Anything holding trainable Vars. Parameters() returns handles to the
/// persistent parameter nodes (not copies), so optimisers mutate in place.
class Module {
 public:
  virtual ~Module() = default;

  /// All trainable parameters of this module (and submodules).
  virtual std::vector<ad::Var> Parameters() const = 0;

  /// Total number of scalar parameters.
  int64_t NumParameters() const {
    int64_t n = 0;
    for (const ad::Var& p : Parameters()) n += p.value().numel();
    return n;
  }

  /// Clears gradients of all parameters.
  void ZeroGrad() {
    for (ad::Var p : Parameters()) p.ZeroGrad();
  }
};

}  // namespace nn
}  // namespace gnmr

#endif  // GNMR_NN_MODULE_H_
