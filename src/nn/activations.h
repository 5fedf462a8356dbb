#ifndef UHSCM_NN_ACTIVATIONS_H_
#define UHSCM_NN_ACTIVATIONS_H_

#include <string>

#include "nn/layer.h"

namespace uhscm::nn {

/// \brief Element-wise tanh. The paper's hashing network uses tanh on the
/// final k-dimensional layer to approximate sign() differentiably (§3.4).
class Tanh : public Layer {
 public:
  linalg::Matrix Forward(linalg::Matrix input) override;
  linalg::Matrix Backward(linalg::Matrix grad_output) override;
  std::string name() const override { return "Tanh"; }

 private:
  linalg::Matrix cached_output_;
};

/// \brief Element-wise ReLU for hidden layers of the backbone MLP.
class Relu : public Layer {
 public:
  /// Backward masks by the cached output: positive where the input was.
  linalg::Matrix Forward(linalg::Matrix input) override;
  linalg::Matrix Backward(linalg::Matrix grad_output) override;
  std::string name() const override { return "Relu"; }

 private:
  linalg::Matrix cached_output_;
};

}  // namespace uhscm::nn

#endif  // UHSCM_NN_ACTIVATIONS_H_
