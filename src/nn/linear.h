#ifndef UHSCM_NN_LINEAR_H_
#define UHSCM_NN_LINEAR_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/layer.h"

namespace uhscm::nn {

/// \brief Fully-connected layer: y = x W + b.
///
/// W is (in x out), b is (1 x out). Initialization is Xavier/Glorot
/// uniform by default — the paper initializes its replaced final layer
/// with Xavier initialization (§4.1).
class Linear : public Layer {
 public:
  /// Xavier-uniform initialization: U(-a, a), a = sqrt(6/(in+out)).
  Linear(int in_features, int out_features, Rng* rng);

  linalg::Matrix Forward(const linalg::Matrix& input) override;
  /// BackwardParameters(grad_output), then returns dL/d(input) = g W^T.
  linalg::Matrix Backward(const linalg::Matrix& grad_output) override;

  /// The parameter half of Backward: accumulates dW += x^T g and
  /// db += colsum(g) and skips the input gradient. For a first layer,
  /// whose input gradient nothing reads. Must follow a Forward() on the
  /// same batch.
  void BackwardParameters(const linalg::Matrix& grad_output);

  std::vector<Parameter> Parameters() override;
  std::string name() const override;

  int in_features() const { return weight_.rows(); }
  int out_features() const { return weight_.cols(); }

  const linalg::Matrix& weight() const { return weight_; }
  linalg::Matrix* mutable_weight() { return &weight_; }
  const linalg::Matrix& bias() const { return bias_; }

 private:
  linalg::Matrix weight_;       // in x out
  linalg::Matrix bias_;         // 1 x out
  linalg::Matrix weight_grad_;  // in x out
  linalg::Matrix bias_grad_;    // 1 x out
  linalg::Matrix cached_input_;
};

}  // namespace uhscm::nn

#endif  // UHSCM_NN_LINEAR_H_
