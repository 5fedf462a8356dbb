#ifndef UHSCM_CORE_HASHING_NETWORK_H_
#define UHSCM_CORE_HASHING_NETWORK_H_

#include <memory>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "nn/linear.h"
#include "nn/sequential.h"

namespace uhscm::core {

/// Architecture of the hashing network: an MLP backbone standing in for
/// the paper's VGG19 with its final layer replaced by a k-dimensional
/// fully-connected layer under tanh (§3.2).
struct HashingNetworkOptions {
  int hidden1 = 512;
  int hidden2 = 256;
  int bits = 64;
};

/// \brief The hashing network H(.; W): pixels -> codes in [-1, 1]^k.
class HashingNetwork {
 public:
  HashingNetwork(int input_dim, const HashingNetworkOptions& options,
                 Rng* rng);

  /// Real-valued codes Z in [-1,1]^{n x k} (training path — caches
  /// activations for Backward()).
  linalg::Matrix Forward(linalg::Matrix pixels);

  /// Backpropagates dL/dZ, accumulating parameter gradients. Accumulates
  /// exactly what model()->Backward does, but skips the first layer's
  /// input gradient (dL/d pixels), which nothing reads.
  void Backward(linalg::Matrix grad_codes);

  /// Binary codes B = sgn(Z) in {-1, +1}^{n x k}.
  linalg::Matrix EncodeBinary(const linalg::Matrix& pixels);

  nn::Sequential* model() { return &model_; }
  int bits() const { return options_.bits; }
  int input_dim() const { return input_dim_; }
  const HashingNetworkOptions& options() const { return options_; }

 private:
  int input_dim_;
  HashingNetworkOptions options_;
  nn::Sequential model_;
  nn::Linear* first_ = nullptr;  ///< model_.layer(0), owned by model_
};

}  // namespace uhscm::core

#endif  // UHSCM_CORE_HASHING_NETWORK_H_
