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

  /// Binary codes B = sgn(Z) in {-1, +1}^{n x k}, memcmp-equal to
  /// linalg::Sign(Forward(pixels)) on every kernel tier.
  ///
  /// Inference only: const, touches no layer cache, and safe to call on
  /// one network from several threads at once (not concurrently with
  /// training, which writes the weights). Packs each weight matrix once
  /// per call (linalg::PackedB), then runs 132-row blocks on the pool,
  /// each through all three layers in its own scratch with bias and ReLU
  /// fused into one pass per layer.
  ///
  /// The tanh is skipped: each code is the sign of the last
  /// pre-activation x, because sign(tanh(x)) == sign(x) under Sign's rule
  /// (x < 0 ? -1 : +1) for every float. tanh is odd and keeps -0,
  /// denormals and NaN, and rounds no negative value up to +0; an
  /// exhaustive check over all 2^32 bit patterns (glibc tanhf, -O3)
  /// found no mismatch.
  linalg::Matrix EncodeBinary(const linalg::Matrix& pixels) const;

  nn::Sequential* model() { return &model_; }
  int bits() const { return options_.bits; }
  int input_dim() const { return input_dim_; }
  const HashingNetworkOptions& options() const { return options_; }

 private:
  int input_dim_;
  HashingNetworkOptions options_;
  nn::Sequential model_;
  // The three Linear layers, owned by model_ (layers 0, 2 and 4).
  nn::Linear* first_ = nullptr;
  nn::Linear* second_ = nullptr;
  nn::Linear* last_ = nullptr;
};

}  // namespace uhscm::core

#endif  // UHSCM_CORE_HASHING_NETWORK_H_
