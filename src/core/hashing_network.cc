#include "core/hashing_network.h"

#include "common/status.h"
#include "linalg/ops.h"
#include "nn/activations.h"

namespace uhscm::core {

HashingNetwork::HashingNetwork(int input_dim,
                               const HashingNetworkOptions& options, Rng* rng)
    : input_dim_(input_dim), options_(options) {
  UHSCM_CHECK(input_dim > 0, "HashingNetwork: input_dim must be positive");
  UHSCM_CHECK(options.bits > 0, "HashingNetwork: bits must be positive");
  auto first = std::make_unique<nn::Linear>(input_dim, options.hidden1, rng);
  first_ = first.get();
  model_.Append(std::move(first));
  model_.Append(std::make_unique<nn::Relu>());
  model_.Append(
      std::make_unique<nn::Linear>(options.hidden1, options.hidden2, rng));
  model_.Append(std::make_unique<nn::Relu>());
  model_.Append(std::make_unique<nn::Linear>(options.hidden2, options.bits, rng));
  model_.Append(std::make_unique<nn::Tanh>());
}

linalg::Matrix HashingNetwork::Forward(const linalg::Matrix& pixels) {
  UHSCM_CHECK(pixels.cols() == input_dim_,
              "HashingNetwork::Forward: input dim mismatch");
  return model_.Forward(pixels);
}

void HashingNetwork::Backward(const linalg::Matrix& grad_codes) {
  linalg::Matrix g = grad_codes;
  for (int i = model_.size() - 1; i > 0; --i) g = model_.layer(i)->Backward(g);
  first_->BackwardParameters(g);
}

linalg::Matrix HashingNetwork::EncodeBinary(const linalg::Matrix& pixels) {
  return linalg::Sign(Forward(pixels));
}

}  // namespace uhscm::core
