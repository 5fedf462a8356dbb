#include "nn/activations.h"

#include <cmath>

namespace uhscm::nn {

linalg::Matrix Tanh::Forward(linalg::Matrix input) {
  float* x = input.data();
  for (size_t i = 0; i < input.size(); ++i) x[i] = std::tanh(x[i]);
  cached_output_ = input;
  return input;
}

linalg::Matrix Tanh::Backward(linalg::Matrix grad_output) {
  const float* y = cached_output_.data();
  float* g = grad_output.data();
  for (size_t i = 0; i < grad_output.size(); ++i) {
    g[i] = g[i] * (1.0f - y[i] * y[i]);
  }
  return grad_output;
}

linalg::Matrix Relu::Forward(linalg::Matrix input) {
  float* x = input.data();
  for (size_t i = 0; i < input.size(); ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
  cached_output_ = input;
  return input;
}

linalg::Matrix Relu::Backward(linalg::Matrix grad_output) {
  const float* y = cached_output_.data();
  float* g = grad_output.data();
  for (size_t i = 0; i < grad_output.size(); ++i) {
    g[i] = y[i] > 0.0f ? g[i] : 0.0f;
  }
  return grad_output;
}

}  // namespace uhscm::nn
