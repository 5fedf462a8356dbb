#include "nn/linear.h"

#include <cmath>
#include <utility>

#include "common/string_util.h"
#include "linalg/ops.h"

namespace uhscm::nn {

Linear::Linear(int in_features, int out_features, Rng* rng)
    : weight_(in_features, out_features),
      bias_(1, out_features),
      weight_grad_(in_features, out_features),
      bias_grad_(1, out_features) {
  const float a = std::sqrt(6.0f / static_cast<float>(in_features + out_features));
  for (int i = 0; i < in_features; ++i) {
    for (int j = 0; j < out_features; ++j) {
      weight_(i, j) = static_cast<float>(rng->Uniform(-a, a));
    }
  }
}

linalg::Matrix Linear::Forward(linalg::Matrix input) {
  linalg::Matrix out = linalg::MatMul(input, weight_);
  for (int r = 0; r < out.rows(); ++r) {
    float* row = out.Row(r);
    const float* b = bias_.Row(0);
    for (int c = 0; c < out.cols(); ++c) row[c] += b[c];
  }
  cached_input_ = std::move(input);
  return out;
}

linalg::Matrix Linear::Backward(linalg::Matrix grad_output) {
  BackwardParameters(grad_output);
  return linalg::MatMulTransB(grad_output, weight_);
}

void Linear::BackwardParameters(const linalg::Matrix& grad_output) {
  linalg::AddMatMulTransA(cached_input_, grad_output, &weight_grad_);
  for (int r = 0; r < grad_output.rows(); ++r) {
    const float* g = grad_output.Row(r);
    float* bg = bias_grad_.Row(0);
    for (int c = 0; c < grad_output.cols(); ++c) bg[c] += g[c];
  }
}

std::vector<Parameter> Linear::Parameters() {
  return {{&weight_, &weight_grad_}, {&bias_, &bias_grad_}};
}

std::string Linear::name() const {
  return StrFormat("Linear(%d, %d)", weight_.rows(), weight_.cols());
}

}  // namespace uhscm::nn
