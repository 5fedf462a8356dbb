#include "core/hashing_network.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "linalg/ops.h"
#include "nn/activations.h"

namespace uhscm::core {

HashingNetwork::HashingNetwork(int input_dim,
                               const HashingNetworkOptions& options, Rng* rng)
    : input_dim_(input_dim), options_(options) {
  UHSCM_CHECK(input_dim > 0, "HashingNetwork: input_dim must be positive");
  UHSCM_CHECK(options.bits > 0, "HashingNetwork: bits must be positive");
  auto linear = [&](int in, int out) {
    auto layer = std::make_unique<nn::Linear>(in, out, rng);
    nn::Linear* raw = layer.get();
    model_.Append(std::move(layer));
    return raw;
  };
  first_ = linear(input_dim, options.hidden1);
  model_.Append(std::make_unique<nn::Relu>());
  second_ = linear(options.hidden1, options.hidden2);
  model_.Append(std::make_unique<nn::Relu>());
  last_ = linear(options.hidden2, options.bits);
  model_.Append(std::make_unique<nn::Tanh>());
}

linalg::Matrix HashingNetwork::Forward(linalg::Matrix pixels) {
  UHSCM_CHECK(pixels.cols() == input_dim_,
              "HashingNetwork::Forward: input dim mismatch");
  return model_.Forward(std::move(pixels));
}

void HashingNetwork::Backward(linalg::Matrix grad_codes) {
  for (int i = model_.size() - 1; i > 0; --i) {
    grad_codes = model_.layer(i)->Backward(std::move(grad_codes));
  }
  first_->BackwardParameters(grad_codes);
}

namespace {

/// Rows per encode block: 11 micro-panels of the packed GEMM. A block's
/// three layers (132 x 512 floats at most at the default widths) stay
/// in L2 between products.
constexpr int kEncodeBlockRows = 132;

/// Most tasks one encode splits into, each walking a run of consecutive
/// blocks in one set of scratch buffers: enough to balance a pool of a
/// few threads, while scratch is allocated per task rather than per block.
constexpr int kEncodeTasks = 16;

/// out(i, j) = max(out(i, j) + bias(j), 0) in one pass, with Relu's
/// rule: only a positive sum survives (NaN and -0 become +0).
void AddBiasRelu(const linalg::Matrix& bias, int rows, float* out) {
  const float* b = bias.Row(0);
  const int cols = bias.cols();
  for (int i = 0; i < rows; ++i) {
    float* row = out + static_cast<size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) {
      const float v = row[j] + b[j];
      row[j] = v > 0.0f ? v : 0.0f;
    }
  }
}

}  // namespace

linalg::Matrix HashingNetwork::EncodeBinary(
    const linalg::Matrix& pixels) const {
  UHSCM_CHECK(pixels.cols() == input_dim_,
              "HashingNetwork::EncodeBinary: input dim mismatch");
  const int n = pixels.rows();
  const int h1 = options_.hidden1;
  const int h2 = options_.hidden2;
  const int bits = options_.bits;
  linalg::Matrix codes(n, bits);
  if (n == 0) return codes;
  // All three packed weights share one buffer, left uninitialised
  // (packing writes every float, padding included). Packed into three
  // buffers freed apart, they left glibc's heap top past its trim
  // threshold, so every call gave the pages back and faulted about 230
  // of them in again: 0.45 ms, four times a whole one-row encode.
  const linalg::Matrix& m1 = first_->weight();
  const linalg::Matrix& m2 = second_->weight();
  const linalg::Matrix& m3 = last_->weight();
  const size_t size1 = linalg::PackedB::Size(m1);
  const size_t size2 = linalg::PackedB::Size(m2);
  const auto packed = std::make_unique_for_overwrite<float[]>(
      size1 + size2 + linalg::PackedB::Size(m3));
  const linalg::PackedB w1(m1, packed.get());
  const linalg::PackedB w2(m2, packed.get() + size1);
  const linalg::PackedB w3(m3, packed.get() + size1 + size2);
  const int blocks = (n + kEncodeBlockRows - 1) / kEncodeBlockRows;
  const int tasks = std::min(blocks, kEncodeTasks);
  const size_t block_rows = static_cast<size_t>(std::min(n, kEncodeBlockRows));
  ParallelFor(tasks, [&](int t) {
    // Each layer's output is written whole before it is read.
    const auto a1 = std::make_unique_for_overwrite<float[]>(block_rows * h1);
    const auto a2 = std::make_unique_for_overwrite<float[]>(block_rows * h2);
    const auto z = std::make_unique_for_overwrite<float[]>(block_rows * bits);
    std::vector<float> apack;
    const int first_block = static_cast<int>(int64_t{blocks} * t / tasks);
    const int end_block = static_cast<int>(int64_t{blocks} * (t + 1) / tasks);
    for (int blk = first_block; blk < end_block; ++blk) {
      const int i0 = blk * kEncodeBlockRows;
      const int rows = std::min(kEncodeBlockRows, n - i0);
      linalg::MatMulPackedInto(pixels.Row(i0), rows, input_dim_, w1,
                               a1.get(), h1, &apack);
      AddBiasRelu(first_->bias(), rows, a1.get());
      linalg::MatMulPackedInto(a1.get(), rows, h1, w2, a2.get(), h2,
                               &apack);
      AddBiasRelu(second_->bias(), rows, a2.get());
      linalg::MatMulPackedInto(a2.get(), rows, h2, w3, z.get(), bits,
                               &apack);
      const float* b = last_->bias().Row(0);
      for (int i = 0; i < rows; ++i) {
        const float* zrow = z.get() + static_cast<size_t>(i) * bits;
        float* out = codes.Row(i0 + i);
        for (int j = 0; j < bits; ++j) {
          out[j] = zrow[j] + b[j] < 0.0f ? -1.0f : 1.0f;
        }
      }
    }
  });
  return codes;
}

}  // namespace uhscm::core
