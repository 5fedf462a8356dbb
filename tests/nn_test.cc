#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "common/rng.h"
#include "core/hashing_network.h"
#include "linalg/ops.h"
#include "nn/activations.h"
#include "nn/gradient_check.h"
#include "nn/linear.h"
#include "nn/sequential.h"
#include "nn/sgd.h"

namespace uhscm::nn {
namespace {

using linalg::Matrix;

/// Scalar loss 0.5*||out||^2 with grad = out; the simplest valid loss_fn
/// for gradient checking.
double HalfSquaredLoss(const Matrix& out, Matrix* grad) {
  double loss = 0.0;
  for (size_t i = 0; i < out.size(); ++i) {
    loss += 0.5 * static_cast<double>(out.data()[i]) * out.data()[i];
    grad->data()[i] = out.data()[i];
  }
  return loss;
}

TEST(LinearTest, ForwardShapeAndBias) {
  Rng rng(1);
  Linear layer(3, 2, &rng);
  Matrix x = Matrix::FromRowMajor(2, 3, {1, 0, 0, 0, 1, 0});
  Matrix y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 2);
  EXPECT_EQ(y.cols(), 2);
  // Row 0 = W.row(0) + b; bias starts at 0 so y = first weight row.
  EXPECT_NEAR(y(0, 0), layer.weight()(0, 0), 1e-6f);
  EXPECT_NEAR(y(1, 1), layer.weight()(1, 1), 1e-6f);
}

TEST(LinearTest, XavierInitBounded) {
  Rng rng(2);
  Linear layer(100, 50, &rng);
  const float bound = std::sqrt(6.0f / 150.0f);
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 50; ++j) {
      EXPECT_LE(std::fabs(layer.weight()(i, j)), bound + 1e-6f);
    }
  }
  // Bias zero-initialized.
  for (int j = 0; j < 50; ++j) EXPECT_EQ(layer.bias()(0, j), 0.0f);
}

TEST(LinearTest, GradientCheck) {
  Rng rng(3);
  Linear layer(4, 3, &rng);
  Matrix x = Matrix::RandomNormal(5, 4, &rng);
  const double err =
      MaxRelativeGradientError(&layer, x, HalfSquaredLoss, &rng);
  EXPECT_LT(err, 1e-2);
}

TEST(ActivationsTest, TanhForwardBackward) {
  Tanh layer;
  Matrix x = Matrix::FromRowMajor(1, 3, {-100, 0, 100});
  Matrix y = layer.Forward(x);
  EXPECT_NEAR(y(0, 0), -1.0f, 1e-5f);
  EXPECT_EQ(y(0, 1), 0.0f);
  EXPECT_NEAR(y(0, 2), 1.0f, 1e-5f);
  Matrix g(1, 3, 1.0f);
  Matrix dx = layer.Backward(g);
  EXPECT_NEAR(dx(0, 0), 0.0f, 1e-5f);  // saturated
  EXPECT_NEAR(dx(0, 1), 1.0f, 1e-6f);  // derivative at 0 is 1
}

TEST(ActivationsTest, ReluForwardBackward) {
  Relu layer;
  Matrix x = Matrix::FromRowMajor(1, 3, {-2, 0, 3});
  Matrix y = layer.Forward(x);
  EXPECT_EQ(y(0, 0), 0.0f);
  EXPECT_EQ(y(0, 2), 3.0f);
  Matrix g(1, 3, 1.0f);
  Matrix dx = layer.Backward(g);
  EXPECT_EQ(dx(0, 0), 0.0f);
  EXPECT_EQ(dx(0, 2), 1.0f);
}

TEST(SequentialTest, ComposesLayers) {
  Rng rng(4);
  Sequential model;
  model.Append(std::make_unique<Linear>(4, 8, &rng));
  model.Append(std::make_unique<Relu>());
  model.Append(std::make_unique<Linear>(8, 2, &rng));
  model.Append(std::make_unique<Tanh>());
  Matrix x = Matrix::RandomNormal(3, 4, &rng);
  Matrix y = model.Forward(x);
  EXPECT_EQ(y.rows(), 3);
  EXPECT_EQ(y.cols(), 2);
  for (size_t i = 0; i < y.size(); ++i) {
    EXPECT_LE(std::fabs(y.data()[i]), 1.0f);
  }
  EXPECT_EQ(model.Parameters().size(), 4u);  // two linears x (W, b)
  EXPECT_NE(model.name().find("Linear"), std::string::npos);
}

class MlpGradientCheck : public ::testing::TestWithParam<int> {};

TEST_P(MlpGradientCheck, EndToEndGradientsMatchFiniteDifferences) {
  const int hidden = GetParam();
  Rng rng(5 + hidden);
  Sequential model;
  model.Append(std::make_unique<Linear>(6, hidden, &rng));
  model.Append(std::make_unique<Relu>());
  model.Append(std::make_unique<Linear>(hidden, 4, &rng));
  model.Append(std::make_unique<Tanh>());
  Matrix x = Matrix::RandomNormal(7, 6, &rng);
  const double err =
      MaxRelativeGradientError(&model, x, HalfSquaredLoss, &rng, 6, 1e-3);
  // ReLU kinks make individual finite differences one-sided when a
  // perturbed pre-activation crosses zero, so the worst sampled entry is
  // allowed a looser bound than the kink-free Linear/Tanh checks.
  EXPECT_LT(err, 0.15) << "hidden=" << hidden;
}

INSTANTIATE_TEST_SUITE_P(Widths, MlpGradientCheck,
                         ::testing::Values(3, 8, 16, 32));

TEST(HashingNetworkTest, BackwardMatchesSequentialBitForBit) {
  // HashingNetwork::Backward skips only the first layer's input gradient:
  // every parameter gradient must equal the full Sequential pass's bit for
  // bit, including when a second batch accumulates onto the first. The
  // shapes put the products on the packed GEMM.
  core::HashingNetworkOptions options;
  options.hidden1 = 128;
  options.hidden2 = 64;
  options.bits = 32;
  Rng init_a(11), init_b(11);
  core::HashingNetwork skip(96, options, &init_a);
  core::HashingNetwork full(96, options, &init_b);
  Rng rng(12);
  for (int step = 0; step < 2; ++step) {
    const Matrix x = Matrix::RandomNormal(64, 96, &rng);
    const Matrix g = Matrix::RandomNormal(64, options.bits, &rng);
    skip.Forward(x);
    full.Forward(x);
    skip.Backward(g);
    full.model()->Backward(g);
  }
  const std::vector<Parameter> a = skip.model()->Parameters();
  const std::vector<Parameter> b = full.model()->Parameters();
  ASSERT_EQ(a.size(), 6u);  // three Linears x (W, b)
  ASSERT_EQ(a.size(), b.size());
  for (size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p].grad->size(), b[p].grad->size());
    EXPECT_EQ(std::memcmp(a[p].grad->data(), b[p].grad->data(),
                          a[p].grad->size() * sizeof(float)),
              0)
        << "parameter " << p;
    EXPECT_GT(a[p].grad->FrobeniusNorm(), 0.0f) << "parameter " << p;
  }
}

TEST(SgdTest, ConvergesOnLinearRegression) {
  // Fit y = x * w_true with a single Linear layer.
  Rng rng(6);
  Matrix w_true = Matrix::RandomNormal(3, 2, &rng);
  Matrix x = Matrix::RandomNormal(64, 3, &rng);
  Matrix y = linalg::MatMul(x, w_true);

  Linear model(3, 2, &rng);
  SgdOptions options;
  options.learning_rate = 0.05f;
  options.momentum = 0.9f;
  options.weight_decay = 0.0f;
  SgdOptimizer optimizer(&model, options);

  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int step = 0; step < 200; ++step) {
    optimizer.ZeroGrad();
    Matrix pred = model.Forward(x);
    Matrix grad(pred.rows(), pred.cols());
    double loss = 0.0;
    const double inv = 1.0 / pred.rows();
    for (size_t i = 0; i < pred.size(); ++i) {
      const double diff = pred.data()[i] - y.data()[i];
      loss += 0.5 * diff * diff * inv;
      grad.data()[i] = static_cast<float>(diff * inv);
    }
    model.Backward(grad);
    optimizer.Step();
    if (step == 0) first_loss = loss;
    last_loss = loss;
  }
  EXPECT_LT(last_loss, first_loss * 1e-3);
}

TEST(SgdTest, WeightDecayShrinksWeights) {
  Rng rng(7);
  Linear model(4, 4, &rng);
  const float w_before = model.weight().FrobeniusNorm();
  SgdOptions options;
  options.learning_rate = 0.1f;
  options.momentum = 0.0f;
  options.weight_decay = 0.5f;
  SgdOptimizer optimizer(&model, options);
  // Zero gradients: only decay acts.
  for (int step = 0; step < 10; ++step) {
    optimizer.ZeroGrad();
    optimizer.Step();
  }
  EXPECT_LT(model.weight().FrobeniusNorm(), w_before * 0.7f);
}

TEST(SgdTest, MomentumAcceleratesAlongConstantGradient) {
  // With constant gradient g and momentum mu, the velocity accumulates to
  // g/(1-mu); with mu=0 the per-step move is g*lr. Compare displacement.
  Rng rng(8);
  auto run = [&](float mu) {
    Linear model(1, 1, &rng);
    *model.mutable_weight() = Matrix(1, 1);  // start at 0
    SgdOptions options;
    options.learning_rate = 0.01f;
    options.momentum = mu;
    options.weight_decay = 0.0f;
    SgdOptimizer optimizer(&model, options);
    for (int step = 0; step < 20; ++step) {
      optimizer.ZeroGrad();
      // Inject a constant gradient of 1 on the weight.
      Matrix x = Matrix::FromRowMajor(1, 1, {1.0f});
      model.Forward(x);
      Matrix g = Matrix::FromRowMajor(1, 1, {1.0f});
      model.Backward(g);
      optimizer.Step();
    }
    return std::fabs(model.weight()(0, 0));
  };
  EXPECT_GT(run(0.9f), 2.0f * run(0.0f));
}

TEST(ZeroGradTest, ClearsAccumulatedGradients) {
  Rng rng(9);
  Linear model(2, 2, &rng);
  Matrix x = Matrix::RandomNormal(3, 2, &rng);
  model.Forward(x);
  Matrix g(3, 2, 1.0f);
  model.Backward(g);
  bool any_nonzero = false;
  for (Parameter p : model.Parameters()) {
    for (size_t i = 0; i < p.grad->size(); ++i) {
      if (p.grad->data()[i] != 0.0f) any_nonzero = true;
    }
  }
  EXPECT_TRUE(any_nonzero);
  model.ZeroGrad();
  for (Parameter p : model.Parameters()) {
    for (size_t i = 0; i < p.grad->size(); ++i) {
      EXPECT_EQ(p.grad->data()[i], 0.0f);
    }
  }
}

}  // namespace
}  // namespace uhscm::nn
