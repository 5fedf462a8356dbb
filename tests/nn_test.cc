#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

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

class LinearWeightGradient
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(LinearWeightGradient, AccumulatesInPlace) {
  // Backward adds x^T g straight into the weight gradient. After ZeroGrad
  // and one backward that is MatMulTransA(x, g) byte for byte. A second
  // backward without ZeroGrad starts its sums from the first gradient, so
  // it matches the sum of the two products to rounding only: within 1e-6
  // of the entry's scale, sum_p |x_pi g_pj| over both batches, which
  // bounds float rounding in a sum whose terms may cancel.
  const auto [rows, in, out] = GetParam();
  Rng rng(21);
  Linear layer(in, out, &rng);
  const Matrix x1 = Matrix::RandomNormal(rows, in, &rng);
  const Matrix g1 = Matrix::RandomNormal(rows, out, &rng);
  const Matrix x2 = Matrix::RandomNormal(rows, in, &rng);
  const Matrix g2 = Matrix::RandomNormal(rows, out, &rng);
  const Matrix& dw = *layer.Parameters()[0].grad;

  layer.ZeroGrad();
  layer.Forward(x1);
  layer.Backward(g1);
  const Matrix first = linalg::MatMulTransA(x1, g1);
  ASSERT_EQ(dw.size(), first.size());
  EXPECT_EQ(std::memcmp(dw.data(), first.data(), dw.size() * sizeof(float)),
            0);

  layer.Forward(x2);
  layer.Backward(g2);
  const Matrix second = linalg::MatMulTransA(x2, g2);
  const auto abs = [](Matrix m) {
    for (size_t i = 0; i < m.size(); ++i) m.data()[i] = std::fabs(m.data()[i]);
    return m;
  };
  Matrix scale = linalg::MatMulTransA(abs(x1), abs(g1));
  scale.Add(linalg::MatMulTransA(abs(x2), abs(g2)));
  for (size_t i = 0; i < dw.size(); ++i) {
    const double expected =
        static_cast<double>(first.data()[i]) + second.data()[i];
    EXPECT_NEAR(dw.data()[i], expected, 1e-6 * scale.data()[i])
        << "entry " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LinearWeightGradient,
    ::testing::Values(std::make_tuple(5, 4, 3),          // one edge tile
                      std::make_tuple(128, 256, 512)));  // trainer layer 1

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

/// The training path's codes: every layer's Forward, then Sign.
Matrix ForwardSign(core::HashingNetwork* net, const Matrix& x) {
  return linalg::Sign(net->Forward(x));
}

bool BytesEqual(const Matrix& a, const Matrix& b) {
  // An empty matrix's data() may be null, which memcmp must not see.
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(HashingNetworkTest, EncodeBinaryEqualsSignOfForward) {
  // Row counts around the 12-row micro-panel and the 132-row encode
  // block. The first network runs the ledger's widths; the second puts
  // every layer on a tile edge and its input across two 256-deep slabs.
  core::HashingNetworkOptions ragged;
  ragged.hidden1 = 45;
  ragged.hidden2 = 20;
  ragged.bits = 33;
  const struct {
    int input;
    core::HashingNetworkOptions options;
  } shapes[] = {{256, core::HashingNetworkOptions{}}, {300, ragged}};
  for (const auto& shape : shapes) {
    Rng rng(21);
    core::HashingNetwork net(shape.input, shape.options, &rng);
    // Non-zero biases, so the fused bias pass is exercised.
    for (const Parameter& p : net.model()->Parameters()) {
      if (p.value->rows() == 1) {
        *p.value = Matrix::RandomNormal(1, p.value->cols(), &rng, 0.1f);
      }
    }
    for (int rows : {0, 1, 11, 12, 13, 131, 132, 133, 1000}) {
      const Matrix x = Matrix::RandomNormal(rows, shape.input, &rng);
      const Matrix codes = net.EncodeBinary(x);
      ASSERT_EQ(codes.rows(), rows);
      ASSERT_EQ(codes.cols(), shape.options.bits);
      EXPECT_TRUE(BytesEqual(codes, ForwardSign(&net, x)))
          << "input " << shape.input << " rows " << rows;
    }
  }
}

TEST(HashingNetworkTest, EncodeBinarySignsEdgePreActivations) {
  // Hand-set weights give the last layer the pre-activations
  //   column 0: +0             -> +1
  //   column 1: -0 on the FMA tiers (an underflowing product plus -0
  //             terms), +0 on the portable kernel -> +1 either way
  //   column 2: -1e-40, a negative denormal -> -1
  //   column 3: -1e30 -> -1
  //   column 4: +2 -> +1
  // for the input (1, 1): both hidden layers hold (1e-30, 1).
  core::HashingNetworkOptions options;
  options.hidden1 = 2;
  options.hidden2 = 2;
  options.bits = 5;
  Rng rng(3);
  core::HashingNetwork net(2, options, &rng);
  const std::vector<Parameter> params = net.model()->Parameters();
  ASSERT_EQ(params.size(), 6u);
  Matrix w1(2, 2);
  w1(0, 0) = 1e-30f;
  w1(1, 1) = 1.0f;
  Matrix w2(2, 2);
  w2(0, 0) = 1.0f;
  w2(1, 1) = 1.0f;
  Matrix w3(2, 5);
  w3(0, 1) = -1e-30f;
  w3(1, 1) = -0.0f;
  w3(1, 2) = -1e-40f;
  w3(1, 4) = 2.0f;
  Matrix b3(1, 5);
  b3(0, 1) = -0.0f;
  b3(0, 3) = -1e30f;
  *params[0].value = w1;
  *params[1].value = Matrix(1, 2);
  *params[2].value = w2;
  *params[3].value = Matrix(1, 2);
  *params[4].value = w3;
  *params[5].value = b3;

  const Matrix x(3, 2, 1.0f);
  const Matrix z = net.Forward(x);  // tanh of the pre-activations
  EXPECT_EQ(z(0, 0), 0.0f);
  EXPECT_FALSE(std::signbit(z(0, 0)));
  EXPECT_EQ(z(0, 1), 0.0f);
  EXPECT_LT(z(0, 2), 0.0f);
  EXPECT_GT(z(0, 2), -1e-38f);  // still denormal after tanh
  EXPECT_EQ(z(0, 3), -1.0f);

  const Matrix codes = net.EncodeBinary(x);
  EXPECT_TRUE(BytesEqual(codes, linalg::Sign(z)));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(codes(i, 0), 1.0f);
    EXPECT_EQ(codes(i, 1), 1.0f);
    EXPECT_EQ(codes(i, 2), -1.0f);
    EXPECT_EQ(codes(i, 3), -1.0f);
    EXPECT_EQ(codes(i, 4), 1.0f);
  }
}

TEST(HashingNetworkTest, EncodeBinaryFromTwoThreadsAtOnce) {
  // EncodeBinary writes no layer state, so concurrent calls on one
  // network are race-free (run under TSan) and each returns the codes.
  Rng rng(5);
  core::HashingNetwork net(256, core::HashingNetworkOptions{}, &rng);
  const Matrix x = Matrix::RandomNormal(700, 256, &rng);
  const Matrix y = Matrix::RandomNormal(300, 256, &rng);
  Matrix cx, cy;
  std::thread tx([&] { cx = net.EncodeBinary(x); });
  std::thread ty([&] { cy = net.EncodeBinary(y); });
  tx.join();
  ty.join();
  EXPECT_TRUE(BytesEqual(cx, ForwardSign(&net, x)));
  EXPECT_TRUE(BytesEqual(cy, ForwardSign(&net, y)));
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
