#ifndef UHSCM_NN_LAYER_H_
#define UHSCM_NN_LAYER_H_

#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace uhscm::nn {

/// A trainable tensor: the value buffer and its accumulated gradient.
/// Both matrices always have identical shape; the optimizer owns the
/// momentum state keyed by position in the parameter list.
struct Parameter {
  linalg::Matrix* value = nullptr;
  linalg::Matrix* grad = nullptr;
};

/// \brief Base class for differentiable layers operating on mini-batches.
///
/// A batch is an n x d Matrix (rows are samples). Forward() must be called
/// before Backward(); layers cache whatever activations they need, and
/// take their argument by value so a moved-in batch is cached or updated
/// in place, not copied. This is a deliberately small reverse-mode engine —
/// exactly what the paper's hashing network (stacked fully-connected
/// layers with tanh output, trained by SGD with momentum) requires.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output for a batch.
  virtual linalg::Matrix Forward(linalg::Matrix input) = 0;

  /// Given dL/d(output), accumulates parameter gradients and returns
  /// dL/d(input). Must follow a Forward() on the same batch.
  virtual linalg::Matrix Backward(linalg::Matrix grad_output) = 0;

  /// Exposes trainable parameters (empty for activations).
  virtual std::vector<Parameter> Parameters() { return {}; }

  /// Zeroes all parameter gradients.
  void ZeroGrad();

  /// Layer name for debug printing.
  virtual std::string name() const = 0;
};

}  // namespace uhscm::nn

#endif  // UHSCM_NN_LAYER_H_
