#ifndef UHSCM_NN_SEQUENTIAL_H_
#define UHSCM_NN_SEQUENTIAL_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace uhscm::nn {

/// \brief Ordered stack of layers; the container behind every deep model
/// in this repo (the UHSCM hashing network and the deep baselines).
class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer; takes ownership.
  void Append(std::unique_ptr<Layer> layer);

  /// Number of layers.
  int size() const { return static_cast<int>(layers_.size()); }

  Layer* layer(int i) { return layers_[static_cast<size_t>(i)].get(); }

  linalg::Matrix Forward(linalg::Matrix input) override;
  linalg::Matrix Backward(linalg::Matrix grad_output) override;
  std::vector<Parameter> Parameters() override;
  std::string name() const override;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace uhscm::nn

#endif  // UHSCM_NN_SEQUENTIAL_H_
