#include "nn/sequential.h"

#include <utility>

namespace uhscm::nn {

void Sequential::Append(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
}

linalg::Matrix Sequential::Forward(linalg::Matrix input) {
  for (auto& layer : layers_) input = layer->Forward(std::move(input));
  return input;
}

linalg::Matrix Sequential::Backward(linalg::Matrix grad_output) {
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grad_output = (*it)->Backward(std::move(grad_output));
  }
  return grad_output;
}

std::vector<Parameter> Sequential::Parameters() {
  std::vector<Parameter> params;
  for (auto& layer : layers_) {
    for (Parameter p : layer->Parameters()) params.push_back(p);
  }
  return params;
}

std::string Sequential::name() const {
  std::string out = "Sequential[";
  for (size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) out += ", ";
    out += layers_[i]->name();
  }
  out += "]";
  return out;
}

}  // namespace uhscm::nn
