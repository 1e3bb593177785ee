#include "rl/adam.hpp"

#include <cmath>
#include <stdexcept>

namespace qrc::rl {
namespace {

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEps = 1e-8;

}  // namespace

Adam::Adam(std::vector<double*> params, std::vector<double*> grads,
           AdamConfig config)
    : params_(std::move(params)), grads_(std::move(grads)), config_(config) {
  if (params_.size() != grads_.size()) {
    throw std::invalid_argument("Adam: params/grads size mismatch");
  }
  m_.assign(params_.size(), 0.0);
  v_.assign(params_.size(), 0.0);
}

void Adam::step(double max_grad_norm) {
  ++t_;
  double scale = 1.0;
  if (max_grad_norm > 0.0) {
    double norm2 = 0.0;
    for (const double* g : grads_) {
      norm2 += (*g) * (*g);
    }
    const double norm = std::sqrt(norm2);
    if (norm > max_grad_norm) {
      scale = max_grad_norm / (norm + 1e-12);
    }
  }
  const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const double g = *grads_[i] * scale;
    m_[i] = kBeta1 * m_[i] + (1.0 - kBeta1) * g;
    v_[i] = kBeta2 * v_[i] + (1.0 - kBeta2) * g * g;
    const double mhat = m_[i] / bc1;
    const double vhat = v_[i] / bc2;
    *params_[i] -= config_.lr * mhat / (std::sqrt(vhat) + kEps);
  }
}

}  // namespace qrc::rl
