/// \file adam.hpp
/// \brief Adam optimizer over pointers into network parameters, with
///        global-norm gradient clipping.
#pragma once

#include <cstdint>
#include <vector>

namespace qrc::rl {

/// Adam (Kingma & Ba) with bias correction and the usual moment
/// constants (beta1 0.9, beta2 0.999, eps 1e-8). The optimizer holds raw
/// pointers collected from the networks it optimizes; the networks must
/// outlive it.
struct AdamConfig {
  double lr = 3e-4;
};

class Adam {
 public:
  Adam(std::vector<double*> params, std::vector<double*> grads,
       AdamConfig config = {});

  /// Applies one update from the accumulated gradients. If
  /// `max_grad_norm` > 0 the gradient is rescaled to that global L2 norm
  /// first. Gradients are left untouched (caller zeroes them).
  void step(double max_grad_norm = 0.0);

  [[nodiscard]] double lr() const { return config_.lr; }

 private:
  std::vector<double*> params_;
  std::vector<double*> grads_;
  std::vector<double> m_;
  std::vector<double> v_;
  AdamConfig config_;
  std::int64_t t_ = 0;
};

}  // namespace qrc::rl
