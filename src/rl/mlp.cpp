#include "rl/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <random>
#include <stdexcept>
#include <string>

#include "rl/thread_pool.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define QRC_MLP_X86 1
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#define QRC_MLP_NEON 1
#endif

namespace qrc::rl {

namespace {

// ---- Dense row kernels ----------------------------------------------------
//
// All kernels compute, for one sample x, y[o] = b[o] + sum_i w[i][o] * x[i]
// over the input-major weights, with the i-accumulation strictly sequential
// and one IEEE multiply + one IEEE add per step (never an FMA; the library
// is built with -ffp-contract=off so the compiler cannot fuse them either).
// The vector kernels put adjacent *output neurons* in adjacent lanes — each
// lane executes exactly the scalar op sequence of its neuron — so every
// variant is bitwise-identical to the portable one. The hidden-layer tanh
// is the same std::tanh per element everywhere.

/// Portable kernel over neurons [o_begin, out_n), one strided weight
/// column per neuron: the vector kernels' tail, the whole portable path
/// and the per-sample reference.
void dense_row_tail(const double* w, const double* b, int in_n, int out_n,
                    int o_begin, const double* x, double* y) {
  for (int o = o_begin; o < out_n; ++o) {
    double acc = b[o];
    const double* wp = w + o;
    for (int i = 0; i < in_n; ++i, wp += out_n) {
      acc += *wp * x[i];
    }
    y[o] = acc;
  }
}

#if defined(QRC_MLP_X86)
/// Neurons in blocks of four; returns the first neuron it left to the tail.
__attribute__((target("avx2")))
int dense_row_avx2(const double* w, const double* b, int in_n, int out_n,
                   const double* x, double* y) {
  int o = 0;
  for (; o + 4 <= out_n; o += 4) {
    __m256d acc = _mm256_loadu_pd(b + o);
    const double* wp = w + o;
    for (int i = 0; i < in_n; ++i, wp += out_n) {
      const __m256d prod =
          _mm256_mul_pd(_mm256_loadu_pd(wp), _mm256_set1_pd(x[i]));
      acc = _mm256_add_pd(acc, prod);
    }
    _mm256_storeu_pd(y + o, acc);
  }
  return o;
}
#endif

#if defined(QRC_MLP_NEON)
/// Neurons in pairs; returns the first neuron it left to the tail.
int dense_row_neon(const double* w, const double* b, int in_n, int out_n,
                   const double* x, double* y) {
  int o = 0;
  for (; o + 2 <= out_n; o += 2) {
    float64x2_t acc = vld1q_f64(b + o);
    const double* wp = w + o;
    for (int i = 0; i < in_n; ++i, wp += out_n) {
      const float64x2_t prod = vmulq_f64(vld1q_f64(wp), vdupq_n_f64(x[i]));
      acc = vaddq_f64(acc, prod);
    }
    vst1q_f64(y + o, acc);
  }
  return o;
}
#endif

enum class SimdIsa { kPortable, kAvx2, kNeon };

SimdIsa detect_isa() {
  if (const char* env = std::getenv("QRC_SIMD")) {
    const std::string want(env);
    if (want == "portable" || want == "scalar") {
      return SimdIsa::kPortable;
    }
    if (want == "avx2") {
#if defined(QRC_MLP_X86)
      if (__builtin_cpu_supports("avx2")) {
        return SimdIsa::kAvx2;
      }
#endif
      return SimdIsa::kPortable;
    }
    if (want == "neon") {
#if defined(QRC_MLP_NEON)
      return SimdIsa::kNeon;
#else
      return SimdIsa::kPortable;
#endif
    }
    // Unknown value: fall through to auto-detection.
  }
#if defined(QRC_MLP_X86)
  if (__builtin_cpu_supports("avx2")) {
    return SimdIsa::kAvx2;
  }
#endif
#if defined(QRC_MLP_NEON)
  return SimdIsa::kNeon;
#else
  return SimdIsa::kPortable;
#endif
}

/// The kernel for this process, chosen once (first use).
SimdIsa active_isa() {
  static const SimdIsa isa = detect_isa();
  return isa;
}

/// One sample through one layer on kernel `isa`, tanh'd on hidden layers.
void dense_row(SimdIsa isa, const double* w, const double* b, int in_n,
               int out_n, const double* x, double* y, bool hidden) {
  int o = 0;
#if defined(QRC_MLP_X86)
  if (isa == SimdIsa::kAvx2) {
    o = dense_row_avx2(w, b, in_n, out_n, x, y);
  }
#endif
#if defined(QRC_MLP_NEON)
  if (isa == SimdIsa::kNeon) {
    o = dense_row_neon(w, b, in_n, out_n, x, y);
  }
#endif
  dense_row_tail(w, b, in_n, out_n, o, x, y);
  if (hidden) {
    for (int j = 0; j < out_n; ++j) {
      y[j] = std::tanh(y[j]);
    }
  }
}

/// Calls fn(k) for every weight index k = i * out + o of `layer`, neuron
/// by neuron (o outer, i inner): the order of initialisation, of the
/// optimizer's flat parameter list and of the model file.
template <typename LayerT, typename Fn>
void for_each_weight_by_neuron(const LayerT& layer, Fn fn) {
  const auto in_n = static_cast<std::size_t>(layer.in);
  const auto out_n = static_cast<std::size_t>(layer.out);
  for (std::size_t o = 0; o < out_n; ++o) {
    for (std::size_t i = 0; i < in_n; ++i) {
      fn(i * out_n + o);
    }
  }
}

/// Backpropagates row `r` of the cached levels (see Mlp::forward_rows)
/// through every layer, adding the row's parameter gradients: `grad` holds
/// dL/d(output) on entry, `grad_in` is scratch. Always inlined, so that its
/// loops vectorize for the ISA of each caller; every element sees the same
/// mul-then-add sequence on each.
template <typename LayerT>
[[gnu::always_inline]] inline void backward_row(
    std::vector<LayerT>& layers, const double* const* levels, std::size_t r,
    std::vector<double>& grad, std::vector<double>& grad_in) {
  for (std::size_t li = layers.size(); li-- > 0;) {
    LayerT& layer = layers[li];
    const auto in_n = static_cast<std::size_t>(layer.in);
    const auto out_n = static_cast<std::size_t>(layer.out);
    const double* x = levels[li] + r * in_n;
    const double* a = levels[li + 1] + r * out_n;
    // grad becomes dL/dz; for hidden layers the cached activation is
    // tanh(z), and d tanh = 1 - a^2.
    const bool is_output = li + 1 == layers.size();
    for (std::size_t o = 0; o < out_n; ++o) {
      grad[o] *= is_output ? 1.0 : (1.0 - a[o] * a[o]);
    }
    // Each input's gradient sums over the neurons in ascending order.
    grad_in.resize(in_n);
    for (std::size_t i = 0; i < in_n; ++i) {
      const double* wrow = layer.w.data() + i * out_n;
      double* grow = layer.gw.data() + i * out_n;
      double acc = 0.0;
      for (std::size_t o = 0; o < out_n; ++o) {
        grow[o] += grad[o] * x[i];
        acc += grad[o] * wrow[o];
      }
      grad_in[i] = acc;
    }
    for (std::size_t o = 0; o < out_n; ++o) {
      layer.gb[o] += grad[o];
    }
    std::swap(grad, grad_in);
  }
}

#if defined(QRC_MLP_X86)
template <typename LayerT>
__attribute__((target("avx2"))) void backward_row_avx2(
    std::vector<LayerT>& layers, const double* const* levels, std::size_t r,
    std::vector<double>& grad, std::vector<double>& grad_in) {
  backward_row(layers, levels, r, grad, grad_in);
}
#endif

/// Largest network Mlp::load accepts; a {7, 64, 64, 29} policy has 6,557.
constexpr std::size_t kMaxParameters = std::size_t{1} << 22;

}  // namespace

const char* simd_kernel_name() {
  switch (active_isa()) {
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kNeon:
      return "neon";
    default:
      return "portable";
  }
}

Mlp::Mlp(std::vector<int> sizes, std::uint64_t seed)
    : sizes_(std::move(sizes)) {
  if (sizes_.size() < 2) {
    throw std::invalid_argument("Mlp: need at least input and output sizes");
  }
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> gauss(0.0, 1.0);
  for (std::size_t i = 0; i + 1 < sizes_.size(); ++i) {
    Layer layer;
    layer.in = sizes_[i];
    layer.out = sizes_[i + 1];
    const double scale = std::sqrt(2.0 / static_cast<double>(layer.in));
    layer.w.resize(static_cast<std::size_t>(layer.in) *
                   static_cast<std::size_t>(layer.out));
    for_each_weight_by_neuron(
        layer, [&](std::size_t k) { layer.w[k] = gauss(rng) * scale; });
    layer.b.assign(static_cast<std::size_t>(layer.out), 0.0);
    layer.gw.assign(layer.w.size(), 0.0);
    layer.gb.assign(layer.b.size(), 0.0);
    layers_.push_back(std::move(layer));
  }
  acts_.resize(layers_.size() + 1);
}

std::vector<double> Mlp::forward(std::span<const double> input) const {
  if (static_cast<int>(input.size()) != input_size()) {
    throw std::invalid_argument("Mlp::forward: input size mismatch");
  }
  std::vector<double> cur(input.begin(), input.end());
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& layer = layers_[li];
    std::vector<double> next(static_cast<std::size_t>(layer.out));
    dense_row(SimdIsa::kPortable, layer.w.data(), layer.b.data(), layer.in,
              layer.out, cur.data(), next.data(),
              /*hidden=*/li + 1 < layers_.size());
    cur = std::move(next);
  }
  return cur;
}

std::vector<double> Mlp::forward_cached(std::span<const double> input) {
  if (static_cast<int>(input.size()) != input_size()) {
    throw std::invalid_argument("Mlp::forward_cached: input size mismatch");
  }
  acts_[0].assign(input.begin(), input.end());
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& layer = layers_[li];
    auto& out = acts_[li + 1];
    out.assign(static_cast<std::size_t>(layer.out), 0.0);
    dense_row(SimdIsa::kPortable, layer.w.data(), layer.b.data(), layer.in,
              layer.out, acts_[li].data(), out.data(),
              /*hidden=*/li + 1 < layers_.size());
  }
  return acts_.back();
}

void Mlp::forward_rows(double* const* levels, int row_begin,
                       int row_end) const {
  const SimdIsa isa = active_isa();
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& layer = layers_[li];
    const double* in = levels[li];
    double* out = levels[li + 1];
    const bool hidden = li + 1 < layers_.size();
    for (int r = row_begin; r < row_end; ++r) {
      dense_row(isa, layer.w.data(), layer.b.data(), layer.in, layer.out,
                in + static_cast<std::size_t>(r) *
                         static_cast<std::size_t>(layer.in),
                out + static_cast<std::size_t>(r) *
                          static_cast<std::size_t>(layer.out),
                hidden);
    }
  }
}

namespace {

/// Rows per worker chunk of a batched forward; amortizes pool dispatch
/// while leaving enough chunks for load balancing.
constexpr int kRowBlock = 8;

}  // namespace

void Mlp::run_batch(double* const* levels, int batch,
                    WorkerPool* pool) const {
  if (pool != nullptr && pool->size() > 1 && batch > 1) {
    const int blocks = (batch + kRowBlock - 1) / kRowBlock;
    pool->parallel_for(blocks, [&](int blk) {
      const int begin = blk * kRowBlock;
      const int end = std::min(batch, begin + kRowBlock);
      forward_rows(levels, begin, end);
    });
  } else {
    forward_rows(levels, 0, batch);
  }
}

void Mlp::forward_batch(std::span<const double> inputs, int batch,
                        std::vector<double>& outputs,
                        WorkerPool* pool) const {
  if (batch < 0 ||
      inputs.size() != static_cast<std::size_t>(batch) *
                           static_cast<std::size_t>(input_size())) {
    throw std::invalid_argument("Mlp::forward_batch: input size mismatch");
  }
  if (batch == 0) {
    outputs.clear();
    return;
  }
  const std::size_t levels_n = layers_.size() + 1;
  outputs.resize(static_cast<std::size_t>(batch) *
                 static_cast<std::size_t>(output_size()));
  // Intermediate activations live in one flat thread-local arena reused
  // across calls (per caller thread, so concurrent const calls on a shared
  // instance stay independent); the last layer writes straight into the
  // caller's output buffer.
  thread_local std::vector<double> arena;
  thread_local std::vector<double*> levels;
  levels.assign(levels_n, nullptr);
  std::size_t total = 0;
  for (std::size_t k = 1; k + 1 < levels_n; ++k) {
    total += static_cast<std::size_t>(batch) *
             static_cast<std::size_t>(sizes_[k]);
  }
  if (arena.size() < total) {
    arena.resize(total);
  }
  // Level 0 is read-only throughout forward_rows; the cast only lets the
  // input share the levels array with the writable buffers.
  levels[0] = const_cast<double*>(inputs.data());
  std::size_t off = 0;
  for (std::size_t k = 1; k + 1 < levels_n; ++k) {
    levels[k] = arena.data() + off;
    off += static_cast<std::size_t>(batch) *
           static_cast<std::size_t>(sizes_[k]);
  }
  levels[levels_n - 1] = outputs.data();
  run_batch(levels.data(), batch, pool);
}

const std::vector<double>& Mlp::forward_batch_cached(
    std::span<const double> inputs, int batch, WorkerPool* pool) {
  if (batch < 1 ||
      inputs.size() != static_cast<std::size_t>(batch) *
                           static_cast<std::size_t>(input_size())) {
    throw std::invalid_argument(
        "Mlp::forward_batch_cached: input size mismatch");
  }
  batch_size_ = batch;
  const std::size_t num_layers = layers_.size();
  // Levels 0..L-1 (input + hidden activations) pack into one flat arena
  // kept for backward_batch; the output level stays its own vector so the
  // returned reference survives unrelated calls.
  batch_off_.assign(num_layers, 0);
  std::size_t total = 0;
  for (std::size_t k = 0; k < num_layers; ++k) {
    batch_off_[k] = total;
    total += static_cast<std::size_t>(batch) *
             static_cast<std::size_t>(sizes_[k]);
  }
  if (batch_arena_.size() < total) {
    batch_arena_.resize(total);
  }
  batch_out_.resize(static_cast<std::size_t>(batch) *
                    static_cast<std::size_t>(output_size()));
  std::copy(inputs.begin(), inputs.end(),
            batch_arena_.begin() +
                static_cast<std::ptrdiff_t>(batch_off_[0]));
  thread_local std::vector<double*> levels;
  levels.assign(num_layers + 1, nullptr);
  for (std::size_t k = 0; k < num_layers; ++k) {
    levels[k] = batch_arena_.data() + batch_off_[k];
  }
  levels[num_layers] = batch_out_.data();
  run_batch(levels.data(), batch, pool);
  return batch_out_;
}

void Mlp::backward_batch(std::span<const double> grad_outputs, int batch) {
  if (batch != batch_size_ ||
      grad_outputs.size() != static_cast<std::size_t>(batch) *
                                 static_cast<std::size_t>(output_size())) {
    throw std::invalid_argument("Mlp::backward_batch: gradient size mismatch");
  }
  const std::size_t num_layers = layers_.size();
  std::vector<const double*> levels(num_layers + 1);
  for (std::size_t k = 0; k < num_layers; ++k) {
    levels[k] = batch_arena_.data() + batch_off_[k];
  }
  levels[num_layers] = batch_out_.data();
  backward_rows(levels.data(), batch, grad_outputs.data());
}

void Mlp::backward(std::span<const double> grad_output) {
  if (static_cast<int>(grad_output.size()) != output_size()) {
    throw std::invalid_argument("Mlp::backward: gradient size mismatch");
  }
  std::vector<const double*> levels;
  for (const auto& act : acts_) {
    levels.push_back(act.data());
  }
  backward_rows(levels.data(), 1, grad_output.data());
}

void Mlp::backward_rows(const double* const* levels, int rows,
                        const double* grad_out) {
  const auto out_n = static_cast<std::size_t>(output_size());
  std::vector<double> grad;
  std::vector<double> grad_in;
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) {
    grad.assign(grad_out + r * out_n, grad_out + (r + 1) * out_n);
#if defined(QRC_MLP_X86)
    if (active_isa() == SimdIsa::kAvx2) {
      backward_row_avx2(layers_, levels, r, grad, grad_in);
      continue;
    }
#endif
    backward_row(layers_, levels, r, grad, grad_in);
  }
}

void Mlp::zero_grad() {
  for (Layer& layer : layers_) {
    std::fill(layer.gw.begin(), layer.gw.end(), 0.0);
    std::fill(layer.gb.begin(), layer.gb.end(), 0.0);
  }
}

void Mlp::collect_parameters(std::vector<double*>& params,
                             std::vector<double*>& grads) {
  for (Layer& layer : layers_) {
    for_each_weight_by_neuron(layer, [&](std::size_t k) {
      params.push_back(&layer.w[k]);
      grads.push_back(&layer.gw[k]);
    });
    for (std::size_t i = 0; i < layer.b.size(); ++i) {
      params.push_back(&layer.b[i]);
      grads.push_back(&layer.gb[i]);
    }
  }
}

void Mlp::save(std::ostream& os) const {
  os << "mlp " << sizes_.size() << "\n";
  for (const int s : sizes_) {
    os << s << " ";
  }
  os << "\n";
  os.precision(17);
  for (const Layer& layer : layers_) {
    for_each_weight_by_neuron(
        layer, [&](std::size_t k) { os << layer.w[k] << " "; });
    for (const double v : layer.b) {
      os << v << " ";
    }
    os << "\n";
  }
}

Mlp Mlp::load(std::istream& is) {
  std::string tag;
  std::size_t n_sizes = 0;
  is >> tag >> n_sizes;
  if (tag != "mlp" || n_sizes < 2 || n_sizes > 64) {
    throw std::runtime_error("Mlp::load: bad header");
  }
  std::vector<int> sizes(n_sizes);
  for (int& s : sizes) {
    is >> s;
    if (s < 1 || s > 65536) {
      throw std::runtime_error("Mlp::load: bad layer size");
    }
  }
  std::size_t parameters = 0;
  for (std::size_t k = 0; k + 1 < n_sizes; ++k) {
    parameters += (static_cast<std::size_t>(sizes[k]) + 1) *
                  static_cast<std::size_t>(sizes[k + 1]);
  }
  if (parameters > kMaxParameters) {
    throw std::runtime_error("Mlp::load: " + std::to_string(parameters) +
                             " parameters; at most " +
                             std::to_string(kMaxParameters));
  }
  Mlp out(sizes, 0);
  for (Layer& layer : out.layers_) {
    for_each_weight_by_neuron(layer, [&](std::size_t k) { is >> layer.w[k]; });
    for (double& v : layer.b) {
      is >> v;
    }
  }
  if (!is) {
    throw std::runtime_error("Mlp::load: truncated parameter data");
  }
  return out;
}

}  // namespace qrc::rl
