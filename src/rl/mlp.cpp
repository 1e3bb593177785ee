#include "rl/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
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
// All kernels compute, for one sample x, y[o] = b[o] + sum_i w[o][i] * x[i]
// with the i-accumulation strictly sequential and one IEEE multiply + one
// IEEE add per step (never an FMA; the library is built with
// -ffp-contract=off so the compiler cannot fuse them either). The vector
// kernels put adjacent *output neurons* in adjacent lanes — each lane
// executes exactly the scalar op sequence of its neuron — so every variant
// is bitwise-identical to the portable one. The hidden-layer tanh is the
// same std::tanh per element everywhere.

/// Reference kernel over the row-major [out x in] weights.
void dense_row_portable(const double* w, const double* b, int in_n, int out_n,
                        const double* x, double* y, bool hidden) {
  for (int o = 0; o < out_n; ++o) {
    double acc = b[o];
    const double* wrow = w + static_cast<std::size_t>(o) *
                                 static_cast<std::size_t>(in_n);
    for (int i = 0; i < in_n; ++i) {
      acc += wrow[i] * x[i];
    }
    y[o] = hidden ? std::tanh(acc) : acc;
  }
}

/// Scalar tail over the transposed [in x out] weights (strided loads).
void dense_row_tail(const double* wt, const double* b, int in_n, int out_n,
                    int o_begin, const double* x, double* y) {
  for (int o = o_begin; o < out_n; ++o) {
    double acc = b[o];
    const double* wp = wt + o;
    for (int i = 0; i < in_n; ++i, wp += out_n) {
      acc += *wp * x[i];
    }
    y[o] = acc;
  }
}

#if defined(QRC_MLP_X86)
__attribute__((target("avx2")))
void dense_row_avx2(const double* wt, const double* b, int in_n, int out_n,
                    const double* x, double* y, bool hidden) {
  int o = 0;
  for (; o + 4 <= out_n; o += 4) {
    __m256d acc = _mm256_loadu_pd(b + o);
    const double* wp = wt + o;
    for (int i = 0; i < in_n; ++i, wp += out_n) {
      const __m256d prod =
          _mm256_mul_pd(_mm256_loadu_pd(wp), _mm256_set1_pd(x[i]));
      acc = _mm256_add_pd(acc, prod);
    }
    _mm256_storeu_pd(y + o, acc);
  }
  dense_row_tail(wt, b, in_n, out_n, o, x, y);
  if (hidden) {
    for (int j = 0; j < out_n; ++j) {
      y[j] = std::tanh(y[j]);
    }
  }
}
#endif

#if defined(QRC_MLP_NEON)
void dense_row_neon(const double* wt, const double* b, int in_n, int out_n,
                    const double* x, double* y, bool hidden) {
  int o = 0;
  for (; o + 2 <= out_n; o += 2) {
    float64x2_t acc = vld1q_f64(b + o);
    const double* wp = wt + o;
    for (int i = 0; i < in_n; ++i, wp += out_n) {
      const float64x2_t prod = vmulq_f64(vld1q_f64(wp), vdupq_n_f64(x[i]));
      acc = vaddq_f64(acc, prod);
    }
    vst1q_f64(y + o, acc);
  }
  dense_row_tail(wt, b, in_n, out_n, o, x, y);
  if (hidden) {
    for (int j = 0; j < out_n; ++j) {
      y[j] = std::tanh(y[j]);
    }
  }
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

/// Builds the per-layer [in x out] transposes used by the vector kernels.
template <typename LayerT>
void transpose_weights(const std::vector<LayerT>& layers,
                       std::vector<std::vector<double>>& wt) {
  wt.resize(layers.size());
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const auto& layer = layers[li];
    auto& t = wt[li];
    t.resize(layer.w.size());
    for (int o = 0; o < layer.out; ++o) {
      const double* wrow = layer.w.data() + static_cast<std::size_t>(o) *
                                                static_cast<std::size_t>(
                                                    layer.in);
      for (int i = 0; i < layer.in; ++i) {
        t[static_cast<std::size_t>(i) * static_cast<std::size_t>(layer.out) +
          static_cast<std::size_t>(o)] = wrow[i];
      }
    }
  }
}

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
    layer.w.resize(static_cast<std::size_t>(layer.in * layer.out));
    for (double& v : layer.w) {
      v = gauss(rng) * scale;
    }
    layer.b.assign(static_cast<std::size_t>(layer.out), 0.0);
    layer.gw.assign(layer.w.size(), 0.0);
    layer.gb.assign(layer.b.size(), 0.0);
    layers_.push_back(std::move(layer));
  }
  acts_.resize(layers_.size() + 1);
  rebuild_transposes();
}

void Mlp::rebuild_transposes() { transpose_weights(layers_, wt_); }

const double* const* Mlp::vector_weights(
    std::vector<const double*>& ptrs) const {
  if (active_isa() == SimdIsa::kPortable) {
    return nullptr;
  }
  ptrs.resize(layers_.size());
  if (!weights_shared_) {
    for (std::size_t li = 0; li < layers_.size(); ++li) {
      ptrs[li] = wt_[li].data();
    }
    return ptrs.data();
  }
  // Training mode: the optimizer owns raw weight pointers, so re-transpose
  // on every batched forward. Thread-local scratch keeps concurrent const
  // calls on a shared instance race-free.
  thread_local std::vector<std::vector<double>> scratch;
  transpose_weights(layers_, scratch);
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    ptrs[li] = scratch[li].data();
  }
  return ptrs.data();
}

std::vector<double> Mlp::forward(std::span<const double> input) const {
  if (static_cast<int>(input.size()) != input_size()) {
    throw std::invalid_argument("Mlp::forward: input size mismatch");
  }
  std::vector<double> cur(input.begin(), input.end());
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& layer = layers_[li];
    std::vector<double> next(static_cast<std::size_t>(layer.out));
    dense_row_portable(layer.w.data(), layer.b.data(), layer.in, layer.out,
                       cur.data(), next.data(),
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
    dense_row_portable(layer.w.data(), layer.b.data(), layer.in, layer.out,
                       acts_[li].data(), out.data(),
                       /*hidden=*/li + 1 < layers_.size());
  }
  return acts_.back();
}

void Mlp::forward_rows(double* const* levels, const double* const* wt,
                       int row_begin, int row_end) const {
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& layer = layers_[li];
    const double* in = levels[li];
    double* out = levels[li + 1];
    const bool hidden = li + 1 < layers_.size();
    for (int r = row_begin; r < row_end; ++r) {
      const double* x = in + static_cast<std::size_t>(r) *
                                 static_cast<std::size_t>(layer.in);
      double* y = out + static_cast<std::size_t>(r) *
                            static_cast<std::size_t>(layer.out);
      if (wt == nullptr) {
        dense_row_portable(layer.w.data(), layer.b.data(), layer.in,
                           layer.out, x, y, hidden);
#if defined(QRC_MLP_X86)
      } else if (active_isa() == SimdIsa::kAvx2) {
        dense_row_avx2(wt[li], layer.b.data(), layer.in, layer.out, x, y,
                       hidden);
#endif
#if defined(QRC_MLP_NEON)
      } else if (active_isa() == SimdIsa::kNeon) {
        dense_row_neon(wt[li], layer.b.data(), layer.in, layer.out, x, y,
                       hidden);
#endif
      } else {
        dense_row_portable(layer.w.data(), layer.b.data(), layer.in,
                           layer.out, x, y, hidden);
      }
    }
  }
}

namespace {

/// Rows per worker chunk of a batched forward; amortizes pool dispatch
/// while leaving enough chunks for load balancing.
constexpr int kRowBlock = 8;

}  // namespace

void Mlp::run_batch(double* const* levels, const double* const* wt, int batch,
                    WorkerPool* pool) const {
  if (pool != nullptr && pool->size() > 1 && batch > 1) {
    const int blocks = (batch + kRowBlock - 1) / kRowBlock;
    pool->parallel_for(blocks, [&](int blk) {
      const int begin = blk * kRowBlock;
      const int end = std::min(batch, begin + kRowBlock);
      forward_rows(levels, wt, begin, end);
    });
  } else {
    forward_rows(levels, wt, 0, batch);
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
  thread_local std::vector<const double*> wt_ptrs;
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
  run_batch(levels.data(), vector_weights(wt_ptrs), batch, pool);
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
  thread_local std::vector<const double*> wt_ptrs;
  levels.assign(num_layers + 1, nullptr);
  for (std::size_t k = 0; k < num_layers; ++k) {
    levels[k] = batch_arena_.data() + batch_off_[k];
  }
  levels[num_layers] = batch_out_.data();
  run_batch(levels.data(), vector_weights(wt_ptrs), batch, pool);
  return batch_out_;
}

void Mlp::backward_batch(std::span<const double> grad_outputs, int batch) {
  if (batch != batch_size_ ||
      grad_outputs.size() != static_cast<std::size_t>(batch) *
                                 static_cast<std::size_t>(output_size())) {
    throw std::invalid_argument("Mlp::backward_batch: gradient size mismatch");
  }
  // Row r of the batch replays the scalar backward() on row r's cached
  // activations. Rows run in ascending order so each gradient accumulator
  // receives its per-sample contributions in the same sequence as `batch`
  // scalar backward() calls — bitwise-identical accumulation.
  const auto num_layers = static_cast<int>(layers_.size());
  const auto cached_level = [&](int k) -> const double* {
    return k == num_layers ? batch_out_.data()
                           : batch_arena_.data() + batch_off_[
                                 static_cast<std::size_t>(k)];
  };
  std::vector<double> grad;
  std::vector<double> grad_in;
  std::vector<double> dz;
  for (int r = 0; r < batch; ++r) {
    const double* g0 = grad_outputs.data() +
                       static_cast<std::size_t>(r) *
                           static_cast<std::size_t>(output_size());
    grad.assign(g0, g0 + output_size());
    for (int li = num_layers - 1; li >= 0; --li) {
      Layer& layer = layers_[static_cast<std::size_t>(li)];
      const double* in =
          cached_level(li) +
          static_cast<std::size_t>(r) * static_cast<std::size_t>(layer.in);
      const double* out =
          cached_level(li + 1) +
          static_cast<std::size_t>(r) * static_cast<std::size_t>(layer.out);
      const bool is_output = li == num_layers - 1;
      dz.resize(static_cast<std::size_t>(layer.out));
      for (int o = 0; o < layer.out; ++o) {
        const double a = out[o];
        dz[static_cast<std::size_t>(o)] =
            grad[static_cast<std::size_t>(o)] *
            (is_output ? 1.0 : (1.0 - a * a));
      }
      grad_in.assign(static_cast<std::size_t>(layer.in), 0.0);
      for (int o = 0; o < layer.out; ++o) {
        const double d = dz[static_cast<std::size_t>(o)];
        double* grow = &layer.gw[static_cast<std::size_t>(o * layer.in)];
        const double* wrow = &layer.w[static_cast<std::size_t>(o * layer.in)];
        for (int i = 0; i < layer.in; ++i) {
          grow[i] += d * in[i];
          grad_in[static_cast<std::size_t>(i)] += d * wrow[i];
        }
        layer.gb[static_cast<std::size_t>(o)] += d;
      }
      std::swap(grad, grad_in);
    }
  }
}

void Mlp::backward(std::span<const double> grad_output) {
  if (static_cast<int>(grad_output.size()) != output_size()) {
    throw std::invalid_argument("Mlp::backward: gradient size mismatch");
  }
  std::vector<double> grad(grad_output.begin(), grad_output.end());
  for (int li = static_cast<int>(layers_.size()) - 1; li >= 0; --li) {
    Layer& layer = layers_[static_cast<std::size_t>(li)];
    const auto& in = acts_[static_cast<std::size_t>(li)];
    const auto& out = acts_[static_cast<std::size_t>(li) + 1];
    // For hidden layers the stored activation is tanh(z); d tanh = 1 - a^2.
    std::vector<double> dz(static_cast<std::size_t>(layer.out));
    const bool is_output = li == static_cast<int>(layers_.size()) - 1;
    for (int o = 0; o < layer.out; ++o) {
      const double a = out[static_cast<std::size_t>(o)];
      dz[static_cast<std::size_t>(o)] =
          grad[static_cast<std::size_t>(o)] *
          (is_output ? 1.0 : (1.0 - a * a));
    }
    std::vector<double> grad_in(static_cast<std::size_t>(layer.in), 0.0);
    for (int o = 0; o < layer.out; ++o) {
      const double d = dz[static_cast<std::size_t>(o)];
      double* grow = &layer.gw[static_cast<std::size_t>(o * layer.in)];
      const double* wrow = &layer.w[static_cast<std::size_t>(o * layer.in)];
      for (int i = 0; i < layer.in; ++i) {
        grow[i] += d * in[static_cast<std::size_t>(i)];
        grad_in[static_cast<std::size_t>(i)] += d * wrow[i];
      }
      layer.gb[static_cast<std::size_t>(o)] += d;
    }
    grad = std::move(grad_in);
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
  // From here on the optimizer may rewrite weights through these pointers
  // at any time; vector_weights() switches to per-call re-transposition.
  weights_shared_ = true;
  for (Layer& layer : layers_) {
    for (std::size_t i = 0; i < layer.w.size(); ++i) {
      params.push_back(&layer.w[i]);
      grads.push_back(&layer.gw[i]);
    }
    for (std::size_t i = 0; i < layer.b.size(); ++i) {
      params.push_back(&layer.b[i]);
      grads.push_back(&layer.gb[i]);
    }
  }
}

Mlp Mlp::snapshot() const {
  Mlp copy(*this);
  copy.weights_shared_ = false;
  copy.rebuild_transposes();
  return copy;
}

void Mlp::save(std::ostream& os) const {
  os << "mlp " << sizes_.size() << "\n";
  for (const int s : sizes_) {
    os << s << " ";
  }
  os << "\n";
  os.precision(17);
  for (const Layer& layer : layers_) {
    for (const double v : layer.w) {
      os << v << " ";
    }
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
  Mlp out(sizes, 0);
  for (Layer& layer : out.layers_) {
    for (double& v : layer.w) {
      is >> v;
    }
    for (double& v : layer.b) {
      is >> v;
    }
  }
  if (!is) {
    throw std::runtime_error("Mlp::load: truncated parameter data");
  }
  out.rebuild_transposes();
  return out;
}

}  // namespace qrc::rl
