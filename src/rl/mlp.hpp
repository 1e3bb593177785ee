/// \file mlp.hpp
/// \brief Minimal dense network with tanh hidden activations, manual
///        backpropagation and text serialisation — the function
///        approximator behind the PPO policy and value heads.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

namespace qrc::rl {

class WorkerPool;

/// Name of the dense-kernel ISA selected for this process: "avx2", "neon"
/// or "portable". Chosen once at first use from the host CPU, overridable
/// with QRC_SIMD=portable|avx2|neon (used by benches and the CI
/// runtime-dispatch check).
[[nodiscard]] const char* simd_kernel_name();

/// Fully connected network: linear layers with tanh on all hidden layers
/// and a linear output layer. Parameters and gradients are stored per
/// layer; backward() accumulates gradients (call zero_grad() between
/// batches).
///
/// Besides the per-sample entry points, the network has a batched path
/// (forward_batch / forward_batch_cached / backward_batch) operating on
/// row-major [batch x width] buffers. Each row is computed with exactly
/// the same operation order as the scalar path, so batched results are
/// bitwise-identical to N scalar calls — with or without a WorkerPool
/// splitting the rows across threads.
///
/// The batched dense kernel is explicitly vectorized (AVX2 on x86-64,
/// NEON on aarch64, portable scalar fallback; selected once at runtime,
/// overridable with QRC_SIMD=portable|avx2|neon). Vector lanes run across
/// *output neurons* over a transposed [in x out] weight cache while each
/// neuron's k-accumulation stays sequential (mul then add per step, no
/// FMA), so SIMD results are bitwise-identical to the scalar path.
/// Activations live in flat per-call arenas reused across calls instead
/// of per-call vector-of-vectors.
class Mlp {
 public:
  /// \param sizes layer widths, e.g. {7, 64, 64, 30}.
  /// \param seed weight initialisation seed (orthogonal-ish scaled normal).
  Mlp(std::vector<int> sizes, std::uint64_t seed);

  [[nodiscard]] int input_size() const { return sizes_.front(); }
  [[nodiscard]] int output_size() const { return sizes_.back(); }

  /// Plain inference (no caching).
  [[nodiscard]] std::vector<double> forward(
      std::span<const double> input) const;

  /// Forward pass that caches activations for a following backward().
  [[nodiscard]] std::vector<double> forward_cached(
      std::span<const double> input);

  /// Backpropagates dL/d(output) for the sample of the last
  /// forward_cached() call, accumulating parameter gradients.
  void backward(std::span<const double> grad_output);

  /// Batched inference: `inputs` holds `batch` row-major samples of
  /// input_size() each; `outputs` is resized to batch x output_size().
  /// When `pool` is non-null the rows are distributed across its workers
  /// (each row is an independent computation, so the result does not
  /// depend on the worker count).
  void forward_batch(std::span<const double> inputs, int batch,
                     std::vector<double>& outputs,
                     WorkerPool* pool = nullptr) const;

  /// Batched forward pass that caches all per-row activations for a
  /// following backward_batch(). Returns the row-major batch output.
  const std::vector<double>& forward_batch_cached(
      std::span<const double> inputs, int batch, WorkerPool* pool = nullptr);

  /// Backpropagates the row-major dL/d(output) of every sample of the last
  /// forward_batch_cached() call, accumulating parameter gradients. Rows
  /// are processed in ascending order, so the per-parameter accumulation
  /// sequence matches `batch` scalar forward_cached()/backward() pairs
  /// bitwise.
  void backward_batch(std::span<const double> grad_outputs, int batch);

  void zero_grad();

  /// Parameter and gradient access for the optimizer (flat order:
  /// layer 0 weights, layer 0 biases, layer 1 weights, ...).
  void collect_parameters(std::vector<double*>& params,
                          std::vector<double*>& grads);

  /// A copy that owns its weights: no optimizer holds pointers into it,
  /// so its transposed weights are built once here and every batched
  /// forward reuses them. PPO takes one per update for its rollout
  /// forwards while the live network keeps training.
  [[nodiscard]] Mlp snapshot() const;

  /// Text (de)serialisation; layout validated on read.
  void save(std::ostream& os) const;
  static Mlp load(std::istream& is);

 private:
  struct Layer {
    int in = 0;
    int out = 0;
    std::vector<double> w;   // out x in, row major
    std::vector<double> b;   // out
    std::vector<double> gw;  // gradient accumulators
    std::vector<double> gb;
  };

  /// Runs rows [row_begin, row_end) through every layer. `levels[k]` is
  /// the base of the row-major [batch x sizes_[k]] buffer of level k
  /// (level 0 = input, never written). `wt` is the per-layer transposed
  /// [in x out] weight array for the vectorized kernel, or nullptr to
  /// force the portable row-major path.
  void forward_rows(double* const* levels, const double* const* wt,
                    int row_begin, int row_end) const;
  void run_batch(double* const* levels, const double* const* wt, int batch,
                 WorkerPool* pool) const;

  /// Fills `ptrs` with the per-layer transposed weights the vector kernel
  /// should use and returns ptrs.data(), or nullptr when the portable
  /// kernel is active. While the optimizer may be mutating weights
  /// in place (weights_shared_), the transpose is rebuilt into
  /// thread-local scratch on every call instead of trusting wt_.
  const double* const* vector_weights(std::vector<const double*>& ptrs) const;
  void rebuild_transposes();

  std::vector<int> sizes_;
  std::vector<Layer> layers_;
  /// Transposed weights, wt_[li][i * out + o] = w[o * in + i]: lets the
  /// vector kernel load consecutive output-neuron weights per input step.
  /// Valid while the optimizer holds no pointers (see weights_shared_).
  std::vector<std::vector<double>> wt_;
  /// Set once collect_parameters() hands out raw pointers: weights may
  /// change at any time afterwards, so wt_ can no longer be trusted.
  bool weights_shared_ = false;
  // Cached activations: acts_[0] = input, acts_[k] = post-activation of
  // layer k-1; preacts_[k] = pre-activation of layer k.
  std::vector<std::vector<double>> acts_;
  // Batched activation cache of forward_batch_cached, reused across
  // calls: one flat arena holding levels 0..L-1 (input + hidden
  // activations) at batch_off_[k], and the final output in its own
  // buffer so the returned reference stays a real vector.
  std::vector<double> batch_arena_;
  std::vector<std::size_t> batch_off_;
  std::vector<double> batch_out_;
  int batch_size_ = 0;
};

}  // namespace qrc::rl
