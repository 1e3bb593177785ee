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
/// overridable with QRC_SIMD=portable|avx2|neon). Each layer keeps one
/// input-major weight array, which the optimizer updates in place and
/// every kernel reads: vector lanes run across adjacent *output neurons*
/// while each neuron's i-accumulation stays sequential (mul then add per
/// step, no FMA), so SIMD results are bitwise-identical to the scalar
/// path. Activations live in flat per-call arenas reused across calls
/// instead of per-call vector-of-vectors.
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
  /// layer 0 weights, layer 0 biases, layer 1 weights, ...; each layer's
  /// weights neuron by neuron, as in the model file). The optimizer may
  /// update the weights through these pointers at any time; every forward
  /// reads them directly.
  void collect_parameters(std::vector<double*>& params,
                          std::vector<double*>& grads);

  /// Text (de)serialisation; layout validated on read, and a network of
  /// more than 2^22 parameters is rejected before anything is allocated.
  void save(std::ostream& os) const;
  static Mlp load(std::istream& is);

 private:
  struct Layer {
    int in = 0;
    int out = 0;
    /// in x out, input major: w[i * out + o] weighs input i in neuron o,
    /// so the weights of adjacent neurons for one input are adjacent.
    std::vector<double> w;
    std::vector<double> b;   // out
    std::vector<double> gw;  // gradient accumulators, laid out like w
    std::vector<double> gb;
  };

  /// Runs rows [row_begin, row_end) through every layer. `levels[k]` is
  /// the base of the row-major [batch x sizes_[k]] buffer of level k
  /// (level 0 = input, never written).
  void forward_rows(double* const* levels, int row_begin, int row_end) const;
  void run_batch(double* const* levels, int batch, WorkerPool* pool) const;

  /// Backpropagates the row-major dL/d(output) `grad_out` of `rows`
  /// cached rows (levels as in forward_rows), adding the parameter
  /// gradients row by row in ascending order.
  void backward_rows(const double* const* levels, int rows,
                     const double* grad_out);

  std::vector<int> sizes_;
  std::vector<Layer> layers_;
  // Cached activations: acts_[0] = input, acts_[k] = post-activation of
  // layer k-1.
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
