// Statistics, host-speed scaling, metric naming and result-line helpers of
// the benchmark harness. Independent of the qrc library so the self-test
// can check them on their own.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point from,
                                       Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point from) {
  return ms_between(from, Clock::now());
}

/// CPU time the calling thread has used, in milliseconds.
[[nodiscard]] double thread_cpu_ms();

/// Thread CPU time, in milliseconds, of one run of a fixed reference
/// computation that does the kinds of work a compile does: scoring swap
/// candidates against a 127x127 distance table, 4x4 complex matrix
/// products, and building, deduplicating, hashing and sorting small gate
/// records. It lives in the benchmark, not the library, so no change to
/// the library moves it; what moves it is how fast the host runs.
[[nodiscard]] double reference_ms();

/// reference_ms() on an undisturbed 4-vCPU cloud host: the speed to which
/// HostSpeed scales measured times.
inline constexpr double kReferenceMs = 8.0;

/// Scales times measured on a shared host to the reference speed. On such
/// a host the same work takes up to 2.5x longer, in CPU time too, for
/// seconds at a time while other tenants load it; the reference
/// computation, run on the same thread right before and right after a
/// timed slice, slows down with it. A slice's time is multiplied by
/// kReferenceMs over the mean of those two runs. Suited to slices on the
/// measuring thread itself; work in another process is scaled by the
/// median of reference runs made throughout it (see the serve workloads).
class HostSpeed {
 public:
  /// Runs the reference computation: call it right before the first slice.
  HostSpeed() { restart(); }

  /// Runs the reference computation again: call it right before a slice
  /// that does not directly follow the previous one.
  void restart() { before_ms_ = reference_ms(); }

  /// `ms`, the time of the slice that just ended, at the reference speed.
  /// The reference run it makes also serves as the next slice's "before".
  [[nodiscard]] double scale(double ms);

 private:
  double before_ms_ = 0.0;
};

/// `ms` measured while reference_ms() took `reference` milliseconds, at
/// the reference speed.
[[nodiscard]] inline double at_reference_speed(double ms, double reference) {
  return ms * kReferenceMs / reference;
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty set.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile `p` (0 < p < 100) of `values`, or nullopt when
/// fewer than `min_beyond` samples lie strictly above its rank: a p99 needs
/// at least 1000 samples, so that it is not just the largest few.
[[nodiscard]] std::optional<double> percentile(std::vector<double> values,
                                               double p,
                                               std::size_t min_beyond = 10);

/// Maps a raw label to a metric name: letters, digits, '_', '.' and '-'
/// are kept, '+' and every other byte become '-', and a name that does
/// not start with a letter or digit gets an 'x' prefix. At most 64 bytes.
[[nodiscard]] std::string sanitize_name(std::string_view raw);

/// `value` as a JSON number with all 17 significant digits; non-finite
/// values become 0 so the line always parses.
[[nodiscard]] std::string json_number(double value);

/// `text` as a quoted JSON string.
[[nodiscard]] std::string json_string(std::string_view text);

/// Metrics of one run, keyed by sanitized name, printed in name order.
class MetricSet {
 public:
  void set(std::string_view name, double value, std::string_view unit);
  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] double value(std::string_view name) const;
  [[nodiscard]] std::string to_json() const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Entry, std::less<>> metrics_;
};

/// Attempted/failed tally over a run's outputs: every output (a compiled
/// circuit, a served request) is one attempt, and it fails when any of its
/// checks fails. The first few reasons are kept for stderr.
class Checks {
 public:
  /// Sets the number of outputs (grows only).
  void outputs(std::size_t n);
  /// Records one check of output `index`; a false `ok` fails the output.
  void expect(std::size_t index, bool ok, const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const { return failed_.size(); }
  [[nodiscard]] std::uint64_t failed() const;
  [[nodiscard]] const std::vector<std::string>& reasons() const {
    return reasons_;
  }

 private:
  std::vector<char> failed_;
  std::vector<std::string> reasons_;
};

/// The last line the benchmark prints: {"correct","attempted","failed",
/// "metrics"}.
[[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const MetricSet& metrics);

}  // namespace perfbench
