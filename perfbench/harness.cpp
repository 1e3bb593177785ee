#include "harness.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <complex>
#include <cstdio>
#include <ctime>
#include <numeric>
#include <utility>

namespace perfbench {

namespace {

/// xorshift32: the reference computation's only source of variety.
struct Xorshift {
  std::uint32_t state;
  std::uint32_t operator()() {
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    return state;
  }
};

struct Gate {
  int kind;
  int q0;
  int q1;
  double param;
};

constexpr int kQubits = 127;
constexpr int kFront = 24;
constexpr std::size_t kGates = 2000;
constexpr std::size_t kSlots = 4096;  // power of two
constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};

/// The reference computation's memory, allocated once per thread: its time
/// must not depend on the state of the process's heap (in a process that
/// held tens of thousands of small objects, fresh allocations made the same
/// computation 40% slower).
struct ReferenceBuffers {
  std::vector<double> dist;
  std::vector<int> layout;
  std::vector<std::pair<int, int>> front;
  std::vector<Gate> gates;
  std::vector<Gate> kept;
  std::vector<std::uint64_t> slots;

  ReferenceBuffers()
      : dist(kQubits * kQubits),
        layout(kQubits),
        front(kFront),
        gates(kGates),
        kept(kGates),
        slots(kSlots) {
    for (int i = 0; i < kQubits; ++i) {
      for (int j = 0; j < kQubits; ++j) {
        dist[static_cast<std::size_t>(i * kQubits + j)] =
            (i == j) ? 0.0 : (i * 7 + j * 13) % 23 + 1.0;
      }
    }
  }
};

/// Routing-style: picks the best of 24 candidate swaps against a front of
/// 24 qubit pairs on a 127-qubit distance table, 4000 times.
double reference_routing(ReferenceBuffers& buf) {
  std::iota(buf.layout.begin(), buf.layout.end(), 0);
  Xorshift rnd{99};
  const auto qubit = [&rnd] { return static_cast<std::size_t>(rnd() % kQubits); };
  for (auto& pair : buf.front) {
    pair = {static_cast<int>(qubit()), static_cast<int>(qubit())};
  }
  const auto cost = [&buf] {
    double h = 0.0;
    for (const auto& [a, b] : buf.front) {
      h += buf.dist[static_cast<std::size_t>(
          buf.layout[static_cast<std::size_t>(a)] * kQubits +
          buf.layout[static_cast<std::size_t>(b)])];
    }
    return h;
  };
  double total = 0.0;
  for (int step = 0; step < 4000; ++step) {
    double best = 1e300;
    std::pair<std::size_t, std::size_t> best_swap{0, 1};
    for (int c = 0; c < kFront; ++c) {
      const std::pair<std::size_t, std::size_t> swap{qubit(), qubit()};
      std::swap(buf.layout[swap.first], buf.layout[swap.second]);
      const double h = cost();
      std::swap(buf.layout[swap.first], buf.layout[swap.second]);
      if (h < best) {
        best = h;
        best_swap = swap;
      }
    }
    std::swap(buf.layout[best_swap.first], buf.layout[best_swap.second]);
    buf.front[static_cast<std::size_t>(step % kFront)] = {
        static_cast<int>(qubit()), static_cast<int>(qubit())};
    total += best;
  }
  return total;
}

/// Resynthesis-style: 12000 products of a 4x4 complex matrix with its own
/// conjugate transpose.
double reference_matrices() {
  using Complex = std::complex<double>;
  Complex m[16];
  Complex r[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = Complex(0.01 * i, 0.02 * (i % 5));
  }
  for (int it = 0; it < 12000; ++it) {
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        Complex s = 0.0;
        for (int k = 0; k < 4; ++k) {
          s += m[i * 4 + k] * std::conj(m[j * 4 + k]);
        }
        r[i * 4 + j] = s * 0.25;
      }
    }
    for (int i = 0; i < 16; ++i) {
      m[i] = r[i] + Complex(1e-3 * (i % 3), 0.0);
    }
  }
  return m[5].real();
}

/// IR-pass-style: fills 2000 gate records, drops adjacent duplicates,
/// counts distinct gates in an open-addressing set and sorts by qubit, 12
/// times.
double reference_records(ReferenceBuffers& buf) {
  Xorshift rnd{7};
  std::size_t total = 0;
  for (int rep = 0; rep < 12; ++rep) {
    for (Gate& g : buf.gates) {
      g = {static_cast<int>(rnd() % 12), static_cast<int>(rnd() % 20),
           static_cast<int>(rnd() % 20), (rnd() % 1000) * 1e-3};
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < kGates; ++i) {
      if (i + 1 < kGates && buf.gates[i].kind == buf.gates[i + 1].kind &&
          buf.gates[i].q0 == buf.gates[i + 1].q0) {
        ++i;
        continue;
      }
      buf.kept[kept++] = buf.gates[i];
    }
    std::fill(buf.slots.begin(), buf.slots.end(), kEmptySlot);
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < kept; ++i) {
      const Gate& g = buf.kept[i];
      const std::uint64_t key = (static_cast<std::uint64_t>(g.kind) << 40) ^
                                (static_cast<std::uint64_t>(g.q0) << 20) ^
                                static_cast<std::uint64_t>(g.q1);
      std::size_t slot = (key * 0x9E3779B97F4A7C15ULL) >> 52;  // 12 bits
      while (buf.slots[slot] != kEmptySlot && buf.slots[slot] != key) {
        slot = (slot + 1) & (kSlots - 1);
      }
      if (buf.slots[slot] == kEmptySlot) {
        buf.slots[slot] = key;
        ++distinct;
      }
    }
    std::sort(buf.kept.begin(),
              buf.kept.begin() + static_cast<std::ptrdiff_t>(kept),
              [](const Gate& a, const Gate& b) {
                return a.q0 != b.q0 ? a.q0 < b.q0 : a.kind < b.kind;
              });
    total += distinct + kept;
  }
  return static_cast<double>(total);
}

}  // namespace

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) +
         1e-6 * static_cast<double>(ts.tv_nsec);
}

double reference_ms() {
  thread_local ReferenceBuffers buffers;
  const double start = thread_cpu_ms();
  // The sum goes through a volatile so that none of the work is elided.
  volatile double sink = reference_routing(buffers) + reference_matrices() +
                         reference_records(buffers);
  (void)sink;
  return thread_cpu_ms() - start;
}

double HostSpeed::scale(double ms) {
  const double after_ms = reference_ms();
  const double scaled = at_reference_speed(ms, 0.5 * (before_ms_ + after_ms));
  before_ms_ = after_ms;
  return scaled;
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<double> percentile(std::vector<double> values, double p,
                                 std::size_t min_beyond) {
  if (values.empty() || !(p > 0.0 && p < 100.0)) {
    return std::nullopt;
  }
  const std::size_t n = values.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));  // 1-based
  if (rank < 1 || n - rank < min_beyond) {
    return std::nullopt;
  }
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

std::string sanitize_name(std::string_view raw) {
  std::string out;
  for (const char c : raw) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                      c == '-';
    out += keep ? c : '-';
  }
  if (out.empty() || !std::isalnum(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), 'x');
  }
  if (out.size() > 64) {
    out.resize(64);
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void MetricSet::set(std::string_view name, double value,
                    std::string_view unit) {
  metrics_[sanitize_name(name)] = Entry{value, std::string(unit)};
}

bool MetricSet::has(std::string_view name) const {
  return metrics_.find(name) != metrics_.end();
}

double MetricSet::value(std::string_view name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

std::string MetricSet::to_json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(entry.value) +
           ", \"unit\": " + json_string(entry.unit) + "}";
  }
  return out + "}";
}

void Checks::outputs(std::size_t n) {
  if (n > failed_.size()) {
    failed_.resize(n, 0);
  }
}

void Checks::expect(std::size_t index, bool ok, const std::string& what) {
  outputs(index + 1);
  if (!ok) {
    failed_[index] = 1;
    if (reasons_.size() < 64) {
      reasons_.push_back(what);
    }
  }
}

std::uint64_t Checks::failed() const {
  return static_cast<std::uint64_t>(
      std::count(failed_.begin(), failed_.end(), 1));
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricSet& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics.to_json() + "}";
}

}  // namespace perfbench
