#include "obs/trace.hpp"

#include <algorithm>

#include "util/json.hpp"

namespace qrc::obs {

namespace {

thread_local TraceContext* t_current = nullptr;

}  // namespace

TraceContext* TraceContext::current() { return t_current; }
void TraceContext::set_current(TraceContext* ctx) { t_current = ctx; }

TraceContext::TraceContext(std::string request_id, std::size_t max_spans)
    : TraceContext(std::move(request_id), std::chrono::steady_clock::now(),
                   max_spans) {}

TraceContext::TraceContext(std::string request_id,
                           std::chrono::steady_clock::time_point epoch,
                           std::size_t max_spans)
    : request_id_(std::move(request_id)),
      epoch_(epoch),
      max_spans_(max_spans == 0 ? 1 : max_spans) {
  spans_.reserve(std::min<std::size_t>(max_spans_, 64));
}

std::int64_t TraceContext::since_epoch_us(
    std::chrono::steady_clock::time_point tp) const {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(tp - epoch_)
          .count();
  return us < 0 ? 0 : us;
}

std::int64_t TraceContext::now_us() const {
  return since_epoch_us(std::chrono::steady_clock::now());
}

int TraceContext::begin_span(std::string_view name, int parent) {
  const std::int64_t start = now_us();
  const std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return kDropped;
  }
  Span span;
  span.name = std::string(name);
  span.parent = parent == kAmbientParent ? ambient_parent_
                : parent >= 0            ? parent
                                         : kNoParent;
  span.start_us = start;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void TraceContext::end_span(int id) {
  const std::int64_t end = now_us();
  const std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || static_cast<std::size_t>(id) >= spans_.size()) return;
  Span& span = spans_[static_cast<std::size_t>(id)];
  if (span.duration_us < 0) {
    span.duration_us = end - span.start_us;
    if (span.duration_us < 0) span.duration_us = 0;
  }
}

int TraceContext::add_span(std::string_view name, int parent,
                           std::int64_t start_us, std::int64_t duration_us) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return kDropped;
  }
  Span span;
  span.name = std::string(name);
  span.parent = parent >= 0 ? parent : kNoParent;
  span.start_us = start_us < 0 ? 0 : start_us;
  span.duration_us = duration_us < 0 ? 0 : duration_us;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void TraceContext::attr_json(int id, std::string_view key,
                             std::string json_value) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || static_cast<std::size_t>(id) >= spans_.size()) return;
  spans_[static_cast<std::size_t>(id)].attrs.emplace_back(
      std::string(key), std::move(json_value));
}

void TraceContext::attr(int id, std::string_view key, std::string_view value) {
  attr_json(id, key, util::json_quote(value));
}
void TraceContext::attr(int id, std::string_view key, const char* value) {
  attr_json(id, key, util::json_quote(value));
}
void TraceContext::attr(int id, std::string_view key, std::int64_t value) {
  attr_json(id, key, std::to_string(value));
}
void TraceContext::attr(int id, std::string_view key, std::uint64_t value) {
  attr_json(id, key, std::to_string(value));
}
void TraceContext::attr(int id, std::string_view key, int value) {
  attr_json(id, key, std::to_string(value));
}
void TraceContext::attr(int id, std::string_view key, double value) {
  attr_json(id, key, util::json_number(value));
}
void TraceContext::attr(int id, std::string_view key, bool value) {
  attr_json(id, key, value ? "true" : "false");
}

void TraceContext::set_ambient_parent(int id) {
  const std::lock_guard<std::mutex> lock(mu_);
  ambient_parent_ = id >= 0 ? id : kNoParent;
}

void TraceContext::adopt(const TraceContext& other, int parent) {
  // Copy under other's lock first, then splice under ours: the two
  // contexts are never adopted into each other simultaneously.
  std::vector<Span> theirs;
  {
    const std::lock_guard<std::mutex> lock(other.mu_);
    theirs = other.spans_;
  }
  const std::int64_t offset = since_epoch_us(other.epoch_);
  const std::lock_guard<std::mutex> lock(mu_);
  const int base = static_cast<int>(spans_.size());
  for (Span span : theirs) {
    if (spans_.size() >= max_spans_) {
      ++dropped_;
      continue;
    }
    span.start_us += offset;
    span.parent =
        span.parent == kNoParent ? parent : span.parent + base;
    if (span.duration_us < 0) span.duration_us = 0;
    spans_.push_back(std::move(span));
  }
}

std::uint64_t TraceContext::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::size_t TraceContext::span_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string TraceContext::to_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  // children[i] = indices whose parent is i; roots under index -1.
  std::vector<std::vector<int>> children(spans_.size());
  std::vector<int> roots;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) < spans_.size() &&
        static_cast<std::size_t>(parent) != i) {
      children[static_cast<std::size_t>(parent)].push_back(
          static_cast<int>(i));
    } else {
      roots.push_back(static_cast<int>(i));
    }
  }
  std::string out;
  const auto render = [&](const auto& self, int idx) -> void {
    const Span& span = spans_[static_cast<std::size_t>(idx)];
    out += "{\"name\":" + util::json_quote(span.name);
    out += ",\"start_us\":" + std::to_string(span.start_us);
    out += ",\"duration_us\":" +
           std::to_string(span.duration_us < 0 ? 0 : span.duration_us);
    if (!span.attrs.empty()) {
      out += ",\"attrs\":{";
      bool first = true;
      for (const auto& [key, value] : span.attrs) {
        if (!first) out += ',';
        first = false;
        out += util::json_quote(key) + ":" + value;
      }
      out += '}';
    }
    const auto& kids = children[static_cast<std::size_t>(idx)];
    if (!kids.empty()) {
      out += ",\"children\":[";
      for (std::size_t k = 0; k < kids.size(); ++k) {
        if (k != 0) out += ',';
        self(self, kids[k]);
      }
      out += ']';
    }
    out += '}';
  };
  out += "{\"id\":" + util::json_quote(request_id_);
  out += ",\"dropped\":" + std::to_string(dropped_);
  out += ",\"spans\":[";
  for (std::size_t r = 0; r < roots.size(); ++r) {
    if (r != 0) out += ',';
    render(render, roots[r]);
  }
  out += "]}";
  return out;
}

std::string TraceContext::to_text() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<int>> children(spans_.size());
  std::vector<int> roots;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) < spans_.size() &&
        static_cast<std::size_t>(parent) != i) {
      children[static_cast<std::size_t>(parent)].push_back(
          static_cast<int>(i));
    } else {
      roots.push_back(static_cast<int>(i));
    }
  }
  std::string out;
  const auto render = [&](const auto& self, int idx, int depth) -> void {
    const Span& span = spans_[static_cast<std::size_t>(idx)];
    out.append(static_cast<std::size_t>(depth) * 2, ' ');
    out += span.name;
    out += " +" + std::to_string(span.start_us) + "us";
    out += " (" +
           std::to_string(span.duration_us < 0 ? 0 : span.duration_us) +
           "us)";
    for (const auto& [key, value] : span.attrs) {
      out += " " + key + "=" + value;
    }
    out += '\n';
    for (const int kid : children[static_cast<std::size_t>(idx)]) {
      self(self, kid, depth + 1);
    }
  };
  for (const int root : roots) {
    render(render, root, 0);
  }
  if (dropped_ > 0) {
    out += "(" + std::to_string(dropped_) + " span(s) dropped)\n";
  }
  return out;
}

}  // namespace qrc::obs
