#include "service/jsonl.hpp"

#include <cmath>

#include "ir/qasm.hpp"
#include "verify/equivalence.hpp"

namespace qrc::service {

namespace {

[[noreturn]] void bad_request(const std::string& what) {
  throw ServiceError(ErrorCode::kBadRequest, what);
}

}  // namespace

ServeRequest parse_serve_request(std::string_view line) {
  JsonValue v;
  try {
    v = JsonValue::parse(line);
  } catch (const std::exception& e) {
    bad_request(e.what());
  }
  if (!v.is_object()) {
    bad_request("request must be a JSON object");
  }
  const auto& obj = v.as_object();

  ServeRequest request;
  // Envelope first. A line without "v":1 is refused with its own code, so
  // an old or future client gets a machine-readable signal.
  if (const auto it = obj.find("v");
      it == obj.end() || !it->second.is_number() ||
      it->second.as_number() != 1.0) {
    throw ServiceError(ErrorCode::kUnsupportedVersion,
                       "unsupported protocol version; this server speaks "
                       "v1 only (add \"v\":1)");
  }
  if (const auto it = obj.find("op"); it != obj.end()) {
    if (!it->second.is_string()) {
      bad_request("'op' must be a string");
    }
    const std::string& op = it->second.as_string();
    if (op == "compile") {
      request.op = ServeOp::kCompile;
    } else if (op == "stats") {
      request.op = ServeOp::kStats;
    } else if (op == "ping") {
      request.op = ServeOp::kPing;
    } else if (op == "metrics") {
      request.op = ServeOp::kMetrics;
    } else if (op == "debug_dump") {
      request.op = ServeOp::kDebugDump;
    } else if (op == "profile") {
      request.op = ServeOp::kProfile;
    } else {
      bad_request("unknown op '" + op +
                  "' (expected compile, stats, ping, metrics, "
                  "debug_dump or profile)");
    }
  }

  // Unknown fields are hard errors: a client typo ("verifi": true) must
  // surface as an error line, not silently change behaviour. Control
  // ops accept the envelope fields only.
  const bool compile = request.op == ServeOp::kCompile;
  const bool profile = request.op == ServeOp::kProfile;
  for (const auto& [key, value] : obj) {
    if (key == "id" || key == "v" || key == "op") {
      continue;
    }
    if (compile && (key == "model" || key == "qasm" || key == "verify" ||
                    key == "search" || key == "deadline_ms" ||
                    key == "trace")) {
      continue;
    }
    if (profile && (key == "seconds" || key == "hz")) {
      continue;
    }
    bad_request("unknown request field '" + key +
                (compile ? "' (expected v, op, id, model, qasm, verify, "
                           "search, deadline_ms, trace)"
                 : profile
                     ? "' (a profile op takes only v, op, id, seconds, hz)"
                     : "' (a control op takes only v, op, id)"));
  }
  if (const auto it = obj.find("id"); it != obj.end()) {
    if (it->second.is_string()) {
      request.id = it->second.as_string();
    } else if (it->second.is_number()) {
      request.id = util::json_number(it->second.as_number());
    } else {
      bad_request("'id' must be a string or number");
    }
  }
  if (profile) {
    // Bounds mirror obs::Profiler's: the wire surface must fail loudly
    // (typed bad_request) before a session ever starts.
    if (const auto it = obj.find("seconds"); it != obj.end()) {
      if (!it->second.is_number() || !(it->second.as_number() > 0.0) ||
          it->second.as_number() > 60.0) {
        bad_request("'seconds' must be a number in (0, 60]");
      }
      request.profile_seconds = it->second.as_number();
    }
    if (const auto it = obj.find("hz"); it != obj.end()) {
      if (!it->second.is_number() || it->second.as_number() < 1.0 ||
          it->second.as_number() > 1000.0 ||
          it->second.as_number() != std::floor(it->second.as_number())) {
        bad_request("'hz' must be an integer in [1, 1000]");
      }
      request.profile_hz = static_cast<int>(it->second.as_number());
    }
    return request;
  }
  if (!compile) {
    return request;
  }
  if (const auto it = obj.find("model"); it != obj.end()) {
    if (!it->second.is_string()) {
      bad_request("'model' must be a string");
    }
    request.model = it->second.as_string();
  }
  if (const auto it = obj.find("verify"); it != obj.end()) {
    if (!it->second.is_bool()) {
      bad_request("'verify' must be a boolean");
    }
    request.verify = it->second.as_bool();
  }
  if (const auto it = obj.find("trace"); it != obj.end()) {
    if (!it->second.is_bool()) {
      bad_request("'trace' must be a boolean");
    }
    request.trace = it->second.as_bool();
  }
  if (const auto it = obj.find("search"); it != obj.end()) {
    if (!it->second.is_string()) {
      bad_request("'search' must be a string like \"beam:8\" or "
                  "\"mcts:400\"");
    }
    try {
      request.search = search::parse_spec(it->second.as_string());
    } catch (const std::exception& e) {
      bad_request(e.what());
    }
  }
  if (const auto it = obj.find("deadline_ms"); it != obj.end()) {
    if (!request.search.has_value()) {
      bad_request("'deadline_ms' requires 'search'");
    }
    // Bounded above so the double-to-int64 cast cannot overflow (and a
    // client cannot request a year-long deadline by typo).
    constexpr double kMaxDeadlineMs = 1e9;  // ~11.5 days
    if (!it->second.is_number() || it->second.as_number() < 1.0 ||
        it->second.as_number() > kMaxDeadlineMs ||
        it->second.as_number() !=
            std::floor(it->second.as_number())) {
      bad_request("'deadline_ms' must be a positive integer <= 1e9");
    }
    request.search->deadline_ms =
        static_cast<std::int64_t>(it->second.as_number());
  }
  const auto it = obj.find("qasm");
  if (it == obj.end() || !it->second.is_string()) {
    bad_request("missing required string field 'qasm'");
  }
  request.qasm = it->second.as_string();
  return request;
}

std::string extract_request_id(std::string_view line) {
  try {
    const JsonValue v = JsonValue::parse(line);
    if (!v.is_object()) {
      return "";
    }
    const auto& obj = v.as_object();
    const auto it = obj.find("id");
    if (it == obj.end()) {
      return "";
    }
    if (it->second.is_string()) {
      return it->second.as_string();
    }
    if (it->second.is_number()) {
      return util::json_number(it->second.as_number());
    }
  } catch (const std::exception&) {
    // Malformed line: no id to recover.
  }
  return "";
}

std::string serve_response_line(const ServiceResponse& r) {
  std::string out = "{\"id\":" + json_quote(r.id) +
                    ",\"type\":\"result\",\"model\":" + json_quote(r.model);
  out += ",\"qasm\":" + json_quote(ir::to_qasm(r.result.circuit));
  out += ",\"reward\":" + util::json_number(r.result.reward);
  out += ",\"device\":";
  out += r.result.device != nullptr ? json_quote(r.result.device->name())
                                    : "null";
  out += ",\"used_fallback\":";
  out += r.result.used_fallback ? "true" : "false";
  out += ",\"cached\":";
  out += r.cached ? "true" : "false";
  out += ",\"latency_us\":" + std::to_string(r.latency_us);
  if (r.result.verification.has_value()) {
    const auto& v = *r.result.verification;
    out += ",\"verdict\":" + json_quote(verify::verdict_name(v.verdict));
    out += ",\"verify_method\":" + json_quote(verify::method_name(v.method));
    out += ",\"verify_confidence\":" + util::json_number(v.confidence);
  }
  if (r.result.search_stats.has_value()) {
    const auto& s = *r.result.search_stats;
    out += ",\"search\":" +
           json_quote(std::string(search::strategy_name(s.strategy)) + ":" +
                      std::to_string(s.budget));
    out += ",\"search_nodes\":" + std::to_string(s.nodes_expanded);
    out += ",\"search_improved\":";
    out += s.improved ? "true" : "false";
    out += ",\"search_deadline_hit\":";
    out += s.deadline_hit ? "true" : "false";
    out += ",\"search_reward_delta\":" +
           util::json_number(r.result.reward - s.baseline_reward);
  }
  if (r.trace != nullptr) {
    out += ",\"trace\":" + r.trace->to_json();
  }
  return out + "}";
}

std::string serve_partial_line(std::string_view id,
                               const search::SearchProgress& progress) {
  std::string out = "{\"id\":" + json_quote(id);
  out += ",\"type\":\"partial\"";
  out += ",\"strategy\":" +
         json_quote(search::strategy_name(progress.strategy));
  out += ",\"quantum\":" + std::to_string(progress.quantum);
  out += ",\"nodes\":" + std::to_string(progress.nodes_expanded);
  out += ",\"found_terminal\":";
  out += progress.found_terminal ? "true" : "false";
  out += ",\"best_reward\":" + util::json_number(progress.best_reward);
  out += ",\"elapsed_us\":" + std::to_string(progress.elapsed_us);
  return out + "}";
}

std::string serve_error_line(std::string_view id, ErrorCode code,
                             std::string_view message) {
  return "{\"id\":" + json_quote(id) +
         ",\"type\":\"error\",\"error\":{\"code\":" +
         json_quote(error_code_name(code)) +
         ",\"message\":" + json_quote(message) + "}}";
}

std::string serve_pong_line(std::string_view id) {
  return "{\"id\":" + json_quote(id) +
         ",\"type\":\"result\",\"op\":\"ping\"}";
}

std::string serve_metrics_line(std::string_view id,
                               std::string_view exposition) {
  return "{\"id\":" + json_quote(id) +
         ",\"type\":\"result\",\"op\":\"metrics\"" +
         ",\"content_type\":\"text/plain; version=0.0.4\"" +
         ",\"body\":" + json_quote(exposition) + "}";
}

std::string serve_debug_dump_line(std::string_view id,
                                  std::string_view events_json) {
  return "{\"id\":" + json_quote(id) +
         ",\"type\":\"result\",\"op\":\"debug_dump\",\"events\":" +
         std::string(events_json) + "}";
}

std::string serve_profile_line(std::string_view id, std::string_view folded,
                               std::uint64_t samples) {
  return "{\"id\":" + json_quote(id) +
         ",\"type\":\"result\",\"op\":\"profile\",\"samples\":" +
         std::to_string(samples) + ",\"folded\":" + json_quote(folded) + "}";
}

}  // namespace qrc::service
