/// \file jsonl.hpp
/// \brief The `qrc serve` request/response line codecs for the compile
///        service's line-delimited protocol. One JSON object per line in,
///        one per line out — trivially scriptable from a shell.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "search/search.hpp"
#include "service/compile_service.hpp"
#include "service/errors.hpp"
#include "util/json.hpp"

namespace qrc::service {

// The JSON codec lives in util/json.hpp; these keep the names the serve
// protocol's callers already use.
using util::JsonValue;
using util::json_quote;

/// Operation carried by a request envelope.
enum class ServeOp : std::uint8_t {
  kCompile,    ///< compile a circuit (the default when "op" is absent)
  kStats,      ///< the serve stats table (net/stats.hpp)
  kPing,       ///< liveness probe
  kMetrics,    ///< Prometheus text exposition of the metrics registry
  kDebugDump,  ///< flight-recorder snapshot (recent notable events)
  kProfile,    ///< sampling-profiler session; folded stacks on the result
};

/// One serve request line (protocol v1, the only version):
/// {"v":1, "op":"compile"|"stats"|"ping"|"metrics"|"debug_dump"|"profile",
///  "id": ...} plus the op's payload fields. Responses carry
/// "type":"result"|"partial"|"error"; errors are typed objects
/// {"code","message"} (see ErrorCode). Search compiles stream interim
/// "partial" frames before the final "result".
///
/// Compile payload: `qasm` is required; `model` defaults to the service's
/// default model; `id` (string or number, echoed back as a string)
/// defaults to ""; `verify` (bool, default false) requests the
/// post-compile equivalence gate — the response then carries
/// verdict/method/confidence fields. `search` (string: "beam[:width]" or
/// "mcts[:sims]") compiles by policy-guided lookahead instead of the
/// greedy rollout — the response then carries
/// search/search_nodes/search_reward_delta/... fields; `deadline_ms`
/// (positive number, requires `search`) bounds the search wall clock,
/// returning the best sequence found in time. `trace` (bool, default
/// false) asks the server to record per-request spans and echo the span
/// tree as a "trace" object on the response — tracing is observation-only
/// and never changes the compiled result.
struct ServeRequest {
  ServeOp op = ServeOp::kCompile;
  std::string id;
  std::string model;
  std::string qasm;
  bool verify = false;
  bool trace = false;
  std::optional<search::SearchOptions> search;
  /// kProfile only: sampling window and rate. Validated at parse time
  /// (seconds in (0, 60], hz an integer in [1, 1000]).
  double profile_seconds = 2.0;
  int profile_hz = 97;
};

/// Parses and validates one request line. Unknown top-level fields are
/// rejected (a typoed "verifi" must fail loudly, not silently skip
/// verification).
/// \throws ServiceError(kBadRequest) when the line is not a JSON object.
/// \throws ServiceError(kUnsupportedVersion) when "v" is missing or not 1.
/// \throws ServiceError(kBadRequest) naming the missing/mistyped/unknown
///         field otherwise.
[[nodiscard]] ServeRequest parse_serve_request(std::string_view line);

/// Best-effort id recovery for error reporting: the "id" of `line` if it
/// is a JSON object with a string/number id, else "". Never throws — used
/// to echo the id on request lines that fail validation, so pipelined
/// clients can still correlate the error response.
[[nodiscard]] std::string extract_request_id(std::string_view line);

/// Serialises one compile-result frame:
/// {"id","type":"result","model","qasm","reward","device","used_fallback",
///  "cached","latency_us"} — `qasm` is the compiled circuit, `device` the
/// chosen target (null if compilation never picked one). When the request
/// asked for verification, three more fields follow: "verdict"
/// ("equivalent"/"not_equivalent"/"unknown"), "verify_method"
/// ("clifford_tableau"/"alternating_miter"/"random_stimuli"/"none") and
/// "verify_confidence" (1.0 for exact tiers). When it asked for search,
/// five more: "search" (the spec, e.g. "beam:8"), "search_nodes",
/// "search_improved", "search_deadline_hit" and "search_reward_delta"
/// (reward gained over the greedy baseline, >= 0 by the clamp). When the
/// request asked for tracing, a final "trace" field carries the span tree
/// (obs::TraceContext::to_json()).
[[nodiscard]] std::string serve_response_line(const ServiceResponse& r);

/// Serialises one streamed-progress frame:
/// {"id","type":"partial","strategy","quantum","nodes","found_terminal",
///  "best_reward","elapsed_us"}.
[[nodiscard]] std::string serve_partial_line(
    std::string_view id, const search::SearchProgress& progress);

/// Serialises one error frame:
/// {"id","type":"error","error":{"code","message"}} with `code` from the
/// fixed ErrorCode enum.
[[nodiscard]] std::string serve_error_line(std::string_view id,
                                           ErrorCode code,
                                           std::string_view message);

/// Serialises the "ping" result frame: {"id","type":"result",
/// "op":"ping"}.
[[nodiscard]] std::string serve_pong_line(std::string_view id);

/// Serialises the "metrics" result frame: {"id","type":"result",
/// "op":"metrics","content_type":...,"body":<exposition text>}.
[[nodiscard]] std::string serve_metrics_line(std::string_view id,
                                             std::string_view exposition);

/// Serialises the "debug_dump" result frame: {"id","type":"result",
/// "op":"debug_dump","events":[...]} where `events_json` is an already-
/// serialised JSON array (obs::FlightRecorder::dump_json()).
[[nodiscard]] std::string serve_debug_dump_line(std::string_view id,
                                                std::string_view events_json);

/// Serialises the "profile" result frame: {"id","type":"result",
/// "op":"profile","samples":N,"folded":<collapsed stacks, one
/// "frame;frame count" line per unique stack>}.
[[nodiscard]] std::string serve_profile_line(std::string_view id,
                                             std::string_view folded,
                                             std::uint64_t samples);

}  // namespace qrc::service
