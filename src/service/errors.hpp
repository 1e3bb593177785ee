/// \file errors.hpp
/// \brief Typed service/protocol errors. Every failure the serve layer can
///        hand a client maps onto one ErrorCode; the wire protocol carries
///        the code verbatim in its error frame ({"error":{"code",
///        "message"}}), so clients can react programmatically (retry on
///        `overloaded`, fix the request on `bad_request`) instead of
///        grepping message text.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace qrc::service {

/// Fixed error-code enum of the serve protocol (wire-stable: codes are
/// append-only; renaming or re-using one is a protocol break).
enum class ErrorCode : std::uint8_t {
  kBadRequest,          ///< malformed frame / invalid field / unparseable QASM
  kUnknownModel,        ///< request names a model the registry cannot resolve
  kOverloaded,          ///< admission control shed the request (queue full /
                        ///< per-connection in-flight cap); safe to retry
  kShuttingDown,        ///< server is draining; no new work accepted
  kFrameTooLarge,       ///< request line exceeded the frame size limit
  kUnsupportedVersion,  ///< request "v" is missing or not 1
  kInternal,            ///< unexpected server-side failure
};

/// Wire name of a code ("bad_request", "overloaded", ...).
[[nodiscard]] std::string_view error_code_name(ErrorCode code);

/// A service failure with its protocol error code. Derives from
/// std::runtime_error so existing catch sites keep working; the serve
/// layer downcasts to recover the code (anything else maps to kInternal).
class ServiceError : public std::runtime_error {
 public:
  ServiceError(ErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}

  [[nodiscard]] ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// The ErrorCode of an in-flight exception: ServiceError's own code,
/// kBadRequest for invalid_argument, kInternal for everything else.
[[nodiscard]] ErrorCode error_code_of(const std::exception& e);

}  // namespace qrc::service
