// Dependency-free HTTP/1.1 subset for the SimRank serving frontend.
//
// The server speaks exactly the slice of HTTP/1.1 a point-query-and-update
// API needs: GET requests with percent-encoded query strings,
// Content-Length-delimited bodies (the POST update/batch endpoints),
// keep-alive and pipelining. Everything else is rejected *early* with the
// right status code — the parser is the admission boundary for malformed
// and oversized input, so hardened limits live here, not in the event
// loop:
//   - request line + headers over HttpLimits::max_request_bytes -> 431
//     (reported as soon as the prefix exceeds the limit, before a
//     terminator ever arrives, so a slow-drip oversized request cannot
//     buffer unboundedly);
//   - request target over max_target_bytes -> 414;
//   - more than max_headers header fields -> 431;
//   - a body over max_body_bytes -> 413 (reported from the header alone,
//     before any body byte is buffered);
//   - any Transfer-Encoding -> 501: bodies are Content-Length-delimited
//     only, because skipping an unparsed chunked body would desynchronise
//     pipelined connections;
//   - anything structurally malformed (bad request line, stray control
//     bytes in header names, broken percent-escapes) -> 400;
//   - HTTP versions other than 1.0/1.1 -> 505.
// Whether a *particular* endpoint/method accepts a body is routing policy,
// enforced by the server, not here.
// Parsing is incremental: feed the buffered bytes, get kComplete with the
// consumed prefix length (pipelining = parse again on the remainder),
// kNeedMore, or kError with the status to send before closing.
#ifndef OIPSIM_SIMRANK_SERVER_HTTP_H_
#define OIPSIM_SIMRANK_SERVER_HTTP_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace simrank {

/// Hardening limits of the request parser. Defaults fit point-query URLs
/// with room to spare; all three are enforced per request, not per read.
struct HttpLimits {
  /// Upper bound on request line + headers together, in bytes.
  size_t max_request_bytes = 8192;
  /// Upper bound on the request-target (path + query string), in bytes.
  size_t max_target_bytes = 2048;
  /// Upper bound on the number of header fields.
  size_t max_headers = 64;
  /// Upper bound on a Content-Length body (update batches, pair lists).
  size_t max_body_bytes = 1u << 20;
};

/// One parsed request. Strings own their bytes (the input buffer may be
/// compacted or refilled after parsing).
struct HttpRequest {
  std::string method;
  /// Request path before '?', percent-decoded.
  std::string path;
  /// Query parameters in request order, keys and values percent-decoded
  /// ('+' decodes to space). A key without '=' yields an empty value.
  std::vector<std::pair<std::string, std::string>> params;
  /// Header fields in request order, names lowercased, values trimmed.
  /// Kept verbatim (beyond the parser's validation) — routing-relevant
  /// headers like X-Simrank-Trace are read from here.
  std::vector<std::pair<std::string, std::string>> headers;
  /// Content-Length body bytes (empty for the common GET case).
  std::string body;
  /// 0 for HTTP/1.0, 1 for HTTP/1.1.
  int minor_version = 1;
  /// Persistent-connection semantics after this request: HTTP/1.1 unless
  /// "Connection: close", HTTP/1.0 only with "Connection: keep-alive".
  bool keep_alive = true;

  /// First value of `key`, or nullptr when absent.
  const std::string* FindParam(std::string_view key) const;

  /// First value of header `name` (must be given lowercase), or nullptr
  /// when absent.
  const std::string* FindHeader(std::string_view name) const;
};

/// Outcome of one ParseHttpRequest call.
struct HttpParseStatus {
  enum Outcome {
    kComplete,  ///< One request parsed; `consumed` bytes belong to it.
    kNeedMore,  ///< Input is a valid proper prefix; read more and retry.
    kError,     ///< Protocol violation; reply `error_status` and close.
  };

  Outcome outcome = kNeedMore;
  /// Bytes of input consumed by the request (kComplete only).
  size_t consumed = 0;
  /// HTTP status to send before closing (kError only):
  /// 400/413/414/431/501/505.
  int error_status = 0;
  /// Human-readable reason for the error response body (kError only).
  std::string error_message;
};

/// Parses the first request out of `input`. `out` is overwritten on
/// kComplete and unspecified otherwise.
HttpParseStatus ParseHttpRequest(std::string_view input,
                                 const HttpLimits& limits, HttpRequest* out);

/// Percent-decodes `in` into `out` (overwritten); '+' becomes a space when
/// `plus_as_space`. Returns false on a truncated or non-hex escape.
bool PercentDecode(std::string_view in, bool plus_as_space, std::string* out);

/// Rejects parameters outside `allowed`, and any given twice, so a typo
/// like `/v1/pair?a=1&c=2` fails loudly instead of querying b=0. On
/// failure `*error` is the 400 answer's message.
bool CheckAllowedParams(const HttpRequest& request,
                        std::initializer_list<const char*> allowed,
                        std::string* error);

/// Serialization knobs of BuildHttpResponse.
struct HttpResponseOptions {
  bool keep_alive = true;
  std::string_view content_type = "application/json";
  /// Extra headers, e.g. {"Retry-After", "1"} on admission rejections.
  std::vector<std::pair<std::string, std::string>> extra_headers;
};

/// Serializes a complete response: status line, Content-Type,
/// Content-Length, Connection, the extra headers, then `body`.
std::string BuildHttpResponse(int status, std::string_view body,
                              const HttpResponseOptions& options);

/// Canonical reason phrase ("OK", "Too Many Requests", ...); "Unknown" for
/// statuses the server never emits.
const char* HttpStatusReason(int status);

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_SERVER_HTTP_H_
