// Minimal blocking HTTP/1.1 client for loopback use.
//
// This is the measurement and verification side of the serving story: the
// throughput bench's closed-loop clients and the server tests both need a
// real socket speaking real HTTP at the server, without pulling in a
// dependency. One connection object = one keep-alive TCP connection; Get()
// writes a request and blocks until the full response (status, headers,
// Content-Length-delimited body) is read. Not a general client: no TLS, no
// redirects, no chunked responses — exactly the dialect SimRankServer
// emits.
#ifndef OIPSIM_SIMRANK_SERVER_HTTP_CLIENT_H_
#define OIPSIM_SIMRANK_SERVER_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "simrank/common/status.h"

namespace simrank {

/// One parsed response.
struct HttpClientResponse {
  int status = 0;
  /// Header fields in response order, names lower-cased.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// First value of `name` (lower-case), or nullptr.
  const std::string* FindHeader(std::string_view name) const;
};

/// Parses the response at the front of `buffer`: its byte length once the
/// head and the Content-Length body are buffered (filling `*out`), 0 while
/// it is incomplete, or a ParseError. The one response parser: the
/// blocking client below and the frontend's non-blocking exchanges both
/// use it.
Result<size_t> ParseHttpResponse(std::string_view buffer,
                                 HttpClientResponse* out);

/// The bytes of one request to 127.0.0.1: the request line, Host, then
/// for a POST Content-Type and Content-Length, then `extra_headers`
/// verbatim, then the body. GET requests carry no body.
std::string BuildHttpRequest(
    std::string_view method, std::string_view target,
    std::string_view body = {}, std::string_view content_type = "text/plain",
    const std::vector<std::pair<std::string, std::string>>& extra_headers =
        {});

/// A blocking keep-alive connection to 127.0.0.1:port. Movable, not
/// copyable; the socket closes on destruction.
class LoopbackHttpClient {
 public:
  /// Connects; fails with IoError when nothing is listening.
  static Result<LoopbackHttpClient> Connect(uint16_t port);

  /// Connects with a per-operation socket timeout: every send/recv on the
  /// connection fails with IoError after `timeout_ms` of no progress
  /// instead of blocking forever — what the fleet scraper and the WAL
  /// tailer need to bound a dead peer's damage. 0 keeps fully blocking
  /// sockets.
  static Result<LoopbackHttpClient> Connect(uint16_t port,
                                            uint32_t timeout_ms);

  LoopbackHttpClient(LoopbackHttpClient&& other) noexcept;
  LoopbackHttpClient& operator=(LoopbackHttpClient&& other) noexcept;
  LoopbackHttpClient(const LoopbackHttpClient&) = delete;
  LoopbackHttpClient& operator=(const LoopbackHttpClient&) = delete;
  ~LoopbackHttpClient();

  /// Issues `GET target HTTP/1.1` and reads the full response. After a
  /// `Connection: close` response the connection is unusable (IoError on
  /// the next call). `extra_headers` are appended to the request verbatim
  /// (e.g. {"X-Simrank-Trace", "<id>"} for trace propagation).
  Result<HttpClientResponse> Get(
      const std::string& target,
      const std::vector<std::pair<std::string, std::string>>& extra_headers =
          {});

  /// Issues `POST target` with a Content-Length body and reads the full
  /// response.
  Result<HttpClientResponse> Post(
      const std::string& target, std::string_view body,
      std::string_view content_type = "text/plain",
      const std::vector<std::pair<std::string, std::string>>& extra_headers =
          {});

  /// Sends raw bytes without awaiting a response (pipelining tests).
  Status SendRaw(std::string_view bytes);

  /// Half-closes the write side (shutdown(SHUT_WR)): the server sees EOF
  /// but must still answer everything already sent.
  Status ShutdownWrite();

  /// Reads one response off the wire (pairs with SendRaw).
  Result<HttpClientResponse> ReadResponse();

 private:
  explicit LoopbackHttpClient(int fd) : fd_(fd) {}

  int fd_ = -1;
  /// Bytes read past the previous response (pipelined tail).
  std::string buffer_;
};

/// One-shot convenience: connect, GET, close.
Result<HttpClientResponse> HttpGet(uint16_t port, const std::string& target);

/// One-shot convenience: connect, POST, close.
Result<HttpClientResponse> HttpPost(uint16_t port, const std::string& target,
                                    std::string_view body,
                                    std::string_view content_type =
                                        "text/plain");

/// The number following `"key":` in `body`, searched from `*cursor` (or
/// the start when null); `*cursor` advances past the key so repeated
/// fields can be walked in order. False when the key is absent or no
/// number follows it. The server emits doubles in shortest-round-trip
/// form, so the value parses back bit-exact — the router re-serializes
/// shard answers through this, and the serving tests and bench compare
/// it bitwise against direct QueryEngine results.
bool ReadJsonNumber(const std::string& body, std::string_view key,
                    double* out, size_t* cursor = nullptr);

/// ReadJsonNumber for tests and benches: aborts (checked error) when the
/// number is missing. A verification helper, not a JSON parser.
double FindJsonNumber(const std::string& body, const std::string& key,
                      size_t* cursor = nullptr);

/// The array of numbers following `"key":[` in `body`, in order.
std::vector<double> FindJsonNumberArray(const std::string& body,
                                        const std::string& key);

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_SERVER_HTTP_CLIENT_H_
