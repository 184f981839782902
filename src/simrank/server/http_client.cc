#include "simrank/server/http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "simrank/common/string_util.h"

namespace simrank {

const std::string* HttpClientResponse::FindHeader(
    std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

bool ReadJsonNumber(const std::string& body, std::string_view key,
                    double* out, size_t* cursor) {
  std::string needle = "\"";
  needle.append(key).append("\":");
  const size_t at = body.find(needle, cursor == nullptr ? 0 : *cursor);
  if (at == std::string::npos) return false;
  const char* begin = body.c_str() + at + needle.size();
  char* end = nullptr;
  *out = std::strtod(begin, &end);
  if (cursor != nullptr) *cursor = at + needle.size();
  return end != begin;
}

double FindJsonNumber(const std::string& body, const std::string& key,
                      size_t* cursor) {
  double value = 0;
  OIPSIM_CHECK_MSG(ReadJsonNumber(body, key, &value, cursor),
                   "no numeric \"%s\" in %s", key.c_str(), body.c_str());
  return value;
}

std::vector<double> FindJsonNumberArray(const std::string& body,
                                        const std::string& key) {
  const std::string needle = "\"" + key + "\":[";
  const size_t at = body.find(needle);
  OIPSIM_CHECK_MSG(at != std::string::npos, "no \"%s\" array in %s",
                   key.c_str(), body.c_str());
  std::vector<double> values;
  const char* cursor = body.c_str() + at + needle.size();
  while (*cursor != ']') {
    char* next = nullptr;
    values.push_back(std::strtod(cursor, &next));
    OIPSIM_CHECK_MSG(next != cursor, "malformed number array in %s",
                     body.c_str());
    cursor = *next == ',' ? next + 1 : next;
  }
  return values;
}

Result<size_t> ParseHttpResponse(std::string_view buffer,
                                 HttpClientResponse* out) {
  const size_t header_end = buffer.find("\r\n\r\n");
  if (header_end == std::string_view::npos) return size_t{0};
  HttpClientResponse response;
  const std::vector<std::string> lines =
      StrSplit(buffer.substr(0, header_end), '\n');
  if (lines.empty()) return Status::ParseError("empty response head");
  const std::string_view status_line = StrTrim(lines[0]);
  // "HTTP/1.1 200 OK"
  const size_t sp = status_line.find(' ');
  uint64_t status = 0;
  if (sp == std::string_view::npos ||
      !ParseUint64(status_line.substr(sp + 1, 3), &status)) {
    return Status::ParseError("malformed status line: " +
                              std::string(status_line));
  }
  response.status = static_cast<int>(status);
  uint64_t content_length = 0;
  bool have_length = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = StrTrim(lines[i]);
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string name(line.substr(0, colon));
    for (char& c : name) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    const std::string value(StrTrim(line.substr(colon + 1)));
    if (name == "content-length" && ParseUint64(value, &content_length)) {
      have_length = true;
    }
    response.headers.emplace_back(std::move(name), value);
  }
  if (!have_length) {
    return Status::ParseError("response without Content-Length");
  }
  const size_t body_start = header_end + 4;
  if (buffer.size() - body_start < content_length) return size_t{0};
  response.body = std::string(buffer.substr(body_start, content_length));
  *out = std::move(response);
  return body_start + content_length;
}

std::string BuildHttpRequest(
    std::string_view method, std::string_view target, std::string_view body,
    std::string_view content_type,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  std::string request;
  request.reserve(64 + target.size() + body.size());
  request += method;
  request += ' ';
  request += target;
  request += " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  const bool post = method == "POST";
  if (post) {
    request += "Content-Type: ";
    request += content_type;
    request += StrFormat("\r\nContent-Length: %zu\r\n", body.size());
  }
  for (const auto& [name, value] : extra_headers) {
    request += name;
    request += ": ";
    request += value;
    request += "\r\n";
  }
  request += "\r\n";
  if (post) request += body;
  return request;
}

Result<LoopbackHttpClient> LoopbackHttpClient::Connect(uint16_t port) {
  return Connect(port, /*timeout_ms=*/0);
}

Result<LoopbackHttpClient> LoopbackHttpClient::Connect(uint16_t port,
                                                       uint32_t timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  if (timeout_ms > 0) {
    timeval tv = {};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = static_cast<long>(timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError(StrFormat("cannot connect to 127.0.0.1:%u: %s",
                                     port, std::strerror(errno)));
  }
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  return LoopbackHttpClient(fd);
}

LoopbackHttpClient::LoopbackHttpClient(LoopbackHttpClient&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

LoopbackHttpClient& LoopbackHttpClient::operator=(
    LoopbackHttpClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

LoopbackHttpClient::~LoopbackHttpClient() {
  if (fd_ >= 0) ::close(fd_);
}

Status LoopbackHttpClient::SendRaw(std::string_view bytes) {
  if (fd_ < 0) return Status::IoError("connection is closed");
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::IoError("send failed: connection reset");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status LoopbackHttpClient::ShutdownWrite() {
  if (fd_ < 0) return Status::IoError("connection is closed");
  if (::shutdown(fd_, SHUT_WR) != 0) {
    return Status::IoError("shutdown(SHUT_WR) failed");
  }
  return Status::OK();
}

Result<HttpClientResponse> LoopbackHttpClient::ReadResponse() {
  if (fd_ < 0) return Status::IoError("connection is closed");
  HttpClientResponse response;
  while (true) {
    const Result<size_t> parsed = ParseHttpResponse(buffer_, &response);
    if (!parsed.ok()) return parsed.status();
    if (*parsed > 0) {
      buffer_.erase(0, *parsed);
      return response;
    }
    char chunk[4096];
    const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      return Status::IoError(buffer_.find("\r\n\r\n") == std::string::npos
                                 ? "connection closed before response headers"
                                 : "connection closed mid-body");
    }
    buffer_.append(chunk, static_cast<size_t>(got));
  }
}

Result<HttpClientResponse> LoopbackHttpClient::Get(
    const std::string& target,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  OIPSIM_RETURN_IF_ERROR(
      SendRaw(BuildHttpRequest("GET", target, {}, {}, extra_headers)));
  return ReadResponse();
}

Result<HttpClientResponse> HttpGet(uint16_t port,
                                   const std::string& target) {
  auto client = LoopbackHttpClient::Connect(port);
  if (!client.ok()) return client.status();
  return client->Get(target);
}

Result<HttpClientResponse> HttpPost(uint16_t port, const std::string& target,
                                    std::string_view body,
                                    std::string_view content_type) {
  auto client = LoopbackHttpClient::Connect(port);
  if (!client.ok()) return client.status();
  return client->Post(target, body, content_type);
}


Result<HttpClientResponse> LoopbackHttpClient::Post(
    const std::string& target, std::string_view body,
    std::string_view content_type,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  OIPSIM_RETURN_IF_ERROR(
      SendRaw(BuildHttpRequest("POST", target, body, content_type,
                               extra_headers)));
  return ReadResponse();
}

}  // namespace simrank
