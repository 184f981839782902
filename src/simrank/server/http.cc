#include "simrank/server/http.h"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "simrank/common/string_util.h"

namespace simrank {
namespace {

bool AsciiEqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

/// True when the comma-separated `header_value` contains `token`
/// (case-insensitive, surrounding whitespace ignored) — the grammar of
/// Connection and Transfer-Encoding values.
bool HasToken(std::string_view header_value, std::string_view token) {
  for (std::string_view piece : StrSplit(header_value, ',')) {
    if (AsciiEqualsIgnoreCase(StrTrim(piece), token)) return true;
  }
  return false;
}

/// RFC 9110 token characters, the legal alphabet of methods and header
/// names. The explicit NUL check matters: strchr would otherwise match
/// '\0' against the literal's terminator and bless embedded NUL bytes.
bool IsTokenChar(char c) {
  if (std::isalnum(static_cast<unsigned char>(c))) return true;
  return c != '\0' && std::strchr("!#$%&'*+-.^_`|~", c) != nullptr;
}

bool IsToken(std::string_view text) {
  if (text.empty()) return false;
  return std::all_of(text.begin(), text.end(), IsTokenChar);
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

HttpParseStatus Error(int status, std::string message) {
  HttpParseStatus result;
  result.outcome = HttpParseStatus::kError;
  result.error_status = status;
  result.error_message = std::move(message);
  return result;
}

/// Splits the query string on '&' and percent-decodes each key and value.
bool ParseQueryString(std::string_view query, HttpRequest* out) {
  if (query.empty()) return true;
  for (std::string_view piece : StrSplit(query, '&')) {
    if (piece.empty()) continue;  // "a=1&&b=2" tolerated
    const size_t eq = piece.find('=');
    std::pair<std::string, std::string> param;
    const std::string_view raw_key =
        eq == std::string_view::npos ? piece : piece.substr(0, eq);
    const std::string_view raw_value =
        eq == std::string_view::npos ? std::string_view() : piece.substr(eq + 1);
    if (!PercentDecode(raw_key, /*plus_as_space=*/true, &param.first) ||
        !PercentDecode(raw_value, /*plus_as_space=*/true, &param.second)) {
      return false;
    }
    out->params.push_back(std::move(param));
  }
  return true;
}

}  // namespace

bool PercentDecode(std::string_view in, bool plus_as_space,
                   std::string* out) {
  out->clear();
  out->reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    if (c == '%') {
      if (i + 2 >= in.size()) return false;
      const int hi = HexValue(in[i + 1]);
      const int lo = HexValue(in[i + 2]);
      if (hi < 0 || lo < 0) return false;
      out->push_back(static_cast<char>(hi * 16 + lo));
      i += 2;
    } else if (c == '+' && plus_as_space) {
      out->push_back(' ');
    } else {
      out->push_back(c);
    }
  }
  return true;
}

const std::string* HttpRequest::FindParam(std::string_view key) const {
  for (const auto& [k, v] : params) {
    if (k == key) return &v;
  }
  return nullptr;
}

const std::string* HttpRequest::FindHeader(std::string_view name) const {
  for (const auto& [k, v] : headers) {
    if (k == name) return &v;
  }
  return nullptr;
}

HttpParseStatus ParseHttpRequest(std::string_view input,
                                 const HttpLimits& limits, HttpRequest* out) {
  *out = HttpRequest();
  const size_t header_end = input.find("\r\n\r\n");
  if (header_end == std::string_view::npos) {
    // The limit applies to the un-terminated prefix too: a client dripping
    // an endless header section is cut off at the cap, not buffered.
    if (input.size() > limits.max_request_bytes) {
      return Error(431, StrFormat("request head exceeds %zu bytes",
                                  limits.max_request_bytes));
    }
    return HttpParseStatus{HttpParseStatus::kNeedMore, 0, 0, ""};
  }
  const size_t head_bytes = header_end + 4;
  if (head_bytes > limits.max_request_bytes) {
    return Error(431, StrFormat("request head exceeds %zu bytes",
                                limits.max_request_bytes));
  }
  const std::string_view head = input.substr(0, header_end);

  // --- request line -------------------------------------------------------
  const size_t line_end = head.find("\r\n");
  const std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      request_line.find(' ', sp2 + 1) != std::string_view::npos) {
    return Error(400, "malformed request line");
  }
  const std::string_view method = request_line.substr(0, sp1);
  const std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = request_line.substr(sp2 + 1);
  if (!IsToken(method)) return Error(400, "malformed method token");
  if (version == "HTTP/1.1") {
    out->minor_version = 1;
  } else if (version == "HTTP/1.0") {
    out->minor_version = 0;
  } else if (version.substr(0, 5) == "HTTP/") {
    return Error(505, "only HTTP/1.0 and HTTP/1.1 are supported");
  } else {
    return Error(400, "malformed HTTP version");
  }
  if (target.size() > limits.max_target_bytes) {
    return Error(414, StrFormat("request target exceeds %zu bytes",
                                limits.max_target_bytes));
  }
  if (target.empty() || target[0] != '/') {
    return Error(400, "request target must be origin-form (start with '/')");
  }

  // --- header fields ------------------------------------------------------
  bool connection_close = false;
  bool connection_keep_alive = false;
  bool content_length_seen = false;
  uint64_t content_length = 0;
  size_t header_count = 0;
  size_t cursor = line_end == std::string_view::npos ? head.size()
                                                     : line_end + 2;
  while (cursor < head.size()) {
    size_t eol = head.find("\r\n", cursor);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(cursor, eol - cursor);
    cursor = eol + 2;
    if (++header_count > limits.max_headers) {
      return Error(431, StrFormat("more than %zu header fields",
                                  limits.max_headers));
    }
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Error(400, "malformed header field");
    }
    const std::string_view name = line.substr(0, colon);
    if (!IsToken(name)) return Error(400, "malformed header field name");
    const std::string_view value = StrTrim(line.substr(colon + 1));
    for (const char c : value) {
      if (static_cast<unsigned char>(c) < 0x20 && c != '\t') {
        return Error(400, "control byte in header field value");
      }
    }
    std::string lower_name(name);
    for (char& c : lower_name) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    out->headers.emplace_back(std::move(lower_name), std::string(value));
    if (AsciiEqualsIgnoreCase(name, "content-length")) {
      uint64_t length = 0;
      if (!ParseUint64(value, &length)) {
        return Error(400, "malformed Content-Length");
      }
      if (length > limits.max_body_bytes) {
        // Rejected from the header alone: the oversized body is never
        // buffered.
        return Error(413, StrFormat("request body exceeds %zu bytes",
                                    limits.max_body_bytes));
      }
      if (content_length_seen && length != content_length) {
        return Error(400, "conflicting Content-Length headers");
      }
      content_length = length;
      content_length_seen = true;
    } else if (AsciiEqualsIgnoreCase(name, "transfer-encoding")) {
      return Error(
          501, "only Content-Length-delimited request bodies are supported");
    } else if (AsciiEqualsIgnoreCase(name, "connection")) {
      connection_close = connection_close || HasToken(value, "close");
      connection_keep_alive =
          connection_keep_alive || HasToken(value, "keep-alive");
    }
  }
  out->keep_alive = connection_close
                        ? false
                        : (out->minor_version >= 1 || connection_keep_alive);

  // --- target decoding ----------------------------------------------------
  const size_t question = target.find('?');
  const std::string_view raw_path = target.substr(0, question);
  if (!PercentDecode(raw_path, /*plus_as_space=*/false, &out->path)) {
    return Error(400, "malformed percent-escape in request path");
  }
  if (question != std::string_view::npos &&
      !ParseQueryString(target.substr(question + 1), out)) {
    return Error(400, "malformed percent-escape in query string");
  }
  out->method = std::string(method);

  // --- body ---------------------------------------------------------------
  // Content-Length-delimited; consumed covers head + body so a pipelined
  // successor parses from the right offset.
  if (content_length > input.size() - head_bytes) {
    return HttpParseStatus{HttpParseStatus::kNeedMore, 0, 0, ""};
  }
  out->body = std::string(input.substr(head_bytes, content_length));

  HttpParseStatus result;
  result.outcome = HttpParseStatus::kComplete;
  result.consumed = head_bytes + static_cast<size_t>(content_length);
  return result;
}

const char* HttpStatusReason(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 304:
      return "Not Modified";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 403:
      return "Forbidden";
    case 405:
      return "Method Not Allowed";
    case 409:
      return "Conflict";
    case 413:
      return "Content Too Large";
    case 414:
      return "URI Too Long";
    case 421:
      return "Misdirected Request";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    case 505:
      return "HTTP Version Not Supported";
    default:
      return "Unknown";
  }
}

std::string BuildHttpResponse(int status, std::string_view body,
                              const HttpResponseOptions& options) {
  std::string out = StrFormat("HTTP/1.1 %d %s\r\n", status,
                              HttpStatusReason(status));
  out.append("Content-Type: ");
  out.append(options.content_type);
  out.append("\r\n");
  out.append(StrFormat("Content-Length: %zu\r\n", body.size()));
  out.append(options.keep_alive ? "Connection: keep-alive\r\n"
                                : "Connection: close\r\n");
  for (const auto& [name, value] : options.extra_headers) {
    out.append(name);
    out.append(": ");
    out.append(value);
    out.append("\r\n");
  }
  out.append("\r\n");
  out.append(body);
  return out;
}

bool CheckAllowedParams(const HttpRequest& request,
                        std::initializer_list<const char*> allowed,
                        std::string* error) {
  for (const auto& [key, value] : request.params) {
    if (std::none_of(allowed.begin(), allowed.end(),
                     [&key](const char* name) { return key == name; })) {
      *error = StrFormat("unknown parameter '%s'", key.c_str());
      return false;
    }
    // FindParam answers the first occurrence: any other is a repeat.
    if (request.FindParam(key) != &value) {
      *error = StrFormat("duplicate parameter '%s'", key.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace simrank
