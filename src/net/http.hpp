// Socket-free HTTP/1.1 protocol surface shared by the server core, the
// metrics exporter, the platform gateway, and the load-generator client.
//
// Everything here is a pure function over strings: request-head parsing
// (request line + headers + Content-Length framing), response assembly,
// and the tiny pieces of header algebra the callers need. The socket
// plumbing lives in http_server.hpp / http_client.hpp; keeping the
// protocol surface separate is what makes the parse/route/respond path
// unit-testable without ever opening a listener.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mfcp::net {

/// One parsed request head. Header names are lower-cased at parse time
/// (HTTP header names are case-insensitive); values keep their case with
/// surrounding whitespace trimmed.
struct HttpRequest {
  std::string method;
  std::string path;
  std::string version;  // e.g. "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  bool valid = false;

  /// First header value with the given (case-insensitive) name, or empty.
  [[nodiscard]] std::string_view header(std::string_view name) const noexcept;

  /// Content-Length as declared by the head; nullopt when absent or
  /// non-numeric.
  [[nodiscard]] std::optional<std::size_t> content_length() const noexcept;
};

/// Parses "METHOD SP PATH SP VERSION" plus the header lines that follow,
/// up to (not including) the blank line. Returns valid=false on any
/// malformed line — the server answers 400 rather than guessing.
[[nodiscard]] HttpRequest parse_request_head(std::string_view head);

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  /// Extra headers, e.g. {"Retry-After", "3"} or {"Allow", "GET"}.
  std::vector<std::pair<std::string, std::string>> headers;
};

/// Reason phrase for the status codes this repo emits ("OK", "Too Many
/// Requests", ...); "Unknown" otherwise.
[[nodiscard]] std::string_view status_reason(int status) noexcept;

/// Full wire form: status line, Content-Type/-Length, Connection: close,
/// extra headers, blank line, body.
[[nodiscard]] std::string serialize_response(const HttpResponse& response);

/// Convenience constructors for the common response shapes.
[[nodiscard]] HttpResponse text_response(int status, std::string body);
[[nodiscard]] HttpResponse json_response(int status, std::string body);
/// Flat JSON error body: {"error":"<message>"}.
[[nodiscard]] HttpResponse error_json(int status, std::string_view message);

/// True for `path` equal to `route` and for `route?<query>`.
[[nodiscard]] bool matches_route(std::string_view path,
                                 std::string_view route) noexcept;

/// One `key=value` pair of a request path's query string.
struct QueryParam {
  std::string_view key;
  std::string_view value;
};

/// Splits the `?k=v&k=v` suffix of `path` into pairs, in order (no '?'
/// yields none). nullopt when a pair has no '=' or an empty value. The
/// views point into `path`; keys are not interpreted here.
[[nodiscard]] std::optional<std::vector<QueryParam>> parse_query(
    std::string_view path);

/// Unsigned decimal digits that fit in 64 bits; nullopt for an empty
/// string, any other character, or overflow.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(
    std::string_view text) noexcept;

/// A finite double spelled by the whole of `text` (strtod syntax);
/// nullopt for an empty string, trailing characters, inf or nan.
[[nodiscard]] std::optional<double> parse_finite_double(
    std::string_view text);

}  // namespace mfcp::net
