#include "net/http.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "net/json.hpp"

namespace mfcp::net {

namespace {

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string_view HttpRequest::header(std::string_view name) const noexcept {
  for (const auto& [key, value] : headers) {
    if (iequals(key, name)) {
      return value;
    }
  }
  return {};
}

std::optional<std::size_t> HttpRequest::content_length() const noexcept {
  const std::string_view raw = header("content-length");
  if (raw.empty()) {
    return std::nullopt;
  }
  std::size_t n = 0;
  const auto [end, ec] = std::from_chars(raw.data(), raw.data() + raw.size(), n);
  if (ec != std::errc{} || end != raw.data() + raw.size()) {
    return std::nullopt;
  }
  return n;
}

HttpRequest parse_request_head(std::string_view head) {
  HttpRequest req;

  const std::size_t line_end = head.find('\n');
  std::string_view line = head.substr(0, line_end);
  if (!line.empty() && line.back() == '\r') {
    line.remove_suffix(1);
  }
  const std::size_t first = line.find(' ');
  if (first == std::string_view::npos || first == 0) {
    return req;
  }
  const std::size_t second = line.find(' ', first + 1);
  if (second == std::string_view::npos || second == first + 1) {
    return req;
  }
  const std::string_view version = line.substr(second + 1);
  if (version.empty() || version.find(' ') != std::string_view::npos) {
    return req;
  }
  req.method = std::string(line.substr(0, first));
  req.path = std::string(line.substr(first + 1, second - first - 1));
  req.version = std::string(version);

  // Header lines until the blank line (or end of the provided head).
  std::size_t pos = line_end == std::string_view::npos ? head.size()
                                                       : line_end + 1;
  while (pos < head.size()) {
    std::size_t next = head.find('\n', pos);
    std::string_view h = head.substr(
        pos, next == std::string_view::npos ? head.size() - pos : next - pos);
    pos = next == std::string_view::npos ? head.size() : next + 1;
    if (!h.empty() && h.back() == '\r') {
      h.remove_suffix(1);
    }
    if (h.empty()) {
      break;  // end of head
    }
    const std::size_t colon = h.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return req;  // malformed header line; leave valid=false
    }
    req.headers.emplace_back(to_lower(trim(h.substr(0, colon))),
                             std::string(trim(h.substr(colon + 1))));
  }
  req.valid = true;
  return req;
}

std::string_view status_reason(int status) noexcept {
  switch (status) {
    case 200:
      return "OK";
    case 202:
      return "Accepted";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 413:
      return "Payload Too Large";
    case 429:
      return "Too Many Requests";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

std::string serialize_response(const HttpResponse& response) {
  std::string out = "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += ' ';
  out += status_reason(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += "\r\nConnection: close\r\n";
  for (const auto& [key, value] : response.headers) {
    out += key;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "\r\n";
  out += response.body;
  return out;
}

HttpResponse text_response(int status, std::string body) {
  HttpResponse r;
  r.status = status;
  r.body = std::move(body);
  return r;
}

HttpResponse json_response(int status, std::string body) {
  HttpResponse r;
  r.status = status;
  r.content_type = "application/json";
  r.body = std::move(body);
  return r;
}

HttpResponse error_json(int status, std::string_view message) {
  return json_response(status,
                       "{\"error\":" + json_quote(message) + "}\n");
}

std::optional<std::vector<QueryParam>> parse_query(std::string_view path) {
  std::vector<QueryParam> params;
  const std::size_t qpos = path.find('?');
  if (qpos == std::string_view::npos) {
    return params;
  }
  std::string_view rest = path.substr(qpos + 1);
  while (!rest.empty()) {
    const std::size_t amp = rest.find('&');
    const std::string_view pair = rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view{}
                                         : rest.substr(amp + 1);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos || eq + 1 == pair.size()) {
      return std::nullopt;
    }
    params.push_back({pair.substr(0, eq), pair.substr(eq + 1)});
  }
  return params;
}

std::optional<std::uint64_t> parse_u64(std::string_view text) noexcept {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) {
    return std::nullopt;  // also rejects values above UINT64_MAX
  }
  return value;
}

std::optional<double> parse_finite_double(std::string_view text) {
  const std::string value(text);
  char* end = nullptr;
  const double number = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size() ||
      !std::isfinite(number)) {
    return std::nullopt;
  }
  return number;
}

}  // namespace mfcp::net
