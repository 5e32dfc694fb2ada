#include "rpc/http.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/string_util.h"

namespace lusail::rpc {

namespace {

constexpr std::string_view kCrlf = "\r\n";

const std::string* FindIn(
    const std::vector<std::pair<std::string, std::string>>& headers,
    std::string_view name) {
  for (const auto& [key, value] : headers) {
    if (EqualsIgnoreCase(key, name)) return &value;
  }
  return nullptr;
}

bool KeepAliveOf(const std::vector<std::pair<std::string, std::string>>& headers) {
  const std::string* connection = FindIn(headers, "Connection");
  return connection == nullptr || !EqualsIgnoreCase(*connection, "close");
}

void AppendHeaders(
    std::string* out,
    const std::vector<std::pair<std::string, std::string>>& headers,
    size_t body_size) {
  for (const auto& [key, value] : headers) {
    out->append(key);
    out->append(": ");
    out->append(value);
    out->append(kCrlf);
  }
  if (FindIn(headers, "Content-Length") == nullptr) {
    out->append("Content-Length: ");
    out->append(std::to_string(body_size));
    out->append(kCrlf);
  }
  out->append(kCrlf);
}

/// Polls `fd` for `events` without sleeping past `deadline`. Returns 1
/// when ready, -1 on deadline expiry, -2 on poll error/hangup-with-error.
int PollFd(int fd, short events, const Deadline& deadline) {
  for (;;) {
    double remaining = deadline.RemainingMillis();
    if (remaining <= 0.0) return -1;
    // Wake at least every second so an infinite deadline still notices a
    // locally shutdown() fd promptly on platforms that don't signal it.
    int timeout_ms = std::isinf(remaining)
                         ? 1000
                         : static_cast<int>(std::min(remaining, 1000.0)) + 1;
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -2;
    }
    if (rc == 0) {
      if (deadline.Expired()) return -1;
      continue;
    }
    if (pfd.revents & (POLLERR | POLLNVAL)) return -2;
    return 1;  // Readable/writable (POLLHUP still delivers buffered data).
  }
}

/// Shared header-section reader: returns the raw bytes up to and
/// including the blank line via `*head`. Uses HttpConnection's buffer.
struct ParsedStartLine {
  std::string first, second, third;
};

Result<ParsedStartLine> SplitStartLine(std::string_view line) {
  size_t a = line.find(' ');
  if (a == std::string_view::npos) {
    return Status::ParseError("malformed HTTP start line");
  }
  size_t b = line.find(' ', a + 1);
  if (b == std::string_view::npos) {
    return Status::ParseError("malformed HTTP start line");
  }
  ParsedStartLine out;
  out.first = std::string(line.substr(0, a));
  out.second = std::string(line.substr(a + 1, b - a - 1));
  out.third = std::string(line.substr(b + 1));
  if (out.first.empty() || out.second.empty() || out.third.empty()) {
    return Status::ParseError("malformed HTTP start line");
  }
  return out;
}

Status ParseHeaderLines(
    std::string_view head,
    std::vector<std::pair<std::string, std::string>>* headers) {
  size_t pos = 0;
  while (pos < head.size()) {
    size_t eol = head.find(kCrlf, pos);
    if (eol == std::string_view::npos) eol = head.size();
    std::string_view line = head.substr(pos, eol - pos);
    pos = eol + kCrlf.size();
    if (line.empty()) continue;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Status::ParseError("malformed HTTP header line");
    }
    std::string name(StripWhitespace(line.substr(0, colon)));
    std::string value(StripWhitespace(line.substr(colon + 1)));
    if (name.empty()) return Status::ParseError("empty HTTP header name");
    headers->emplace_back(std::move(name), std::move(value));
  }
  return Status::OK();
}

Result<size_t> ContentLengthOf(
    const std::vector<std::pair<std::string, std::string>>& headers,
    const HttpLimits& limits) {
  const std::string* value = FindIn(headers, "Content-Length");
  if (value == nullptr) return size_t{0};
  char* end = nullptr;
  errno = 0;
  unsigned long long n = std::strtoull(value->c_str(), &end, 10);
  if (errno != 0 || end == value->c_str() || *end != '\0') {
    return Status::ParseError("malformed Content-Length \"" + *value + "\"");
  }
  if (n > limits.max_body_bytes) {
    return Status::InvalidArgument("HTTP body of " + *value +
                                   " bytes exceeds the limit of " +
                                   std::to_string(limits.max_body_bytes));
  }
  return static_cast<size_t>(n);
}

}  // namespace

const std::string* HttpRequest::FindHeader(std::string_view name) const {
  return FindIn(headers, name);
}

bool HttpRequest::KeepAlive() const { return KeepAliveOf(headers); }

std::string HttpRequest::Serialize() const {
  std::string out;
  out.reserve(128 + body.size());
  out.append(method);
  out.push_back(' ');
  out.append(target);
  out.push_back(' ');
  out.append(version);
  out.append(kCrlf);
  AppendHeaders(&out, headers, body.size());
  out.append(body);
  return out;
}

const std::string* HttpResponse::FindHeader(std::string_view name) const {
  return FindIn(headers, name);
}

bool HttpResponse::KeepAlive() const { return KeepAliveOf(headers); }

std::string HttpResponse::Serialize() const {
  std::string out;
  out.reserve(128 + body.size());
  out.append("HTTP/1.1 ");
  out.append(std::to_string(status));
  out.push_back(' ');
  out.append(reason.empty() ? HttpReason(status) : reason.c_str());
  out.append(kCrlf);
  AppendHeaders(&out, headers, body.size());
  out.append(body);
  return out;
}

std::string HttpResponse::SerializeHead() const {
  std::string out;
  out.reserve(256);
  out.append("HTTP/1.1 ");
  out.append(std::to_string(status));
  out.push_back(' ');
  out.append(reason.empty() ? HttpReason(status) : reason.c_str());
  out.append(kCrlf);
  for (const auto& [key, value] : headers) {
    out.append(key);
    out.append(": ");
    out.append(value);
    out.append(kCrlf);
  }
  out.append(kCrlf);
  return out;
}

std::string EncodeChunk(std::string_view data) {
  char size_hex[24];
  int n = std::snprintf(size_hex, sizeof(size_hex), "%zx",
                        static_cast<size_t>(data.size()));
  std::string out;
  out.reserve(data.size() + static_cast<size_t>(n) + 4);
  out.append(size_hex, static_cast<size_t>(n));
  out.append(kCrlf);
  out.append(data);
  out.append(kCrlf);
  return out;
}

std::string EncodeLastChunk(
    const std::vector<std::pair<std::string, std::string>>& trailers) {
  std::string out = "0\r\n";
  for (const auto& [key, value] : trailers) {
    out.append(key);
    out.append(": ");
    out.append(value);
    out.append(kCrlf);
  }
  out.append(kCrlf);
  return out;
}

const char* HttpReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 415: return "Unsupported Media Type";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

Result<std::string> UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%') {
      auto hex = [](char h) -> int {
        if (h >= '0' && h <= '9') return h - '0';
        if (h >= 'a' && h <= 'f') return h - 'a' + 10;
        if (h >= 'A' && h <= 'F') return h - 'A' + 10;
        return -1;
      };
      if (i + 2 >= s.size()) {
        return Status::ParseError("truncated percent escape");
      }
      int hi = hex(s[i + 1]), lo = hex(s[i + 2]);
      if (hi < 0 || lo < 0) {
        return Status::ParseError("non-hex percent escape");
      }
      out.push_back(static_cast<char>(hi * 16 + lo));
      i += 2;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

Result<std::string> FormField(std::string_view body, std::string_view name) {
  size_t pos = 0;
  while (pos <= body.size()) {
    size_t amp = body.find('&', pos);
    if (amp == std::string_view::npos) amp = body.size();
    std::string_view field = body.substr(pos, amp - pos);
    size_t eq = field.find('=');
    std::string_view key = eq == std::string_view::npos ? field
                                                        : field.substr(0, eq);
    if (key == name) {
      std::string_view raw =
          eq == std::string_view::npos ? std::string_view() : field.substr(eq + 1);
      return UrlDecode(raw);
    }
    pos = amp + 1;
  }
  return Status::NotFound("form field \"" + std::string(name) + "\" absent");
}

Status SendAll(int fd, std::string_view data, const Deadline& deadline) {
  size_t sent = 0;
  while (sent < data.size()) {
    int ready = PollFd(fd, POLLOUT, deadline);
    if (ready == -1) return Status::Timeout("HTTP write deadline expired");
    if (ready == -2) return Status::Unavailable("HTTP connection error");
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status::Unavailable(std::string("HTTP send failed: ") +
                                 std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

int HttpConnection::FillBuffer(const Deadline& deadline) {
  if (pos_ < buffer_.size()) return 1;
  buffer_.clear();
  pos_ = 0;
  for (;;) {
    int ready = PollFd(fd_, POLLIN, deadline);
    if (ready < 0) return ready;
    char chunk[16384];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return -2;
    }
    if (n == 0) return 0;  // EOF.
    buffer_.assign(chunk, static_cast<size_t>(n));
    bytes_read_ += static_cast<uint64_t>(n);
    return 1;
  }
}

Result<HttpRequest> HttpConnection::ReadRequest(const HttpLimits& limits,
                                                const Deadline& deadline,
                                                bool* clean_close) {
  if (clean_close != nullptr) *clean_close = false;

  // Accumulate the header section.
  std::string head;
  while (true) {
    int rc = FillBuffer(deadline);
    if (rc == 0) {
      if (head.empty() && clean_close != nullptr) *clean_close = true;
      return Status::Unavailable("connection closed");
    }
    if (rc == -1) return Status::Timeout("HTTP read deadline expired");
    if (rc == -2) return Status::Unavailable("HTTP connection error");
    head.append(buffer_, pos_, buffer_.size() - pos_);
    pos_ = buffer_.size();
    size_t end = head.find("\r\n\r\n");
    // The limit applies to the header section itself, so it must be
    // checked even when the terminator already arrived (an oversized
    // header can land complete in one read).
    if ((end == std::string::npos ? head.size() : end) >
        limits.max_header_bytes) {
      return Status::InvalidArgument("HTTP header section exceeds " +
                                     std::to_string(limits.max_header_bytes) +
                                     " bytes");
    }
    if (end != std::string::npos) {
      // Push bytes past the header section back for the body read.
      std::string rest = head.substr(end + 4);
      head.resize(end);
      buffer_ = std::move(rest);
      pos_ = 0;
      break;
    }
  }

  HttpRequest request;
  size_t eol = head.find("\r\n");
  std::string_view start_line =
      std::string_view(head).substr(0, eol == std::string::npos ? head.size()
                                                                : eol);
  LUSAIL_ASSIGN_OR_RETURN(ParsedStartLine parts, SplitStartLine(start_line));
  request.method = std::move(parts.first);
  request.target = std::move(parts.second);
  request.version = std::move(parts.third);
  if (request.version != "HTTP/1.1" && request.version != "HTTP/1.0") {
    return Status::ParseError("unsupported HTTP version \"" +
                              request.version + "\"");
  }
  if (eol != std::string::npos) {
    LUSAIL_RETURN_NOT_OK(ParseHeaderLines(
        std::string_view(head).substr(eol + 2), &request.headers));
  }

  LUSAIL_ASSIGN_OR_RETURN(size_t body_size,
                          ContentLengthOf(request.headers, limits));
  request.body.reserve(body_size);
  while (request.body.size() < body_size) {
    int rc = FillBuffer(deadline);
    if (rc == 0) return Status::Unavailable("connection closed mid-body");
    if (rc == -1) return Status::Timeout("HTTP read deadline expired");
    if (rc == -2) return Status::Unavailable("HTTP connection error");
    size_t want = body_size - request.body.size();
    size_t have = std::min(want, buffer_.size() - pos_);
    request.body.append(buffer_, pos_, have);
    pos_ += have;
  }
  return request;
}

Status HttpConnection::ReadLine(const HttpLimits& limits,
                                const Deadline& deadline, std::string* line) {
  line->clear();
  for (;;) {
    while (pos_ < buffer_.size()) {
      line->push_back(buffer_[pos_++]);
      if (line->size() >= 2 && (*line)[line->size() - 2] == '\r' &&
          line->back() == '\n') {
        line->resize(line->size() - 2);
        return Status::OK();
      }
      if (line->size() > limits.max_header_bytes) {
        return Status::ParseError("HTTP chunk/trailer line exceeds " +
                                  std::to_string(limits.max_header_bytes) +
                                  " bytes");
      }
    }
    int rc = FillBuffer(deadline);
    if (rc == 0) return Status::Unavailable("connection closed mid-body");
    if (rc == -1) return Status::Timeout("HTTP read deadline expired");
    if (rc == -2) return Status::Unavailable("HTTP connection error");
  }
}

Status HttpConnection::ReadChunk(
    const HttpLimits& limits, const Deadline& deadline, std::string* data,
    bool* last,
    std::vector<std::pair<std::string, std::string>>* trailers) {
  *last = false;
  data->clear();
  std::string line;
  LUSAIL_RETURN_NOT_OK(ReadLine(limits, deadline, &line));
  size_t semi = line.find(';');  // Chunk extensions are ignored.
  std::string size_text =
      line.substr(0, semi == std::string::npos ? line.size() : semi);
  char* end = nullptr;
  errno = 0;
  unsigned long long size = std::strtoull(size_text.c_str(), &end, 16);
  if (size_text.empty() || errno != 0 || end == size_text.c_str() ||
      *end != '\0') {
    return Status::ParseError("malformed HTTP chunk size \"" + line + "\"");
  }
  if (size > limits.max_body_bytes) {
    return Status::InvalidArgument("HTTP chunk of " + size_text +
                                   " bytes exceeds the limit of " +
                                   std::to_string(limits.max_body_bytes));
  }
  if (size == 0) {
    *last = true;
    // Trailer section: header lines until the final blank line.
    for (;;) {
      LUSAIL_RETURN_NOT_OK(ReadLine(limits, deadline, &line));
      if (line.empty()) break;
      std::vector<std::pair<std::string, std::string>> parsed;
      LUSAIL_RETURN_NOT_OK(ParseHeaderLines(line, &parsed));
      if (trailers != nullptr) {
        for (auto& header : parsed) trailers->push_back(std::move(header));
      }
    }
    return Status::OK();
  }
  data->reserve(static_cast<size_t>(size));
  while (data->size() < size) {
    int rc = FillBuffer(deadline);
    if (rc == 0) return Status::Unavailable("connection closed mid-body");
    if (rc == -1) return Status::Timeout("HTTP read deadline expired");
    if (rc == -2) return Status::Unavailable("HTTP connection error");
    size_t want = static_cast<size_t>(size) - data->size();
    size_t have = std::min(want, buffer_.size() - pos_);
    data->append(buffer_, pos_, have);
    pos_ += have;
  }
  LUSAIL_RETURN_NOT_OK(ReadLine(limits, deadline, &line));
  if (!line.empty()) {
    return Status::ParseError("HTTP chunk data not CRLF-terminated");
  }
  return Status::OK();
}

Status HttpConnection::ReadBodyBytes(size_t max_bytes, const Deadline& deadline,
                                     std::string* data) {
  data->clear();
  if (max_bytes == 0) return Status::OK();
  int rc = FillBuffer(deadline);
  if (rc == 0) return Status::Unavailable("connection closed mid-body");
  if (rc == -1) return Status::Timeout("HTTP read deadline expired");
  if (rc == -2) return Status::Unavailable("HTTP connection error");
  size_t have = std::min(max_bytes, buffer_.size() - pos_);
  data->append(buffer_, pos_, have);
  pos_ += have;
  return Status::OK();
}

Result<HttpResponse> HttpConnection::ReadResponse(const HttpLimits& limits,
                                                  const Deadline& deadline) {
  LUSAIL_ASSIGN_OR_RETURN(HttpResponse response,
                          ReadResponseHead(limits, deadline));
  const std::string* te = response.FindHeader("Transfer-Encoding");
  if (te != nullptr && EqualsIgnoreCase(*te, "chunked")) {
    // De-chunk for buffered callers; trailers become ordinary headers.
    bool last = false;
    std::string chunk;
    while (!last) {
      LUSAIL_RETURN_NOT_OK(
          ReadChunk(limits, deadline, &chunk, &last, &response.headers));
      if (response.body.size() + chunk.size() > limits.max_body_bytes) {
        return Status::InvalidArgument(
            "HTTP body exceeds the limit of " +
            std::to_string(limits.max_body_bytes) + " bytes");
      }
      response.body.append(chunk);
    }
    return response;
  }

  LUSAIL_ASSIGN_OR_RETURN(size_t body_size,
                          ContentLengthOf(response.headers, limits));
  LUSAIL_RETURN_NOT_OK(ReadBodyInto(body_size, deadline, &response.body));
  return response;
}

Status HttpConnection::ReadBodyInto(size_t size, const Deadline& deadline,
                                    std::string* body) {
  body->resize(size);
  const size_t buffered = std::min(size, buffer_.size() - pos_);
  std::memcpy(body->data(), buffer_.data() + pos_, buffered);
  pos_ += buffered;
  size_t have = buffered;
  while (have < size) {
    // Try the socket first and wait only when it has nothing yet.
    ssize_t n = ::recv(fd_, body->data() + have, size - have, MSG_DONTWAIT);
    if (n > 0) {
      have += static_cast<size_t>(n);
      bytes_read_ += static_cast<uint64_t>(n);
      continue;
    }
    if (n == 0) return Status::Unavailable("connection closed mid-body");
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      return Status::Unavailable("HTTP connection error");
    }
    int ready = PollFd(fd_, POLLIN, deadline);
    if (ready == -1) return Status::Timeout("HTTP read deadline expired");
    if (ready < 0) return Status::Unavailable("HTTP connection error");
  }
  return Status::OK();
}

Result<HttpResponse> HttpConnection::ReadResponseHead(
    const HttpLimits& limits, const Deadline& deadline) {
  std::string head;
  while (true) {
    int rc = FillBuffer(deadline);
    if (rc == 0) return Status::Unavailable("connection closed");
    if (rc == -1) return Status::Timeout("HTTP read deadline expired");
    if (rc == -2) return Status::Unavailable("HTTP connection error");
    head.append(buffer_, pos_, buffer_.size() - pos_);
    pos_ = buffer_.size();
    size_t end = head.find("\r\n\r\n");
    if ((end == std::string::npos ? head.size() : end) >
        limits.max_header_bytes) {
      return Status::InvalidArgument("HTTP header section exceeds " +
                                     std::to_string(limits.max_header_bytes) +
                                     " bytes");
    }
    if (end != std::string::npos) {
      std::string rest = head.substr(end + 4);
      head.resize(end);
      buffer_ = std::move(rest);
      pos_ = 0;
      break;
    }
  }

  HttpResponse response;
  size_t eol = head.find("\r\n");
  std::string_view start_line =
      std::string_view(head).substr(0, eol == std::string::npos ? head.size()
                                                                : eol);
  LUSAIL_ASSIGN_OR_RETURN(ParsedStartLine parts, SplitStartLine(start_line));
  if (!StartsWith(parts.first, "HTTP/")) {
    return Status::ParseError("malformed HTTP status line");
  }
  char* end = nullptr;
  long code = std::strtol(parts.second.c_str(), &end, 10);
  if (end == parts.second.c_str() || *end != '\0' || code < 100 ||
      code > 599) {
    return Status::ParseError("malformed HTTP status code \"" +
                              parts.second + "\"");
  }
  response.status = static_cast<int>(code);
  response.reason = std::move(parts.third);
  if (eol != std::string::npos) {
    LUSAIL_RETURN_NOT_OK(ParseHeaderLines(
        std::string_view(head).substr(eol + 2), &response.headers));
  }
  return response;
}

}  // namespace lusail::rpc
