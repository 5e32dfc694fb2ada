#ifndef LUSAIL_RPC_HTTP_H_
#define LUSAIL_RPC_HTTP_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"

namespace lusail::rpc {

/// Parsing limits enforced while reading HTTP messages off a socket. The
/// defaults are generous for SPARQL traffic (queries are kilobytes,
/// results can be tens of megabytes) while still bounding what one
/// misbehaving peer can make us buffer.
struct HttpLimits {
  size_t max_header_bytes = 64 << 10;
  size_t max_body_bytes = 256u << 20;
};

/// A parsed HTTP/1.1 request. Header names are matched case-insensitively
/// (stored as received); bodies are Content-Length delimited — the only
/// framing this subset implements.
struct HttpRequest {
  std::string method;
  std::string target;
  std::string version = "HTTP/1.1";
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  void SetHeader(std::string name, std::string value) {
    headers.emplace_back(std::move(name), std::move(value));
  }
  /// First header with `name` (case-insensitive), or nullptr.
  const std::string* FindHeader(std::string_view name) const;

  /// True unless the peer asked for "Connection: close" (HTTP/1.1
  /// defaults to keep-alive).
  bool KeepAlive() const;

  /// Serialized request line + headers + body; Content-Length is
  /// appended automatically.
  std::string Serialize() const;
};

/// A parsed (or to-be-sent) HTTP/1.1 response.
struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  void SetHeader(std::string name, std::string value) {
    headers.emplace_back(std::move(name), std::move(value));
  }
  const std::string* FindHeader(std::string_view name) const;
  bool KeepAlive() const;
  std::string Serialize() const;

  /// Status line + headers + blank line only — no body and no automatic
  /// Content-Length. This is the head of a `Transfer-Encoding: chunked`
  /// response; the caller follows it with EncodeChunk frames and a
  /// terminal EncodeLastChunk.
  std::string SerializeHead() const;
};

/// Standard reason phrase for `status` ("OK", "Bad Request", ...).
const char* HttpReason(int status);

/// One HTTP/1.1 chunk frame: hex size, CRLF, data, CRLF. `data` must be
/// non-empty (a zero-size chunk terminates the stream; use
/// EncodeLastChunk).
std::string EncodeChunk(std::string_view data);

/// The terminal zero chunk plus optional trailer headers and the final
/// blank line.
std::string EncodeLastChunk(
    const std::vector<std::pair<std::string, std::string>>& trailers = {});

/// Percent-decodes an application/x-www-form-urlencoded value ('+' means
/// space). Fails on truncated or non-hex escapes.
Result<std::string> UrlDecode(std::string_view s);

/// Extracts field `name` from an application/x-www-form-urlencoded body
/// and percent-decodes it; kNotFound when absent.
Result<std::string> FormField(std::string_view body, std::string_view name);

// --- Deadline-aware socket I/O (POSIX fds) -------------------------------

/// Writes all of `data` to `fd`, waiting via poll() so no write blocks
/// past `deadline`. kTimeout on expiry, kUnavailable on connection errors.
Status SendAll(int fd, std::string_view data, const Deadline& deadline);

/// Buffered HTTP message reader/writer over one connected socket. Not
/// thread-safe; one connection is driven by one thread at a time. The
/// caller owns the fd (Close() is explicit, not in the destructor) so
/// pooled client connections can hand their fd back and forth.
class HttpConnection {
 public:
  explicit HttpConnection(int fd) : fd_(fd) {}

  int fd() const { return fd_; }

  /// Reads one full request. Error codes:
  ///   kUnavailable — peer closed / connection error (close it),
  ///   kTimeout     — deadline expired mid-message,
  ///   kParseError  — malformed HTTP (the server answers 400),
  ///   kInvalidArgument — a limit in `limits` was exceeded (413-worthy).
  /// A clean close *before any request bytes* sets `*clean_close` (normal
  /// end of a keep-alive connection, not an error worth logging).
  Result<HttpRequest> ReadRequest(const HttpLimits& limits,
                                  const Deadline& deadline,
                                  bool* clean_close = nullptr);

  /// Reads one full response (same error contract, minus clean_close:
  /// a close before the status line is always kUnavailable). A
  /// `Transfer-Encoding: chunked` body is de-chunked into `body` with any
  /// trailer headers appended to `headers`, so buffered callers stay
  /// oblivious to the framing.
  Result<HttpResponse> ReadResponse(const HttpLimits& limits,
                                    const Deadline& deadline);

  /// Reads only the status line + headers of a response, leaving the body
  /// on the wire — the incremental entry point for streaming consumers,
  /// who then drain it with ReadChunk (chunked) or ReadBodyBytes
  /// (Content-Length).
  Result<HttpResponse> ReadResponseHead(const HttpLimits& limits,
                                        const Deadline& deadline);

  /// Reads one chunk of a chunked body into `*data` (cleared first). On
  /// the terminal zero chunk, sets `*last`, consumes the trailer section,
  /// and appends any trailer headers to `*trailers` (when non-null).
  Status ReadChunk(const HttpLimits& limits, const Deadline& deadline,
                   std::string* data, bool* last,
                   std::vector<std::pair<std::string, std::string>>* trailers);

  /// Reads up to `max_bytes` of a Content-Length body into `*data`
  /// (cleared first; empty result means the body is exhausted after
  /// `remaining` reached zero — the caller tracks `remaining`).
  Status ReadBodyBytes(size_t max_bytes, const Deadline& deadline,
                       std::string* data);

  Status Write(const HttpRequest& request, const Deadline& deadline) {
    return SendAll(fd_, request.Serialize(), deadline);
  }
  Status Write(const HttpResponse& response, const Deadline& deadline) {
    return SendAll(fd_, response.Serialize(), deadline);
  }

  /// Bytes read since construction (wire-level, headers included).
  uint64_t bytes_read() const { return bytes_read_; }

  /// True when buffered unread bytes remain (pipelined data; a pooled
  /// client connection with leftovers is not safely reusable).
  bool HasBufferedData() const { return pos_ < buffer_.size(); }

 private:
  /// Ensures at least one more byte is buffered. Returns 0 on EOF, -1 on
  /// timeout, -2 on connection error, else 1.
  int FillBuffer(const Deadline& deadline);

  /// Reads a `size`-byte body into `*body`: first what the buffer already
  /// holds, then recv straight into the body's tail, so each body byte is
  /// copied once and no byte past the body is taken off the socket.
  Status ReadBodyInto(size_t size, const Deadline& deadline,
                      std::string* body);

  /// Reads one CRLF-terminated line (terminator stripped). Used for chunk
  /// size lines and trailer headers.
  Status ReadLine(const HttpLimits& limits, const Deadline& deadline,
                  std::string* line);

  int fd_;
  std::string buffer_;
  size_t pos_ = 0;
  uint64_t bytes_read_ = 0;
};

}  // namespace lusail::rpc

#endif  // LUSAIL_RPC_HTTP_H_
