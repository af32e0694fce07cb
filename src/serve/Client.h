//===- serve/Client.h - Blocking loopback HTTP client -----------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small blocking HTTP/1.1 client over loopback TCP, for the serving
/// tests and the bench_x10_serve load generator. One Client owns one
/// keep-alive connection; request() sends and blocks for the complete
/// response (ResponseParser does the framing). sendRaw()/readResponse()
/// expose the connection at the byte level so the robustness tests can
/// transmit deliberately malformed, truncated, or oversized streams.
/// Every read is bounded by a receive timeout so a wedged server fails
/// a test instead of hanging it.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_SERVE_CLIENT_H
#define PDT_SERVE_CLIENT_H

#include "serve/Http.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pdt {
namespace serve {

/// One complete response as the client saw it.
struct ClientResponse {
  int Status = 0;
  std::vector<HttpHeader> Headers;
  std::string Body;
  /// The server's X-PDT-Request-Id echo (empty when the server did not
  /// send one) — the join key into access lines, journal events, and
  /// flight dumps.
  std::string RequestId;

  /// First header value with \p Name (case-insensitive); nullptr when
  /// absent.
  const std::string *header(std::string_view Name) const;
};

class Client {
public:
  Client() = default;
  ~Client();

  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// Connects to 127.0.0.1:\p Port. False with \p Error set on
  /// failure. Reconnecting an open client closes the old connection.
  bool connectTo(uint16_t Port, std::string *Error = nullptr);

  bool connected() const { return Fd >= 0; }
  void close();

  /// Sends one request and blocks for its response. Keep-alive: the
  /// connection stays open unless the server closed it. False (with
  /// \p Error) on any socket or framing failure.
  bool request(const std::string &Method, const std::string &Target,
               const std::string &Body, ClientResponse &Out,
               std::string *Error = nullptr,
               const std::vector<HttpHeader> &ExtraHeaders = {});

  bool get(const std::string &Target, ClientResponse &Out,
           std::string *Error = nullptr) {
    return request("GET", Target, "", Out, Error);
  }
  bool post(const std::string &Target, const std::string &Body,
            ClientResponse &Out, std::string *Error = nullptr) {
    return request("POST", Target, Body, Out, Error);
  }

  /// Transmits \p Bytes verbatim (for malformed-stream tests).
  bool sendRaw(const std::string &Bytes, std::string *Error = nullptr);

  /// Blocks for one complete response off the wire.
  bool readResponse(ClientResponse &Out, std::string *Error = nullptr);

  /// The X-PDT-Request-Id of the most recent complete response on this
  /// connection (empty before one arrives). Socket-level failure
  /// strings carry it as "(last request id: ...)" so a bug report
  /// names the request that preceded the breakage.
  const std::string &lastRequestId() const { return LastRequestId; }

private:
  /// Seconds a read may block before the client gives up.
  static constexpr unsigned TimeoutSeconds = 10;
  int Fd = -1;
  ResponseParser Parser;
  std::string LastRequestId;
};

} // namespace serve
} // namespace pdt

#endif // PDT_SERVE_CLIENT_H
