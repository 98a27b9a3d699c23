// Minimal embedded HTTP/1.1 server (and matching client) on blocking
// POSIX sockets — no dependencies, loopback-only by design.
//
// The server binds 127.0.0.1 (port 0 = kernel-assigned, read back via
// port()), runs one accept thread, and serves registered handlers with
// Connection: close semantics. By default connections are handled
// serially on the accept thread — exactly the load profile of a metrics
// scrape endpoint. A request plane that blocks inside handlers (the
// serving layer waits for engine work) raises set_concurrency(n) before
// start() so n worker threads drain accepted connections in parallel;
// handlers must then be thread-safe.
//
// GET and POST are implemented (POST bodies are read up to a
// Content-Length cap); anything else gets 405, unknown paths 404.
// Handlers are registered before start() and looked up by exact path
// (the query string is split off and passed through). stop() is
// idempotent and joins every thread, so destruction is clean.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace tagnn::obs::live {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// One parsed request as seen by a handler.
struct HttpRequest {
  std::string method;  // "GET" or "POST"
  std::string path;    // target with the query string split off
  std::string query;   // text after '?', possibly empty
  std::string body;    // POST payload ("" for GET)
};

/// Handler input is the query string (text after '?', possibly empty).
/// GET-only registration; POST to such a path gets 405.
using HttpHandler = std::function<HttpResponse(const std::string& query)>;

/// Full-request handler: sees method, query, and body (GET and POST).
using HttpRequestHandler = std::function<HttpResponse(const HttpRequest&)>;

class HttpServer {
 public:
  HttpServer() = default;
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers a GET-only handler for an exact path ("/metrics"). Must
  /// be called before start().
  void handle(std::string path, HttpHandler handler);

  /// Registers a method-agnostic handler (the serving request plane
  /// takes POST bodies). Must be called before start().
  void handle_request(std::string path, HttpRequestHandler handler);

  /// Number of connection-handling worker threads. 1 (the default)
  /// keeps the classic serial accept-loop behaviour; n > 1 lets n
  /// requests block inside handlers concurrently. Must be called
  /// before start().
  void set_concurrency(int n);

  /// Binds 127.0.0.1:port (0 = ephemeral) and starts the accept thread.
  /// False + *error on failure; true at most once.
  bool start(std::uint16_t port, std::string* error = nullptr);

  bool running() const { return listen_fd_ >= 0; }
  /// The bound port (the kernel's pick when started with port 0).
  std::uint16_t port() const { return port_; }

  /// Shuts the listen socket down and joins accept + worker threads.
  void stop();

 private:
  void serve();
  void worker_loop();
  void handle_connection(int fd);

  std::vector<std::pair<std::string, HttpRequestHandler>> handlers_;
  int concurrency_ = 1;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;

  // Connection hand-off queue, used only when concurrency_ > 1.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> conn_queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

struct HttpGetResult {
  bool ok = false;      // transport-level success (any HTTP status)
  int status = 0;
  std::string body;
  std::string error;    // transport error when !ok
};

/// Blocking GET http://host:port/path with a per-socket-op timeout.
/// `host` must be a numeric IPv4 address (loopback in practice).
HttpGetResult http_get(const std::string& host, std::uint16_t port,
                       const std::string& path, int timeout_ms = 2000);

/// Blocking POST with a request body (Content-Type application/json by
/// convention between tagnn_serve and tagnn_loadgen).
HttpGetResult http_post(const std::string& host, std::uint16_t port,
                        const std::string& path, const std::string& body,
                        int timeout_ms = 5000);

}  // namespace tagnn::obs::live
