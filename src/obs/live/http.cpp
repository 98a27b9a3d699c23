#include "obs/live/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/check.hpp"

namespace tagnn::obs::live {
namespace {

// Request *head* cap; POST bodies are separately bounded below.
constexpr std::size_t kMaxRequestBytes = 8192;
// Ingest deltas for a laptop-scale tenant stay well under this; the cap
// exists so a rogue client cannot balloon server memory.
constexpr std::size_t kMaxBodyBytes = 8u << 20;

const char* status_text(int status) {
  switch (status) {
    case 200:
      return "OK";
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
      return "Error";
  }
}

void set_timeout(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool send_all(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void write_response(int fd, const HttpResponse& r) {
  std::string head = "HTTP/1.1 " + std::to_string(r.status) + " " +
                     status_text(r.status) +
                     "\r\nContent-Type: " + r.content_type +
                     "\r\nContent-Length: " + std::to_string(r.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  if (send_all(fd, head.data(), head.size())) {
    send_all(fd, r.body.data(), r.body.size());
  }
}

/// Case-insensitive "Content-Length" scan over the raw header block.
/// Returns false when absent or malformed.
bool parse_content_length(const std::string& head, std::size_t* out) {
  std::size_t pos = 0;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    const std::string line = head.substr(pos, eol - pos);
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string name = line.substr(0, colon);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      if (name == "content-length") {
        const char* v = line.c_str() + colon + 1;
        while (*v == ' ' || *v == '\t') ++v;
        char* end = nullptr;
        const unsigned long long n = std::strtoull(v, &end, 10);
        if (end == v) return false;
        *out = static_cast<std::size_t>(n);
        return true;
      }
    }
    pos = eol + 2;
  }
  return false;
}

}  // namespace

HttpServer::~HttpServer() { stop(); }

void HttpServer::handle(std::string path, HttpHandler handler) {
  handle_request(std::move(path),
                 [h = std::move(handler)](const HttpRequest& req) {
                   if (req.method != "GET") {
                     return HttpResponse{405, "text/plain; charset=utf-8",
                                         "only GET is supported here\n"};
                   }
                   return h(req.query);
                 });
}

void HttpServer::handle_request(std::string path, HttpRequestHandler handler) {
  TAGNN_CHECK_MSG(listen_fd_ < 0, "HttpServer: handle() after start()");
  handlers_.emplace_back(std::move(path), std::move(handler));
}

void HttpServer::set_concurrency(int n) {
  TAGNN_CHECK_MSG(listen_fd_ < 0, "HttpServer: set_concurrency() after start()");
  TAGNN_CHECK_MSG(n >= 1 && n <= 256, "HttpServer: concurrency out of range");
  concurrency_ = n;
}

bool HttpServer::start(std::uint16_t port, std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    return false;
  };
  TAGNN_CHECK_MSG(listen_fd_ < 0, "HttpServer: started twice");
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return fail("bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    return fail("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  stopping_ = false;
  if (concurrency_ > 1) {
    workers_.reserve(static_cast<std::size_t>(concurrency_));
    for (int i = 0; i < concurrency_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }
  thread_ = std::thread([this] { serve(); });
  return true;
}

void HttpServer::serve() {
  for (;;) {
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down by stop()
    }
    set_timeout(conn, 5000);
    if (concurrency_ > 1) {
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        if (stopping_) {
          ::close(conn);
          return;
        }
        conn_queue_.push_back(conn);
      }
      queue_cv_.notify_one();
      continue;
    }
    handle_connection(conn);
    ::close(conn);
  }
}

void HttpServer::worker_loop() {
  for (;;) {
    int conn = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return stopping_ || !conn_queue_.empty(); });
      if (conn_queue_.empty()) return;  // stopping, queue drained
      conn = conn_queue_.front();
      conn_queue_.pop_front();
    }
    handle_connection(conn);
    ::close(conn);
  }
}

void HttpServer::handle_connection(int fd) {
  // Read until the end of the request head, then (for POST) until
  // Content-Length bytes of body have arrived.
  std::string raw;
  char buf[4096];
  std::size_t head_end = std::string::npos;
  while (raw.size() < kMaxRequestBytes &&
         (head_end = raw.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  if (head_end == std::string::npos) head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    write_response(fd, {400, "text/plain; charset=utf-8", "bad request\n"});
    return;
  }
  const std::string head = raw.substr(0, head_end);
  // Request line: METHOD SP target SP version.
  const std::size_t eol = head.find("\r\n");
  const std::string line =
      eol == std::string::npos ? head : head.substr(0, eol);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) {
    write_response(fd, {400, "text/plain; charset=utf-8", "bad request\n"});
    return;
  }
  HttpRequest req;
  req.method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (req.method != "GET" && req.method != "POST") {
    write_response(fd, {405, "text/plain; charset=utf-8",
                        "only GET and POST are supported\n"});
    return;
  }
  if (req.method == "POST") {
    std::size_t want = 0;
    if (!parse_content_length(head, &want)) {
      write_response(fd, {400, "text/plain; charset=utf-8",
                          "POST requires Content-Length\n"});
      return;
    }
    if (want > kMaxBodyBytes) {
      write_response(fd, {413, "text/plain; charset=utf-8",
                          "request body too large\n"});
      return;
    }
    req.body = raw.substr(head_end + 4);
    while (req.body.size() < want) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      req.body.append(buf, static_cast<std::size_t>(n));
    }
    if (req.body.size() < want) {
      write_response(fd, {400, "text/plain; charset=utf-8",
                          "truncated request body\n"});
      return;
    }
    req.body.resize(want);
  }
  const std::size_t qm = target.find('?');
  if (qm != std::string::npos) {
    req.query = target.substr(qm + 1);
    target.resize(qm);
  }
  req.path = target;
  for (const auto& [path, handler] : handlers_) {
    if (path == target) {
      write_response(fd, handler(req));
      return;
    }
  }
  write_response(fd, {404, "text/plain; charset=utf-8",
                      "unknown path: " + target + "\n"});
}

void HttpServer::stop() {
  if (listen_fd_ < 0) return;
  // shutdown() wakes the blocking accept() with an error; close() alone
  // is not guaranteed to on all kernels.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // Workers exit as soon as the queue drains, so nothing should remain;
  // close stragglers defensively (a connection accepted in the same
  // instant stop() ran).
  for (const int fd : conn_queue_) ::close(fd);
  conn_queue_.clear();
  listen_fd_ = -1;
}

namespace {

HttpGetResult http_roundtrip(const std::string& host, std::uint16_t port,
                             const std::string& request, int timeout_ms) {
  HttpGetResult r;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    r.error = std::string("socket: ") + std::strerror(errno);
    return r;
  }
  set_timeout(fd, timeout_ms);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    r.error = "bad IPv4 address: " + host;
    return r;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    r.error = "connect " + host + ":" + std::to_string(port) + ": " +
              std::strerror(errno);
    ::close(fd);
    return r;
  }
  if (!send_all(fd, request.data(), request.size())) {
    r.error = std::string("send: ") + std::strerror(errno);
    ::close(fd);
    return r;
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      r.error = std::string("recv: ") + std::strerror(errno);
      ::close(fd);
      return r;
    }
    if (n == 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  // "HTTP/1.1 200 OK\r\n...\r\n\r\n<body>"
  if (raw.rfind("HTTP/1.", 0) != 0 || raw.size() < 12) {
    r.error = "malformed HTTP response";
    return r;
  }
  r.status = std::atoi(raw.c_str() + 9);
  const std::size_t body = raw.find("\r\n\r\n");
  if (body != std::string::npos) r.body = raw.substr(body + 4);
  r.ok = true;
  return r;
}

}  // namespace

HttpGetResult http_get(const std::string& host, std::uint16_t port,
                       const std::string& path, int timeout_ms) {
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                          "\r\nConnection: close\r\n\r\n";
  return http_roundtrip(host, port, req, timeout_ms);
}

HttpGetResult http_post(const std::string& host, std::uint16_t port,
                        const std::string& path, const std::string& body,
                        int timeout_ms) {
  const std::string req =
      "POST " + path + " HTTP/1.1\r\nHost: " + host +
      "\r\nContent-Type: application/json; charset=utf-8"
      "\r\nContent-Length: " + std::to_string(body.size()) +
      "\r\nConnection: close\r\n\r\n" + body;
  return http_roundtrip(host, port, req, timeout_ms);
}

}  // namespace tagnn::obs::live
