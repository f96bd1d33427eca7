#include "daemon/scrape_endpoint.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "common/failpoint.h"
#include "obs/metrics.h"

namespace viewmap::daemon {

namespace {

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;  // a signal is not the peer hanging up
    if (n <= 0) return;  // peer went away; a scraper will retry
    off += static_cast<std::size_t>(n);
  }
}

/// Closes a served connection without resetting it. Closing a socket
/// with unread bytes in its receive queue sends a reset, and a reset can
/// destroy the reply before the client reads it: a client that writes its
/// headers after the request line (bash's printf over /dev/tcp does) saw
/// nothing. So half-close, drop what the client still sends until it
/// closes or the same 500 ms deadline the request read has, then close.
void linger_close(int fd) {
  ::shutdown(fd, SHUT_WR);
  timeval tv{0, 100 * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  char buf[1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    const bool more = n > 0 || (n < 0 && (errno == EINTR || errno == EAGAIN ||
                                          errno == EWOULDBLOCK));
    if (!more || std::chrono::steady_clock::now() >= give_up) break;
  }
  ::close(fd);
}

std::string http_response(int status, const char* reason,
                          const std::string& body) {
  std::ostringstream os;
  os << "HTTP/1.1 " << status << ' ' << reason << "\r\n"
     << "Content-Type: text/plain; version=0.0.4\r\n"
     << "Content-Length: " << body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << body;
  return os.str();
}

}  // namespace

ScrapeEndpoint::ScrapeEndpoint(const obs::MetricsRegistry& registry,
                               HealthProbe health, ScrapeConfig cfg,
                               obs::MetricsRegistry& own_metrics)
    : registry_(registry),
      health_(std::move(health)),
      cfg_(std::move(cfg)),
      heartbeat_(own_metrics, "scrape") {
  requests_ = &own_metrics.counter("viewmap_daemon_scrape_requests_total");
}

ScrapeEndpoint::~ScrapeEndpoint() { stop(); }

bool ScrapeEndpoint::start() {
  if (thread_.joinable()) return false;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("scrape: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("scrape: bad bind address " + cfg_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    throw std::runtime_error("scrape: cannot bind " + cfg_.bind_address + ":" +
                             std::to_string(cfg_.port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);

  listen_fd_ = fd;
  stop_flag_.store(false, std::memory_order_release);
  heartbeat_.beat();
  running_.store(true, std::memory_order_release);
  port_.store(ntohs(bound.sin_port), std::memory_order_release);
  thread_ = std::thread([this] { run(); });
  return true;
}

void ScrapeEndpoint::stop() {
  stop_flag_.store(true, std::memory_order_release);
  // A shut-down listening socket polls as hung up, so the accept loop
  // sees the flag now instead of at its next 100 ms timeout.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
  port_.store(0, std::memory_order_release);
}

void ScrapeEndpoint::run() {
  while (!stop_flag_.load(std::memory_order_acquire)) {
    heartbeat_.beat();
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the stop flag
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    serve_one(client);
    linger_close(client);
  }
}

void ScrapeEndpoint::serve_one(int client_fd) {
  requests_->add();
  // One failed response must not take the accept loop with it: answer
  // 500 and keep serving (the scraper retries; the accept loop is what
  // beats the scrape heartbeat).
  if (failpoint::any_armed() &&
      failpoint::evaluate("daemon.scrape.serve").fires()) {
    send_all(client_fd, http_response(500, "Internal Server Error",
                                      "injected failure\n"));
    return;
  }
  // We only need the request line, but TCP may hand it to us in pieces —
  // keep reading until "\r\n" arrives, the buffer fills, or the 500 ms
  // deadline passes (slow-loris resistance: then we hang up). SO_RCVTIMEO
  // bounds each individual recv so a silent peer cannot pin the thread.
  timeval tv{0, 500 * 1000};
  ::setsockopt(client_fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(500);
  char buf[1024];
  std::size_t have = 0;
  std::string_view request;
  for (;;) {
    const ssize_t n = ::recv(client_fd, buf + have, sizeof buf - 1 - have, 0);
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (std::chrono::steady_clock::now() >= give_up) return;
      continue;
    }
    if (n <= 0) return;  // peer closed (or errored) before a full request line
    have += static_cast<std::size_t>(n);
    request = std::string_view(buf, have);
    if (request.find("\r\n") != std::string_view::npos) break;
    if (have >= sizeof buf - 1) break;  // no line in a full buffer: let 404 answer
    if (std::chrono::steady_clock::now() >= give_up) return;
  }
  const auto line_end = request.find("\r\n");
  const std::string_view line = request.substr(0, line_end);

  if (line.starts_with("GET /metrics")) {
    (void)health_();  // refreshes the health gauges this scrape exports
    send_all(client_fd, http_response(200, "OK", registry_.render_text()));
  } else if (line.starts_with("GET /healthz")) {
    auto [healthy, body] = health_();
    send_all(client_fd,
             healthy ? http_response(200, "OK", body)
                     : http_response(503, "Service Unavailable", body));
  } else {
    send_all(client_fd, http_response(404, "Not Found", "not found\n"));
  }
}

}  // namespace viewmap::daemon
