#include "net/http_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "support/check.hpp"
#include "support/log.hpp"

namespace mfcp::net {

namespace {

/// Kernel listen(2) backlog.
constexpr int kListenBacklog = 64;
/// Accepted connections waiting for a worker beyond which the server
/// sheds load with an immediate 503.
constexpr std::size_t kMaxQueuedConnections = 128;
/// Receive timeout per connection, so one stalled client costs at most
/// one worker for this long.
constexpr int kReceiveTimeoutMs = 2000;

void send_all(int fd, std::string_view data) noexcept {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

HttpServer::HttpServer(Handler handler, HttpServerConfig config)
    : handler_(std::move(handler)), config_(std::move(config)) {
  MFCP_CHECK(handler_ != nullptr, "http server: handler required");
  MFCP_CHECK(config_.worker_threads > 0,
             "http server: need at least one worker");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  MFCP_CHECK(listen_fd_ >= 0, "http server: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  MFCP_CHECK(::inet_pton(AF_INET, config_.bind_address.c_str(),
                         &addr.sin_addr) == 1,
             "http server: bad bind address");
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, kListenBacklog) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    MFCP_CHECK(false, std::string("http server: bind/listen failed: ") +
                          std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  workers_.reserve(config_.worker_threads);
  for (std::size_t i = 0; i < config_.worker_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::stop() {
  if (stopping_.exchange(true)) {
    // A concurrent or repeated stop: wait for the first one's joins.
    if (accept_thread_.joinable()) {
      accept_thread_.join();
    }
    for (std::thread& w : workers_) {
      if (w.joinable()) {
        w.join();
      }
    }
    return;
  }
  if (listen_fd_ >= 0) {
    // Unblocks the accept loop (Linux: pending accept returns EINVAL).
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  {
    // The accept loop has exited, so no more connections will be queued;
    // workers drain what was already accepted and then exit.
    std::lock_guard<std::mutex> lock(mutex_);
    accept_done_ = true;
  }
  ready_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) {
      w.join();
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpServer::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (stopping_.load(std::memory_order_relaxed)) {
        return;
      }
      if (errno == EINTR) {
        continue;
      }
      MFCP_LOG(kWarn) << "http server: accept failed: "
                      << std::strerror(errno);
      return;
    }
    bool shed = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (accepted_.size() >= kMaxQueuedConnections) {
        shed = true;
      } else {
        accepted_.push_back(client);
      }
    }
    if (shed) {
      // Bounded backlog: answer at the door instead of queueing without
      // limit. Retry-After 1 is a hint, not a promise.
      HttpResponse overloaded = text_response(503, "overloaded\n");
      overloaded.headers.emplace_back("Retry-After", "1");
      shed_.fetch_add(1, std::memory_order_relaxed);
      requests_.fetch_add(1, std::memory_order_relaxed);
      send_all(client, serialize_response(overloaded));
      ::close(client);
    } else {
      ready_.notify_one();
    }
  }
}

void HttpServer::worker_loop(std::size_t worker) {
  ServerObserver* obs = config_.observer;
  if (obs != nullptr) {
    obs->on_worker_start(worker);
  }
  for (;;) {
    int fd = -1;
    {
      if (obs != nullptr) {
        obs->on_worker_idle(worker);
      }
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock,
                  [this] { return !accepted_.empty() || accept_done_; });
      if (accepted_.empty()) {
        return;  // accept_done_ and nothing left to drain
      }
      fd = accepted_.front();
      accepted_.pop_front();
    }
    if (obs != nullptr) {
      obs->on_request_begin(worker);
    }
    serve_connection(fd, worker);
  }
}

void HttpServer::serve_connection(int fd, std::size_t worker) {
  timeval timeout{};
  timeout.tv_sec = kReceiveTimeoutMs / 1000;
  timeout.tv_usec = (kReceiveTimeoutMs % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  // Read the request head, then however much of the declared body is
  // still missing from the same buffer.
  std::string data;
  std::size_t head_end = std::string::npos;
  char buf[4096];
  bool too_large = false;
  while ((head_end = data.find("\r\n\r\n")) == std::string::npos) {
    if (data.size() > kMaxRequestBytes) {
      too_large = true;
      break;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      break;
    }
    data.append(buf, static_cast<std::size_t>(n));
  }

  HttpResponse response;
  if (too_large) {
    response = text_response(413, "request too large\n");
  } else if (head_end == std::string::npos) {
    response = text_response(400, "bad request\n");
  } else {
    HttpRequest request =
        parse_request_head(std::string_view(data).substr(0, head_end));
    if (!request.valid) {
      response = text_response(400, "bad request\n");
    } else {
      const std::size_t body_start = head_end + 4;
      const std::size_t want = request.content_length().value_or(0);
      if (want > kMaxRequestBytes) {
        response = text_response(413, "request too large\n");
      } else {
        while (data.size() - body_start < want) {
          const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
          if (n <= 0) {
            break;
          }
          data.append(buf, static_cast<std::size_t>(n));
        }
        if (data.size() - body_start < want) {
          response = text_response(400, "truncated body\n");
        } else {
          request.body = data.substr(body_start, want);
          try {
            response = handler_(request);
          } catch (const std::exception& e) {
            MFCP_LOG(kWarn) << "http server: handler threw: " << e.what();
            response = text_response(500, "internal error\n");
          } catch (...) {
            response = text_response(500, "internal error\n");
          }
        }
      }
    }
  }
  // Counted before the send, so a client holding its answer always sees
  // it in requests_served().
  requests_.fetch_add(1, std::memory_order_relaxed);
  const std::string wire = serialize_response(response);
  send_all(fd, wire);
  ::close(fd);
  if (config_.observer != nullptr) {
    config_.observer->on_request_end(worker, response.status, wire.size());
  }
}

}  // namespace mfcp::net
