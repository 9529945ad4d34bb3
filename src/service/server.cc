// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "service/wire.h"

namespace graphscape {
namespace service {
namespace {

Status ErrnoStatus(const char* what) {
  return Status::Unavailable(StrPrintf("%s: %s", what, std::strerror(errno)));
}

// send() until done; false once the peer is gone or the SNDTIMEO
// expires. MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill
// the daemon with SIGPIPE.
bool WriteAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

void SetIoTimeout(int fd, double seconds) {
  if (seconds <= 0.0) return;
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - std::floor(seconds)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

ServiceServer::ServiceServer(QueryService* service, const Options& options)
    : service_(service), options_(options) {}

ServiceServer::~ServiceServer() { Stop(); }

Status ServiceServer::Start() {
  if (running_.load()) return Status::Ok();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status status = ErrnoStatus("bind 127.0.0.1");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 128) != 0) {
    const Status status = ErrnoStatus("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) != 0) {
    const Status status = ErrnoStatus("getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  port_ = ntohs(addr.sin_port);

  num_threads_ = std::min(
      options_.num_threads > 0 ? options_.num_threads : DefaultThreads(),
      kMaxThreads);
  running_.store(true);
  workers_.reserve(num_threads_);
  for (uint32_t i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this, fd = listen_fd_] { AcceptLoop(fd); });
  return Status::Ok();
}

void ServiceServer::Stop() {
  if (!running_.exchange(false)) return;
  // shutdown() unblocks accept(); the fd is closed only after the accept
  // thread has exited, so its number cannot be reused under a running
  // accept(). Order matters: no new fds can arrive once the accept thread
  // is gone, so the worker drain below is complete.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  std::lock_guard<std::mutex> lock(queue_mu_);
  for (int fd : pending_fds_) ::close(fd);
  pending_fds_.clear();
}

void ServiceServer::AcceptLoop(int listen_fd) {
  while (running_.load()) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EINVAL after Stop() shut the listener down: clean exit.
      return;
    }
    SetIoTimeout(fd, options_.io_timeout_seconds);
    // The accept seam: an armed failpoint turns this connection into
    // one UNAVAILABLE frame and a close — the drain/overload path the
    // CI fault leg exercises.
    if (failpoint::Fire("service/accept")) {
      WriteAll(fd, EncodeErrorFrame(failpoint::InjectedFault(
                       "service/accept")));
      ::close(fd);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      pending_fds_.push_back(fd);
    }
    queue_cv_.notify_one();
  }
}

void ServiceServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !pending_fds_.empty() || !running_.load();
      });
      if (pending_fds_.empty()) return;  // stopping and drained
      fd = pending_fds_.front();
      pending_fds_.pop_front();
    }
    ServeConnection(fd);
    ::close(fd);
  }
}

void ServiceServer::ServeConnection(int fd) {
  std::string buffer;
  char chunk[4096];
  while (running_.load()) {
    // One complete line = one request. The buffer carries bytes the
    // last recv over-read (a client may batch lines back-to-back even
    // though responses are strictly in order).
    const size_t newline = buffer.find('\n');
    if (newline == std::string::npos) {
      if (buffer.size() >= kMaxRequestLine) {
        // Cannot resynchronize inside an oversized line: answer once,
        // hang up (docs/SERVICE.md §Framing).
        WriteAll(fd, EncodeErrorFrame(Status::InvalidArgument(StrPrintf(
                         "request line exceeds %u bytes",
                         kMaxRequestLine))));
        return;
      }
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;  // EOF, timeout, or error: drop the connection
      buffer.append(chunk, static_cast<size_t>(n));
      continue;
    }
    const std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    if (line.size() + 1 > kMaxRequestLine) {
      WriteAll(fd, EncodeErrorFrame(Status::InvalidArgument(StrPrintf(
                       "request line exceeds %u bytes", kMaxRequestLine))));
      return;
    }
    // The reply may be a frame the service keeps resident (TREE, warm
    // TILE): the shared_ptr keeps it alive for the write, uncopied.
    const std::shared_ptr<const std::string> reply = service_->Respond(line);
    if (!WriteAll(fd, *reply)) return;
  }
}

}  // namespace service
}  // namespace graphscape
