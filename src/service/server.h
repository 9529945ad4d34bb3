// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// ServiceServer: the transport under the Graphscape daemon — one accept
// thread, a pool of worker threads, and nothing else. Each accepted
// connection is handed to one worker, which reads request lines and
// writes back whatever QueryService::Respond returns until the peer
// closes (the protocol is strictly request/response per connection, no
// pipelining — docs/SERVICE.md §Transport).
//
// Why dedicated std::threads instead of the common/parallel.h pool the
// issue suggested: that pool serializes parallel regions globally (one
// RunRegion at a time, by design — see parallel.cc's run_mu_). Parking
// long-lived connection handlers in it would pin the region forever and
// starve every compute ParallelFor in the process. Server workers are
// therefore plain threads; the pool stays what it is — a compute
// device. The worker count still honors the same GRAPHSCAPE_THREADS
// convention via DefaultThreads().
//
// Failpoint seam service/accept: when armed, an accepted connection is
// answered with one UNAVAILABLE frame and closed instead of being
// served — the overload/drain behavior, injectable from CI
// (GRAPHSCAPE_FAILPOINTS="service/accept=always").
//
// Binding is loopback-only (127.0.0.1) on purpose: the daemon has no
// auth story and docs/OPERATIONS.md tells operators to keep it that
// way; anything wider belongs behind a reverse proxy.

#ifndef GRAPHSCAPE_SERVICE_SERVER_H_
#define GRAPHSCAPE_SERVICE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "service/service.h"

namespace graphscape {
namespace service {

class ServiceServer {
 public:
  struct Options {
    /// TCP port on 127.0.0.1; 0 asks the kernel for an ephemeral port,
    /// reported by port() after Start (the tests and the bench do this
    /// to avoid collisions).
    uint16_t port = 0;
    /// Worker threads; 0 = DefaultThreads() (the GRAPHSCAPE_THREADS
    /// convention, common/parallel.h). Clamped to kMaxThreads.
    uint32_t num_threads = 0;
    /// Per-connection socket read/write timeout, seconds. A stalled
    /// peer is disconnected, never allowed to pin a worker forever.
    double io_timeout_seconds = 30.0;
  };

  /// `service` must outlive the server.
  ServiceServer(QueryService* service, const Options& options);
  ~ServiceServer();  ///< Stops if still running.

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Binds, listens, and launches the accept + worker threads. Errors
  /// (port in use, no socket) come back as Unavailable with errno text.
  Status Start();

  /// Stops accepting, closes the listener, drains the connection queue,
  /// and joins every thread. Idempotent.
  void Stop();

  /// The bound port (resolves port 0 after Start).
  uint16_t port() const { return port_; }

  uint32_t num_threads() const { return num_threads_; }

 private:
  /// Runs on accept_thread_. Takes the listener by value: Stop() owns
  /// listen_fd_ and closes it only after this loop has returned.
  void AcceptLoop(int listen_fd);
  void WorkerLoop();
  void ServeConnection(int fd);

  QueryService* const service_;
  const Options options_;
  uint32_t num_threads_ = 0;
  uint16_t port_ = 0;
  int listen_fd_ = -1;

  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_fds_;  ///< accepted, waiting for a worker
};

}  // namespace service
}  // namespace graphscape

#endif  // GRAPHSCAPE_SERVICE_SERVER_H_
