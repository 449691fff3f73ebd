// net::Server — the epoll TCP front end of the serving stack (ROADMAP
// item 1: "heavy traffic from millions of users" needs a socket, not a
// pipe). The wire protocol over a connection is the SAME newline-JSON the
// stdin path speaks (docs/PROTOCOL.md): requests in, one response line
// per request, per-connection responses in request order. Every parsed
// request executes through api::Engine — the single dispatch component —
// so a socket answer, a stdin answer, and an embedded answer are
// bit-identical by construction (determinism ledger entry 9).
//
// Architecture (one server = three thread groups over one Engine):
//
//   epoll I/O thread         net::Batcher coordinator      executor pool
//   ─────────────────        ──────────────────────────    ─────────────
//   nonblocking accept  ──►  per-dataset admission lanes   ExecuteBatch
//   read / line framing      (bounded depth, coalescing    windows, then
//   parse + admission        windows, admin barriers)  ──► render + hand
//   write-back, timeouts ◄─────────────── eventfd wakeup ◄─ lines back
//
// Connection handling is fully decoupled from query execution: the I/O
// thread never blocks on the engine, and executors never touch a socket —
// they deposit rendered response lines into the connection's reorder
// buffer and wake the I/O thread through an eventfd. Responses are
// written back in per-connection request order even though windows
// complete out of order.
//
// Abuse handling (serve_net_fault_test exercises each):
//   * full admission lane      — `Overloaded` response, shed deterministically
//   * oversized request line   — clean error response, connection dropped
//                                (framing cannot resync past the cap)
//   * slow-loris partial line  — read-timeout close
//   * unresponsive reader      — write-buffer cap, connection dropped
//   * mid-request disconnect   — in-flight answers are discarded safely
//
// Everything observable lands in the engine's obs::Registry under net_*
// (docs/OBSERVABILITY.md): connection counts, queue-depth gauges, shed /
// timeout / oversize counters, batch occupancy, queue-wait histograms.
//
// Linux-only by design (epoll, eventfd, accept4), like the rest of the
// serving stack's production path.
#ifndef VOTEOPT_NET_SERVER_H_
#define VOTEOPT_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "net/batcher.h"
#include "net/framing.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace voteopt::net {

struct ServerOptions {
  /// Bind address. The default serves loopback only; production fronts
  /// bind 0.0.0.0 explicitly.
  std::string host = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral port (read it back via
  /// Server::port() — what the tests and the in-process bench do).
  uint16_t port = 0;
  int listen_backlog = 128;

  /// Accepted connections beyond this are closed immediately (after a
  /// best-effort `Overloaded` line).
  size_t max_connections = 1024;

  /// Cap on one request line; longer lines get a clean error and the
  /// connection is dropped (see net/framing.h).
  size_t max_line_bytes = 1 << 20;

  /// Slow-loris defense: a connection holding a started-but-unterminated
  /// request line longer than this is closed. 0 disables.
  uint32_t read_timeout_ms = 30000;

  /// Slow-reader defense: a connection whose un-flushed response bytes
  /// exceed this cap is dropped (the alternative is buffering without
  /// bound for a client that never reads).
  size_t max_write_buffer_bytes = 8u << 20;

  /// Admission + batching knobs (queue depth, batch window, executor
  /// pool). batch.metrics is used as given: the net_* families land there,
  /// and null turns them off.
  BatcherOptions batch;
};

class Server {
 public:
  /// The engine must outlive the server. Instrumentation flows into
  /// options.batch.metrics — pass &engine->metrics() to scrape net_*
  /// families alongside the engine's, or null to disable (answers are
  /// identical either way).
  Server(api::Engine* engine, const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the I/O thread + batcher. Fails with a
  /// clean Status (address in use, bad host, ...) without side effects.
  Status Start();

  /// Graceful stop: stop accepting, close connections, drain in-flight
  /// Engine windows. Idempotent; called by the destructor.
  void Stop();

  /// The bound port (the kernel's pick when options.port was 0).
  /// Precondition: Start() succeeded.
  /// Lock-free on purpose: port_ is written once inside Start(), before
  /// the I/O thread is spawned and before Start() returns, so any caller
  /// that can legally observe the precondition sees the final value.
  uint16_t port() const { return port_; }

  /// Live connection count (tests poll this to sync without sleeping).
  size_t active_connections() const;

  /// The batcher, for tests that assert on queue depths / in-flight
  /// windows.
  Batcher& batcher() { return *batcher_; }

 private:
  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    LineFramer framer;
    std::chrono::steady_clock::time_point partial_since{};

    /// Write-back state. `mu` guards `ready` (executor threads deposit
    /// completed lines); every other field below is I/O-thread-only —
    /// single-thread confinement the analysis cannot express, so they
    /// are deliberately unannotated.
    Mutex mu;
    std::map<uint64_t, std::string> ready GUARDED_BY(mu);
    uint64_t next_seq = 0;      // next request sequence to assign
    uint64_t next_deliver = 0;  // next sequence to append to wbuf
    std::string wbuf;
    size_t woff = 0;
    bool want_write = false;
    /// Peer finished sending (EOF). Keep the connection until every
    /// assigned sequence has been answered and flushed, then close — a
    /// pipelining client may shutdown(SHUT_WR) and read the tail.
    bool read_closed = false;
    /// A terminal error line (oversized frame) is queued: close once the
    /// write buffer drains.
    bool close_after_flush = false;

    explicit Conn(size_t max_line_bytes) : framer(max_line_bytes) {}
  };

  void IoLoop();
  void AcceptAll();
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  void HandleWritable(const std::shared_ptr<Conn>& conn);
  /// Parses and admits every complete line buffered in the framer.
  void DrainLines(const std::shared_ptr<Conn>& conn);
  /// Completion path shared by executors (via eventfd) and the I/O
  /// thread (parse errors, sheds): deposit line `seq` and, on the I/O
  /// thread, flush.
  void Deliver(uint64_t conn_id, uint64_t seq, std::string line);
  /// Moves in-order completed lines into wbuf and writes what the socket
  /// accepts; arms EPOLLOUT on a short write. I/O thread only.
  void FlushConn(const std::shared_ptr<Conn>& conn);
  void UpdateEpollInterest(Conn& conn);
  void CloseConn(uint64_t conn_id, const char* reason);
  /// Closes connections whose partial request outlived the read timeout;
  /// returns the epoll wait (ms) until the next deadline.
  int SweepTimeouts();

  api::Engine* const engine_;
  ServerOptions options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: executors + Stop() wake the I/O thread
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};

  /// Connection table. The I/O thread inserts/erases; executor threads
  /// resolve ids to deposit responses. Ids are never reused, so a
  /// delivery racing a close simply finds nothing.
  mutable Mutex conns_mutex_;
  std::map<uint64_t, std::shared_ptr<Conn>> conns_ GUARDED_BY(conns_mutex_);
  uint64_t next_conn_id_ GUARDED_BY(conns_mutex_) = 1;

  /// Connections with freshly deposited responses, drained by the I/O
  /// thread on eventfd wakeup.
  Mutex pending_mutex_;
  std::vector<uint64_t> pending_flush_ GUARDED_BY(pending_mutex_);

  std::unique_ptr<Batcher> batcher_;
  std::thread io_thread_;

  // net_* instruments (null when the engine's metrics are disabled).
  obs::Counter* m_accepted_ = nullptr;
  obs::Counter* m_accept_rejected_ = nullptr;
  obs::Gauge* m_active_ = nullptr;
  obs::Counter* m_requests_ = nullptr;
  obs::Counter* m_responses_ = nullptr;
  obs::Counter* m_parse_errors_ = nullptr;
  obs::Counter* m_shed_ = nullptr;
  obs::Counter* m_read_timeouts_ = nullptr;
  obs::Counter* m_oversized_ = nullptr;
  obs::Counter* m_bytes_read_ = nullptr;
  obs::Counter* m_bytes_written_ = nullptr;
  obs::Registry* mx_ = nullptr;
};

}  // namespace voteopt::net

#endif  // VOTEOPT_NET_SERVER_H_
