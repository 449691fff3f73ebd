#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace perfbench {

using voteopt::Status;

namespace {

/// A phase whose connections all stall this long has hung.
constexpr double kStallSeconds = 60.0;

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

}  // namespace

LoadGen::~LoadGen() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

Status LoadGen::Connect(uint16_t port, uint32_t connections) {
  for (uint32_t c = 0; c < connections; ++c) {
    Conn conn;
    conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn.fd < 0) return Errno("socket");
    conns_.push_back(std::move(conn));
    const int fd = conns_.back().fd;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return Errno("connect");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
      return Errno("fcntl");
    }
  }
  return Status::OK();
}

Status LoadGen::Flush(Conn& conn) {
  while (conn.woff < conn.wbuf.size()) {
    const ssize_t n = ::send(conn.fd, conn.wbuf.data() + conn.woff,
                             conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
      if (errno == EINTR) continue;
      return Errno("send");
    }
    conn.woff += static_cast<size_t>(n);
  }
  conn.wbuf.clear();
  conn.woff = 0;
  return Status::OK();
}

Status LoadGen::Run(Stream& stream, double seconds, uint64_t max_per_conn,
                    bool traced, const ResponseSink& sink,
                    std::vector<Sample>* samples) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<uint64_t> base(conns_.size());
  for (size_t c = 0; c < conns_.size(); ++c) base[c] = conns_[c].next;
  auto may_send = [&](const Conn& conn, uint64_t first) {
    if (max_per_conn > 0) return conn.next - first < max_per_conn;
    return Clock::now() < deadline;
  };

  auto send_next = [&](uint32_t c) -> Status {
    Conn& conn = conns_[c];
    conn.item = &stream.At(c, conn.next);
    conn.wbuf = (traced ? conn.item->traced_line : conn.item->line) + "\n";
    conn.woff = 0;
    conn.in_flight = true;
    conn.sent_at = Clock::now();
    return Flush(conn);
  };

  for (uint32_t c = 0; c < conns_.size(); ++c) {
    if (may_send(conns_[c], base[c])) {
      VOTEOPT_RETURN_IF_ERROR(send_next(c));
    }
  }

  std::vector<pollfd> fds(conns_.size());
  Clock::time_point last_progress = Clock::now();
  char buf[1 << 16];
  while (true) {
    size_t busy = 0;
    for (size_t c = 0; c < conns_.size(); ++c) {
      fds[c].fd = conns_[c].fd;
      fds[c].events = 0;
      fds[c].revents = 0;
      if (conns_[c].in_flight) {
        ++busy;
        fds[c].events = POLLIN;
        if (!conns_[c].wbuf.empty()) fds[c].events |= POLLOUT;
      }
    }
    if (busy == 0) break;
    const int ready = ::poll(fds.data(), fds.size(), 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Errno("poll");
    }
    if (ready == 0) {
      if (SecondsSince(last_progress) > kStallSeconds) {
        return Status::IOError("load generator stalled: no response in " +
                               std::to_string(kStallSeconds) + " s");
      }
      continue;
    }
    for (uint32_t c = 0; c < conns_.size(); ++c) {
      Conn& conn = conns_[c];
      if (fds[c].revents == 0) continue;
      if ((fds[c].revents & POLLOUT) != 0) {
        VOTEOPT_RETURN_IF_ERROR(Flush(conn));
      }
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
      if (n == 0) return Status::IOError("server closed a connection");
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          continue;
        }
        return Errno("recv");
      }
      conn.rbuf.append(buf, static_cast<size_t>(n));
      const size_t eol = conn.rbuf.find('\n');
      if (eol == std::string::npos) continue;
      // One request in flight, so a connection never holds a second line.
      const Clock::time_point done = Clock::now();
      std::string response = conn.rbuf.substr(0, eol);
      conn.rbuf.erase(0, eol + 1);
      last_progress = done;
      const StreamItem& item = *conn.item;
      if (samples->size() < samples->capacity()) {
        samples->push_back(
            {std::chrono::duration<float>(done - conn.sent_at).count(),
             std::chrono::duration<float>(done - start).count(), item.kind});
      }
      conn.in_flight = false;
      ++conn.next;
      sink(item, response);
      if (may_send(conn, base[c])) {
        VOTEOPT_RETURN_IF_ERROR(send_next(c));
      }
    }
  }
  return Status::OK();
}

}  // namespace perfbench
