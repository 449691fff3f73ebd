// A closed-loop load generator: ONE thread multiplexing a few nonblocking
// loopback connections with poll(2). Each connection keeps exactly one
// request in flight and sends its next request as soon as the previous
// response line arrives, like an analyst or a tool waiting for its seeds.
// Latency is the socket round trip: from writing the request line to
// reading the whole response line.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "util/status.h"
#include "workload.h"

namespace perfbench {

struct Sample {
  float latency_s = 0.0f;
  float done_s = 0.0f;  // completion time since the phase started
  Kind kind = Kind::kEvaluate;
};

/// Called once per response, in per-connection order.
using ResponseSink =
    std::function<void(const StreamItem& item, const std::string& response)>;

class LoadGen {
 public:
  LoadGen() = default;
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  voteopt::Status Connect(uint16_t port, uint32_t connections);

  /// Drives `stream` until `seconds` have passed (or, when `max_per_conn`
  /// > 0, until every connection sent that many requests), then waits for
  /// the requests in flight. Positions continue across calls, so a warm-up
  /// phase and the measured phase form one stream. Samples are appended
  /// only while `samples` has spare capacity: it is never reallocated.
  voteopt::Status Run(Stream& stream, double seconds, uint64_t max_per_conn,
                      bool traced, const ResponseSink& sink,
                      std::vector<Sample>* samples);

 private:
  struct Conn {
    int fd = -1;
    uint64_t next = 0;  // stream position of the next request to send
    bool in_flight = false;
    const StreamItem* item = nullptr;
    Clock::time_point sent_at{};
    std::string wbuf;
    size_t woff = 0;
    std::string rbuf;
  };

  voteopt::Status Flush(Conn& conn);

  std::vector<Conn> conns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
