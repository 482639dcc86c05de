// A framing-aware forwarding proxy that timestamps every request frame on
// its way to the server and every reply frame on its way back. The traced
// phase of the report and orders workloads routes its sessions through it,
// so each request gets a wire span from the benchmark's own files; joined
// with the server's pre-dispatch hook by (session_id, request_id) it also
// gives the time a request waited before a worker picked it up.
#ifndef PERFBENCH_WIRE_TAP_H_
#define PERFBENCH_WIRE_TAP_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"

namespace perfbench {

struct TapRecord {
  uint64_t session_id = 0;
  uint64_t request_id = 0;
  uint64_t send_ns = 0;   ///< request frame read from the client
  uint64_t reply_ns = 0;  ///< reply frame read from the server
};

class WireTap {
 public:
  WireTap() = default;
  ~WireTap() { Shutdown(); }
  WireTap(const WireTap&) = delete;
  WireTap& operator=(const WireTap&) = delete;

  /// Listens on `listen` and forwards each accepted connection to
  /// `upstream`.
  phoenix::Status Start(const std::string& listen, const std::string& upstream);
  const std::string& endpoint() const { return listener_.endpoint(); }
  /// Stops accepting, hangs up every forwarded connection, joins threads.
  void Shutdown();
  /// Completed request/reply pairs so far (moved out).
  std::vector<TapRecord> Drain();

 private:
  struct Link {
    phoenix::net::Socket client;
    phoenix::net::Socket server;
    std::mutex mu;                          ///< guards pending
    std::map<uint64_t, TapRecord> pending;  ///< by frame correlation id
    std::thread up;
    std::thread down;
    std::atomic<int> pumps_done{0};  ///< 2: both threads are about to exit
  };
  void AcceptLoop();
  /// Joins and drops the links whose client and server both hung up.
  /// Called with mu_ held.
  void ReapClosedLinks();
  void PumpUp(Link* link);
  void PumpDown(Link* link);
  void Complete(TapRecord rec);

  phoenix::net::Listener listener_;
  std::string upstream_;
  std::thread acceptor_;
  std::mutex mu_;  ///< guards links_, done_, stopping_
  std::list<std::unique_ptr<Link>> links_;
  std::vector<TapRecord> done_;
  bool stopping_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_TAP_H_
