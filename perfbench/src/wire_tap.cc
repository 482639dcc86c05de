#include "wire_tap.h"

#include "measure.h"
#include "net/framing.h"
#include "net/protocol.h"

namespace perfbench {

using phoenix::Status;
using phoenix::net::Frame;
using phoenix::net::FrameAssembler;
using phoenix::net::FrameType;

Status WireTap::Start(const std::string& listen, const std::string& upstream) {
  upstream_ = upstream;
  Status s = listener_.Listen(listen);
  if (!s.ok()) return s;
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void WireTap::Shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  listener_.Interrupt();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();
  std::list<std::unique_ptr<Link>> links;
  {
    std::lock_guard<std::mutex> lk(mu_);
    links.swap(links_);
  }
  for (auto& link : links) {
    link->client.ShutdownBoth();
    link->server.ShutdownBoth();
    if (link->up.joinable()) link->up.join();
    if (link->down.joinable()) link->down.join();
  }
}

std::vector<TapRecord> WireTap::Drain() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TapRecord> out;
  out.swap(done_);
  return out;
}

void WireTap::AcceptLoop() {
  while (true) {
    auto client = listener_.Accept();
    if (!client.ok()) return;  // interrupted by Shutdown
    auto server = phoenix::net::Dial(upstream_, 5000);
    if (!server.ok()) continue;  // client sees EOF, as with a dead server
    auto link = std::make_unique<Link>();
    link->client = client.take();
    link->server = server.take();
    Link* raw = link.get();
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) return;
    ReapClosedLinks();
    raw->up = std::thread([this, raw] { PumpUp(raw); });
    raw->down = std::thread([this, raw] { PumpDown(raw); });
    links_.push_back(std::move(link));
  }
}

void WireTap::ReapClosedLinks() {
  for (auto it = links_.begin(); it != links_.end();) {
    Link* link = it->get();
    if (link->pumps_done.load() < 2) {
      ++it;
      continue;
    }
    link->up.join();
    link->down.join();
    it = links_.erase(it);
  }
}

// Client -> server. The chunk is forwarded before it is parsed, so the tap
// adds one copy and no parsing to the request's path.
void WireTap::PumpUp(Link* link) {
  FrameAssembler frames;
  std::string buf;
  while (true) {
    auto n = link->client.RecvSome(&buf);
    uint64_t now = NowNs();
    if (!n.ok() || *n == 0 || !link->server.SendAll(buf).ok()) break;
    frames.Feed(buf);
    Frame f;
    while (frames.Poll(&f) == FrameAssembler::Next::kFrame) {
      if (f.type != FrameType::kRequest) continue;
      auto req = phoenix::net::Request::Decode(f.payload);
      if (!req.ok()) continue;
      std::lock_guard<std::mutex> lk(link->mu);
      link->pending[f.corr_id] =
          TapRecord{req->session_id, req->request_id, now, 0};
    }
  }
  link->server.ShutdownBoth();
  link->client.ShutdownBoth();
  ++link->pumps_done;
}

void WireTap::PumpDown(Link* link) {
  FrameAssembler frames;
  std::string buf;
  while (true) {
    auto n = link->server.RecvSome(&buf);
    uint64_t now = NowNs();
    if (!n.ok() || *n == 0 || !link->client.SendAll(buf).ok()) break;
    frames.Feed(buf);
    Frame f;
    while (frames.Poll(&f) == FrameAssembler::Next::kFrame) {
      if (f.type != FrameType::kResponse) continue;
      TapRecord rec;
      {
        std::lock_guard<std::mutex> lk(link->mu);
        auto it = link->pending.find(f.corr_id);
        if (it == link->pending.end()) continue;
        rec = it->second;
        link->pending.erase(it);
      }
      rec.reply_ns = now;
      Complete(rec);
    }
  }
  link->client.ShutdownBoth();
  link->server.ShutdownBoth();
  ++link->pumps_done;
}

void WireTap::Complete(TapRecord rec) {
  std::lock_guard<std::mutex> lk(mu_);
  done_.push_back(rec);
}

}  // namespace perfbench
