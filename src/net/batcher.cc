#include "net/batcher.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace voteopt::net {

namespace {

constexpr uint64_t kNoBarrier = std::numeric_limits<uint64_t>::max();

}  // namespace

Batcher::Batcher(api::Engine* engine, const BatcherOptions& options,
                 Delivery deliver)
    : engine_(engine), options_(options), deliver_(std::move(deliver)) {
  if (options_.metrics != nullptr) {
    m_batch_requests_ = options_.metrics->GetHistogram(
        "net_batch_requests", {},
        "Requests per coalesced Engine batch window (occupancy)",
        {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
    m_queue_wait_seconds_ = options_.metrics->GetHistogram(
        "net_queue_wait_seconds", {},
        "Seconds a request spent in its admission lane between admission "
        "and dispatch");
    m_inflight_ = options_.metrics->GetGauge(
        "net_inflight_batches", {},
        "Engine batch windows currently executing on the executor pool");
    m_admin_barriers_ = options_.metrics->GetCounter(
        "net_admin_barriers_total", {},
        "Admin requests executed as global barriers (load/unload/list/"
        "stats)");
  }
  executors_ = std::make_unique<ThreadPool>(
      std::max<uint32_t>(1, options_.num_executors));
  coordinator_ = std::thread([this] { CoordinatorLoop(); });
}

Batcher::~Batcher() { Stop(); }

void Batcher::Stop() {
  {
    MutexLock lock(&mutex_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  if (coordinator_.joinable()) coordinator_.join();
  executors_.reset();
}

bool Batcher::Submit(Ticket ticket) {
  MutexLock lock(&mutex_);
  if (stopping_) return false;
  std::deque<Item>* queue = nullptr;
  obs::Gauge* depth_gauge = nullptr;
  if (api::IsAdminOp(ticket.request.op)) {
    queue = &admin_queue_;
  } else {
    auto [it, inserted] = lanes_.try_emplace(ticket.request.dataset);
    Lane& lane = it->second;
    if (inserted && options_.metrics != nullptr) {
      lane.depth_gauge = options_.metrics->GetGauge(
          "net_queue_depth", {{"dataset", it->first}},
          "Admitted-but-undispatched requests per dataset admission lane");
    }
    queue = &lane.queue;
    depth_gauge = lane.depth_gauge;
  }
  if (queue->size() >= options_.queue_depth) return false;
  Item item;
  item.ticket = std::move(ticket);
  item.global_seq = next_global_seq_++;
  item.admitted_at = Clock::now();
  queue->push_back(std::move(item));
  if (depth_gauge != nullptr) {
    depth_gauge->Set(static_cast<double>(queue->size()));
  }
  cv_.NotifyAll();
  return true;
}

size_t Batcher::QueueDepth(const std::string& dataset) const {
  MutexLock lock(&mutex_);
  const auto it = lanes_.find(dataset);
  return it == lanes_.end() ? 0 : it->second.queue.size();
}

size_t Batcher::InFlight() const {
  MutexLock lock(&mutex_);
  return inflight_;
}

void Batcher::CoordinatorLoop() {
  MutexLock lock(&mutex_);
  while (true) {
    if (stopping_) {
      // Drop still-queued tickets (the transport's connections are gone by
      // the time the server stops the batcher), but let in-flight windows
      // finish: they hold engine state and must deliver-or-drop cleanly.
      for (auto& [name, lane] : lanes_) {
        lane.queue.clear();
        if (lane.depth_gauge != nullptr) lane.depth_gauge->Set(0);
      }
      admin_queue_.clear();
      while (inflight_ != 0) cv_.Wait(&mutex_);
      return;
    }

    const uint64_t barrier_seq =
        admin_queue_.empty() ? kNoBarrier : admin_queue_.front().global_seq;

    // A due admin barrier: everything admitted before it has completed
    // (no in-flight window, no queued ticket older than it).
    if (barrier_seq != kNoBarrier && inflight_ == 0) {
      bool older_pending = false;
      for (const auto& [name, lane] : lanes_) {
        if (!lane.queue.empty() &&
            lane.queue.front().global_seq < barrier_seq) {
          older_pending = true;
          break;
        }
      }
      if (!older_pending) {
        RunAdmin();
        continue;
      }
    }

    // Dispatch the next window of every non-empty lane, round-robin, while
    // executors are free. Tickets at or after a pending barrier wait for it.
    bool dispatched = false;
    if (!lanes_.empty() && inflight_ < options_.num_executors) {
      auto it = lanes_.upper_bound(last_lane_);
      for (size_t visited = 0;
           visited < lanes_.size() && inflight_ < options_.num_executors;
           ++visited, ++it) {
        if (it == lanes_.end()) it = lanes_.begin();
        Lane& lane = it->second;
        if (lane.queue.empty() ||
            lane.queue.front().global_seq >= barrier_seq) {
          continue;
        }
        DispatchWindow(it->first, lane, barrier_seq);
        last_lane_ = it->first;
        dispatched = true;
      }
    }
    if (!dispatched) cv_.Wait(&mutex_);
  }
}

void Batcher::DispatchWindow(const std::string& name, Lane& lane,
                             uint64_t barrier_seq) {
  std::vector<Item> window;
  window.reserve(std::min(lane.queue.size(), options_.batch_max));
  const Clock::time_point now = Clock::now();
  while (!lane.queue.empty() && window.size() < options_.batch_max &&
         lane.queue.front().global_seq < barrier_seq) {
    if (m_queue_wait_seconds_ != nullptr) {
      m_queue_wait_seconds_->Observe(
          std::chrono::duration<double>(now - lane.queue.front().admitted_at)
              .count());
    }
    window.push_back(std::move(lane.queue.front()));
    lane.queue.pop_front();
  }
  if (lane.depth_gauge != nullptr) {
    lane.depth_gauge->Set(static_cast<double>(lane.queue.size()));
  }
  ++inflight_;
  if (m_inflight_ != nullptr) m_inflight_->Set(static_cast<double>(inflight_));
  executors_->Submit(
      [this, dataset = name, moved = std::move(window)]() mutable {
        RunWindow(std::move(dataset), std::move(moved));
      });
}

void Batcher::RunWindow(std::string dataset, std::vector<Item> window) {
  if (options_.batch_started_hook) {
    options_.batch_started_hook(dataset, window.size());
  }
  std::vector<api::Request> requests;
  requests.reserve(window.size());
  for (const Item& item : window) requests.push_back(item.ticket.request);
  if (m_batch_requests_ != nullptr) {
    m_batch_requests_->Observe(static_cast<double>(requests.size()));
  }
  const std::vector<api::Response> responses = engine_->ExecuteBatch(requests);
  for (size_t i = 0; i < window.size(); ++i) {
    deliver_(window[i].ticket.conn_id, window[i].ticket.seq,
             responses[i].ToJson());
  }
  {
    MutexLock lock(&mutex_);
    --inflight_;
    if (m_inflight_ != nullptr) {
      m_inflight_->Set(static_cast<double>(inflight_));
    }
  }
  cv_.NotifyAll();
}

void Batcher::RunAdmin() {
  Item item = std::move(admin_queue_.front());
  admin_queue_.pop_front();
  if (m_queue_wait_seconds_ != nullptr) {
    m_queue_wait_seconds_->Observe(
        std::chrono::duration<double>(Clock::now() - item.admitted_at)
            .count());
  }
  if (m_admin_barriers_ != nullptr) m_admin_barriers_->Increment();
  // The engine call runs unlocked so admission keeps flowing (everything
  // newly admitted has a higher global_seq and waits its turn); the
  // coordinator itself is single-threaded, so nothing dispatches while an
  // admin runs — exactly the barrier semantics of the stdin batch window.
  mutex_.Unlock();
  const api::Response response = engine_->Execute(item.ticket.request);
  deliver_(item.ticket.conn_id, item.ticket.seq, response.ToJson());
  mutex_.Lock();
}

}  // namespace voteopt::net
