/**
 * @file
 * The compile service's job queue: weighted fair lanes.
 *
 * A WeightedLaneQueue holds every job the service has admitted but no
 * worker has picked up yet. It answers the starvation problem a plain
 * FIFO cannot: one greedy client posting thousands of batch jobs must
 * not delay everyone else's interactive work by the whole backlog.
 *
 * Two levels of fairness, both deterministic:
 *  - across lanes: deficit-style weighted round-robin. Each lane has an
 *    integer weight; pop() serves up to `weight` items from a lane
 *    before rotating to the next non-empty one. With weights {4, 1} an
 *    interactive item admitted behind a 1000-deep batch backlog waits
 *    for at most a handful of batch pickups, never the backlog.
 *  - within a lane: plain round-robin across client keys (one item per
 *    client per turn), so two batch clients split the batch lane's
 *    bandwidth evenly no matter how bursty their submissions are.
 *
 * The queue is unbounded by design: push() never blocks, so a worker
 * re-enqueueing its own job (a retry, a requeued waiter) cannot
 * deadlock the pool. Callers that need to shed load do it upstream
 * (connection caps, the service's admission high-water mark), where
 * the client can be told.
 *
 * Locking is a classic monitor: queue operations bracket whole
 * compilations (milliseconds), so this is nowhere near a hot path.
 */

#ifndef ZAC_SERVICE_LANES_HPP
#define ZAC_SERVICE_LANES_HPP

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hpp"

namespace zac::service
{

/**
 * Unbounded multi-lane queue with weighted round-robin across lanes
 * and per-client round-robin within each lane.
 *
 * Thread-safe; one or more producers push(), one or more consumers
 * pop(). close() wakes blocked consumers: remaining items drain, then
 * pop() returns nullopt — the canonical worker loop is
 * `while (auto j = q.pop()) work(*j);`.
 */
template <typename T>
class WeightedLaneQueue
{
  public:
    /** @param weights one positive weight per lane (>= 1 lane). */
    explicit WeightedLaneQueue(std::vector<int> weights)
    {
        if (weights.empty())
            fatal("WeightedLaneQueue: at least one lane required");
        lanes_.resize(weights.size());
        for (std::size_t i = 0; i < weights.size(); ++i) {
            if (weights[i] < 1)
                fatal("WeightedLaneQueue: lane weights must be >= 1");
            lanes_[i].weight = weights[i];
        }
        credit_ = lanes_[0].weight;
    }

    WeightedLaneQueue(const WeightedLaneQueue &) = delete;
    WeightedLaneQueue &operator=(const WeightedLaneQueue &) = delete;

    /**
     * Enqueue @p item for @p client on @p lane.
     * @return false when the queue is closed (item dropped).
     */
    bool
    push(std::size_t lane, std::uint64_t client, T item)
    {
        if (lane >= lanes_.size())
            fatal("WeightedLaneQueue::push: lane index out of range");
        {
            std::lock_guard<std::mutex> lock(m_);
            if (closed_)
                return false;
            Lane &l = lanes_[lane];
            std::deque<T> &q = l.per_client[client];
            if (q.empty())
                l.rr.push_back(client);
            q.push_back(std::move(item));
            ++l.count;
            ++count_;
        }
        not_empty_.notify_one();
        return true;
    }

    /**
     * Dequeue the next item under the fairness policy, waiting while
     * the queue is empty. @return nullopt once closed and drained.
     */
    std::optional<T>
    pop()
    {
        std::unique_lock<std::mutex> lock(m_);
        not_empty_.wait(lock, [&] { return closed_ || count_ > 0; });
        if (count_ == 0)
            return std::nullopt;
        return takeLocked();
    }

    /** Non-blocking pop(). @return nullopt when empty. */
    std::optional<T>
    tryPop()
    {
        std::lock_guard<std::mutex> lock(m_);
        if (count_ == 0)
            return std::nullopt;
        return takeLocked();
    }

    /** Refuse new pushes and wake blocked consumers; idempotent. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(m_);
            closed_ = true;
        }
        not_empty_.notify_all();
    }

    /** Items queued per lane, in lane order (one coherent snapshot). */
    std::vector<std::size_t>
    laneSizes() const
    {
        std::lock_guard<std::mutex> lock(m_);
        std::vector<std::size_t> sizes;
        sizes.reserve(lanes_.size());
        for (const Lane &l : lanes_)
            sizes.push_back(l.count);
        return sizes;
    }

  private:
    struct Lane
    {
        int weight = 1;
        /** Client keys with pending items, in round-robin order. */
        std::deque<std::uint64_t> rr;
        std::unordered_map<std::uint64_t, std::deque<T>> per_client;
        std::size_t count = 0;
    };

    /** Pop one item under the policy. Caller holds m_, count_ > 0. */
    T
    takeLocked()
    {
        // Weighted round-robin: serve the cursor lane while it has
        // both items and credit; otherwise rotate. count_ > 0
        // guarantees the scan below terminates at a non-empty lane.
        while (lanes_[cursor_].count == 0 || credit_ == 0)
            advanceLane();
        Lane &l = lanes_[cursor_];
        --credit_;

        // Round-robin across this lane's clients: one item per turn.
        const std::uint64_t client = l.rr.front();
        l.rr.pop_front();
        auto it = l.per_client.find(client);
        T item = std::move(it->second.front());
        it->second.pop_front();
        if (it->second.empty())
            l.per_client.erase(it);
        else
            l.rr.push_back(client);
        --l.count;
        --count_;
        return item;
    }

    void
    advanceLane()
    {
        cursor_ = (cursor_ + 1) % lanes_.size();
        credit_ = lanes_[cursor_].weight;
    }

    mutable std::mutex m_;
    std::condition_variable not_empty_;
    std::vector<Lane> lanes_;
    std::size_t cursor_ = 0;
    int credit_ = 0;
    std::size_t count_ = 0;
    bool closed_ = false;
};

} // namespace zac::service

#endif // ZAC_SERVICE_LANES_HPP
