//===- parallel/Ring.h - Bounded SPSC ring buffer ---------------*- C++ -*-===//
//
// The channel between pipeline stages: a fixed-capacity ring of batches
// with blocking push/pop, so a fast producer exerts backpressure on
// itself instead of growing an unbounded queue (constant memory in the
// trace length, matching the sequential path's guarantee). Each ring has
// exactly one producer stage and one consumer stage; the mutex/condvar
// implementation is deliberately boring — hand-rolled lock-free indexing
// buys nothing at batch granularity and costs TSan-auditable simplicity.
//
// Shutdown protocol:
//
//   close()     producer is done; pops drain the remaining slots and then
//               return false.
//   abortAll()  hard error elsewhere in the pipeline; every blocked or
//               future push/pop fails immediately, contents are dropped.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_PARALLEL_RING_H
#define VELO_PARALLEL_RING_H

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace velo {

template <typename T> class BoundedRing {
public:
  explicit BoundedRing(size_t Capacity)
      : Slots(Capacity ? Capacity : 1), Cap(Capacity ? Capacity : 1) {}

  /// Block until a slot is free, then enqueue V. Returns false (V is
  /// dropped) once the ring is aborted.
  bool push(T V) {
    std::unique_lock<std::mutex> Lock(Mu);
    NotFull.wait(Lock, [&] { return Size < Cap || Aborted; });
    if (Aborted)
      return false;
    Slots[(Head + Size) % Cap] = std::move(V);
    ++Size;
    if (Size > HighWater)
      HighWater = Size;
    if (ConsumerParked) {
      if (Size > WakeHighWater)
        WakeHighWater = Size;
      if (readable()) { // this push releases the parked consumer
        ConsumerParked = false;
        ++Wakeups;
      }
    }
    NotEmpty.notify_one();
    return true;
  }

  /// Block until an element is available, then dequeue into Out. Returns
  /// false when the ring is aborted, or closed and fully drained.
  bool pop(T &Out) {
    std::unique_lock<std::mutex> Lock(Mu);
    // Parked: the consumer has taken elements before and now blocks on its
    // producer (the wait for the first element does not count).
    ConsumerParked = Popped && !readable();
    NotEmpty.wait(Lock, [&] { return readable(); });
    ConsumerParked = false;
    if (Aborted || Size == 0)
      return false;
    Popped = true;
    Out = std::move(Slots[Head]);
    Head = (Head + 1) % Cap;
    --Size;
    NotFull.notify_one();
    return true;
  }

  /// Producer-side end of stream: consumers drain what is queued, then
  /// pop() returns false.
  void close() {
    std::lock_guard<std::mutex> Lock(Mu);
    Closed = true;
    NotEmpty.notify_all();
  }

  /// Error-path teardown: wake everyone, fail all operations, drop the
  /// contents.
  void abortAll() {
    std::lock_guard<std::mutex> Lock(Mu);
    Aborted = true;
    NotFull.notify_all();
    NotEmpty.notify_all();
  }

  size_t capacity() const { return Cap; }

  /// Peak occupancy ever observed (backpressure evidence for tests).
  size_t highWater() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return HighWater;
  }

  /// Pushes that released a consumer parked on this ring after it had
  /// taken elements: evidence that the consumer kept up with its producer.
  size_t wakeups() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Wakeups;
  }
  /// Peak occupancy after a push made while the consumer was parked. A
  /// consumer that drains eagerly parks only on an empty ring and the first
  /// push releases it, so this is 1 however late the OS runs the consumer;
  /// unlike highWater(), it does not depend on the scheduler.
  size_t wakeHighWater() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return WakeHighWater;
  }

private:
  /// The consumer's wake-up condition (pop waits until it holds).
  bool readable() const { return Size > 0 || Closed || Aborted; }

  mutable std::mutex Mu;
  std::condition_variable NotFull, NotEmpty;
  std::vector<T> Slots;
  size_t Cap;
  size_t Head = 0, Size = 0, HighWater = 0;
  size_t Wakeups = 0, WakeHighWater = 0;
  bool Closed = false, Aborted = false;
  bool Popped = false, ConsumerParked = false;
};

} // namespace velo

#endif // VELO_PARALLEL_RING_H
