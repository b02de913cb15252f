// Fixed-size thread pool for the parallel site simulation.
//
// The pool runs one shared callable over `fanout` lane slots per batch
// (RunBatch), with a fixed slot-to-thread binding: slot 0 runs on the
// calling thread and slot i >= 1 always runs on worker i - 1. A caller
// that keeps the same work on the same slot from batch to batch (the
// simulation driver gives every lane a fixed home range of sites) keeps
// that work's state in one core's cache for the whole run. The caller
// doing slot 0 itself also saves one wake-up per batch: a pool of N - 1
// workers gives N lanes.
//
// The per-batch cost is one lock/notify cycle to start the workers and
// one to collect them — no per-task queue nodes, futures or heap
// allocations.
#ifndef DMT_UTIL_THREAD_POOL_H_
#define DMT_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/contracts.h"

namespace dmt {

/// Fixed pool of worker threads, each bound to one RunBatch slot.
///
/// Exceptions thrown by a slot are captured and rethrown from RunBatch
/// once every slot has finished. The pool is reusable: nothing is torn
/// down between batches.
class ThreadPool {
 public:
  /// Spawns `num_workers` workers; 0 is clamped to 1.
  explicit ThreadPool(size_t num_workers);

  /// Signals shutdown and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs `task(slot)` once for every slot in [0, fanout) and blocks until
  /// every slot has finished. Slot 0 runs on the calling thread; slot
  /// i >= 1 always runs on worker i - 1, in every batch. Requires
  /// `fanout <= size() + 1` (checked). Every slot runs even if another one
  /// throws, slot 0 included; the first captured exception is rethrown
  /// here after all slots are done — the all-slots-complete guarantee the
  /// simulation driver's window schedule relies on. Must not be called
  /// concurrently with itself or from inside a pool task.
  void RunBatch(size_t fanout, const std::function<void(size_t)>& task);

  /// Number of worker threads (RunBatch takes up to size() + 1 slots).
  size_t size() const { return workers_.size(); }

 private:
  void WorkerLoop(size_t slot);

  std::mutex mutex_;
  std::condition_variable start_cv_;  // workers: a new batch or shutdown
  std::condition_variable done_cv_;   // caller: the last worker slot ended
  DMT_GUARDED_BY(mutex_) bool stopping_ = false;
  // The current batch. `batch_task_` points at RunBatch's argument, which
  // outlives the batch because RunBatch blocks until batch_running_ is 0.
  // A worker joins a batch when batch_round_ moves past the last round it
  // saw and its slot is below batch_fanout_.
  DMT_GUARDED_BY(mutex_)
  const std::function<void(size_t)>* batch_task_ = nullptr;
  DMT_GUARDED_BY(mutex_) size_t batch_fanout_ = 0;
  DMT_GUARDED_BY(mutex_) uint64_t batch_round_ = 0;
  DMT_GUARDED_BY(mutex_) size_t batch_running_ = 0;  // worker slots left
  DMT_GUARDED_BY(mutex_) std::exception_ptr batch_error_;

  std::vector<std::thread> workers_;
};

}  // namespace dmt

#endif  // DMT_UTIL_THREAD_POOL_H_
