#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace dmt {

ThreadPool::ThreadPool(size_t num_workers) {
  const size_t n = std::max<size_t>(num_workers, 1);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::RunBatch(size_t fanout,
                          const std::function<void(size_t)>& task) {
  if (fanout == 0) return;
  DMT_CHECK_LE(fanout, workers_.size() + 1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    DMT_CHECK(!stopping_);
    DMT_CHECK(batch_task_ == nullptr);  // no nested or concurrent batches
    batch_task_ = &task;
    batch_fanout_ = fanout;
    batch_running_ = fanout - 1;
    batch_error_ = nullptr;
    ++batch_round_;
  }
  if (fanout > 1) start_cv_.notify_all();

  std::exception_ptr own_error;
  try {
    task(0);
  } catch (...) {
    own_error = std::current_exception();
  }

  std::unique_lock<std::mutex> lock(mutex_);
  if (own_error && !batch_error_) batch_error_ = std::move(own_error);
  done_cv_.wait(lock, [this] { return batch_running_ == 0; });
  batch_task_ = nullptr;
  std::exception_ptr error = std::move(batch_error_);
  batch_error_ = nullptr;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void ThreadPool::WorkerLoop(size_t slot) {
  uint64_t seen_round = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    start_cv_.wait(lock, [&] {
      return stopping_ || batch_round_ != seen_round;
    });
    // RunBatch blocks until its batch completes, so shutdown never races
    // a batch this worker still owes a slot to.
    if (stopping_) return;
    seen_round = batch_round_;
    if (slot >= batch_fanout_) continue;  // this batch does not need us
    const std::function<void(size_t)>* task = batch_task_;
    lock.unlock();
    std::exception_ptr error;
    try {
      (*task)(slot);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error && !batch_error_) batch_error_ = std::move(error);
    if (--batch_running_ == 0) done_cv_.notify_one();
  }
}

}  // namespace dmt
