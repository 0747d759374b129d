/**
 * @file
 * PhasePool — persistent worker threads for the step engine
 * (DESIGN.md "Step engine").
 *
 * Network::step() runs two phases per cycle on `shards` threads, so
 * thread startup cost must be amortized across the whole run: the
 * pool keeps (shards - 1) workers parked on a condition variable and
 * dispatches one phase at a time via an epoch counter.  The calling
 * thread always executes shard 0 itself, so a phase uses exactly
 * `shards` threads and the pool adds no context switch when
 * shards == 1 (no workers are created).
 *
 * The mutex/condition-variable handoff at phase start and end
 * establishes the happens-before edges between phases: everything a
 * worker wrote in phase k is visible to every thread in phase k+1 and
 * to the serial commit.  Exceptions thrown by a shard job are
 * captured and rethrown on the calling thread after all shards of
 * the phase have finished (FBFLY_ASSERT aborts, as it does serially).
 */

#ifndef FBFLY_NETWORK_SHARD_POOL_H
#define FBFLY_NETWORK_SHARD_POOL_H

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fbfly
{

/**
 * Fixed-size phase-synchronous worker pool; see the file comment.
 */
class PhasePool
{
  public:
    /** @param workers extra threads beyond the caller (shards - 1). */
    explicit PhasePool(int workers)
    {
        threads_.reserve(workers > 0 ? workers : 0);
        for (int i = 0; i < workers; ++i)
            threads_.emplace_back(
                [this, i] { workerLoop(i); });
    }

    ~PhasePool()
    {
        {
            std::lock_guard lk(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        // jthread members join on destruction.
    }

    PhasePool(const PhasePool &) = delete;
    PhasePool &operator=(const PhasePool &) = delete;

    /** Threads a phase runs on (workers + the caller). */
    int shards() const
    {
        return static_cast<int>(threads_.size()) + 1;
    }

    /**
     * Run one phase: @p job(shard) for every shard in [0, shards()),
     * worker i executing shard i + 1 and the calling thread shard 0.
     * Returns once every shard finished; rethrows the first captured
     * exception (caller's own first).  With no workers the job runs
     * inline, with no type erasure; otherwise the workers get it
     * through a reference_wrapper, which std::function stores
     * without allocating.
     */
    template <typename F>
    void run(F &&job)
    {
        if (threads_.empty()) {
            job(0);
            return;
        }
        runOnWorkers(std::ref(job));
    }

  private:
    void runOnWorkers(const std::function<void(int)> &job)
    {
        {
            std::lock_guard lk(mu_);
            job_ = &job;
            pending_ = static_cast<int>(threads_.size());
            ++epoch_;
        }
        cv_.notify_all();

        std::exception_ptr mainError;
        try {
            job(0);
        } catch (...) {
            mainError = std::current_exception();
        }

        std::exception_ptr workerError;
        {
            std::unique_lock lk(mu_);
            doneCv_.wait(lk, [this] { return pending_ == 0; });
            job_ = nullptr;
            workerError = error_;
            error_ = nullptr;
        }
        if (mainError)
            std::rethrow_exception(mainError);
        if (workerError)
            std::rethrow_exception(workerError);
    }

    void workerLoop(int index)
    {
        std::uint64_t seen = 0;
        for (;;) {
            const std::function<void(int)> *job = nullptr;
            {
                std::unique_lock lk(mu_);
                cv_.wait(lk, [this, seen] {
                    return stop_ || epoch_ != seen;
                });
                if (stop_)
                    return;
                seen = epoch_;
                job = job_;
            }
            std::exception_ptr err;
            try {
                (*job)(index + 1);
            } catch (...) {
                err = std::current_exception();
            }
            {
                std::lock_guard lk(mu_);
                if (err && !error_)
                    error_ = err;
                if (--pending_ == 0)
                    doneCv_.notify_one();
            }
        }
    }

    std::mutex mu_;
    std::condition_variable cv_;     ///< workers: new epoch / stop
    std::condition_variable doneCv_; ///< caller: phase complete
    const std::function<void(int)> *job_ = nullptr;
    std::uint64_t epoch_ = 0;
    int pending_ = 0;
    bool stop_ = false;
    std::exception_ptr error_;
    std::vector<std::jthread> threads_;
};

} // namespace fbfly

#endif // FBFLY_NETWORK_SHARD_POOL_H
