#include "sim/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace hilos {

SweepDriver::SweepDriver(unsigned jobs)
    : jobs_(std::min(
          jobs != 0 ? jobs
                    : std::max(1u, std::thread::hardware_concurrency()),
          kMaxJobs))
{
}

void
SweepDriver::run(std::size_t n,
                 const std::function<void(unsigned, std::size_t)> &fn) const
{
    const std::size_t workers = std::min<std::size_t>(jobs_, n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; i++)
            fn(0, i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex error_mu;
    std::exception_ptr error;
    const auto work = [&](unsigned worker) {
        for (std::size_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1)) {
            try {
                fn(worker, i);
            } catch (...) {
                std::lock_guard<std::mutex> lk(error_mu);
                if (!error)
                    error = std::current_exception();
                next.store(n);  // hand out no further index
            }
        }
    };
    {
        // Destroying the vector joins every started thread, also when
        // starting the next one throws.
        std::vector<std::jthread> threads;
        threads.reserve(workers - 1);
        for (unsigned w = 1; w < workers; w++)
            threads.emplace_back(work, w);
        work(0);
    }
    if (error)
        std::rethrow_exception(error);
}

}  // namespace hilos
