/**
 * @file
 * Parallel sweep execution: a SweepDriver that fans independent grid
 * points across threads with deterministic result ordering.
 *
 * Every paper figure re-runs the engines over config grids (devices x
 * batch x context x model) whose points are independent, so they
 * parallelise embarrassingly. Each sweep starts its own threads, the
 * caller working as worker 0, and every worker takes its next task
 * index from one shared atomic counter. The driver guarantees:
 *
 *  - results are keyed by grid index, never by completion order, so a
 *    sweep renders byte-identically regardless of thread count;
 *  - `jobs == 1` (or a one-task sweep) executes inline on the calling
 *    thread with no worker threads at all (the serial reference path);
 *  - tasks never share mutable state through the driver — each task
 *    owns whatever engines/simulators/recorders it constructs.
 */

#ifndef HILOS_SIM_PARALLEL_H_
#define HILOS_SIM_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <vector>

namespace hilos {

/**
 * Fans a grid of independent sweep points across threads.
 *
 * The driver owns nothing about the point type: callers pass a vector
 * of tasks (RunConfig grid points, scenario structs, plain indices)
 * and a function evaluating one of them. Results come back in a
 * vector parallel to the input — element i is always the result of
 * task i, whatever order the threads finished in. The first exception
 * a task throws stops the sweep from handing out further tasks and is
 * rethrown once every thread has joined; the driver stays usable
 * afterwards.
 */
class SweepDriver
{
  public:
    /** Hard ceiling on the worker count, so absurd requests (e.g. a
     *  negative CLI value cast to unsigned) degrade to a large sweep
     *  instead of exhausting the process's thread limit. */
    static constexpr unsigned kMaxJobs = 256;

    /**
     * @param jobs worker count; 0 picks the hardware concurrency,
     *        1 runs everything inline on the calling thread. Clamped
     *        to kMaxJobs.
     */
    explicit SweepDriver(unsigned jobs = 0);

    /** Effective parallelism (>= 1). */
    unsigned jobs() const { return jobs_; }

    /**
     * Evaluate `fn(task)` for every task, results keyed by task index.
     * `fn` must treat tasks as independent: any engine, simulator,
     * RNG, or trace state it needs is constructed inside the call.
     */
    template <typename Task, typename Fn>
    auto map(const std::vector<Task> &tasks, Fn &&fn)
        -> std::vector<decltype(fn(tasks.front()))>
    {
        return mapWorker(tasks,
                         [&](unsigned, const Task &task) { return fn(task); });
    }

    /**
     * Worker-aware map: evaluate `fn(worker, task)` with the executing
     * worker id as the first argument, results still keyed by task
     * index. Worker ids lie in [0, min(jobs(), tasks.size())) and one
     * id never runs two tasks at once, so callers can keep per-worker
     * scratch state (engine instances, plan caches) in a jobs()-sized
     * vector without locking.
     */
    template <typename Task, typename Fn>
    auto mapWorker(const std::vector<Task> &tasks, Fn &&fn)
        -> std::vector<decltype(fn(0u, tasks.front()))>
    {
        std::vector<decltype(fn(0u, tasks.front()))> results(tasks.size());
        run(tasks.size(), [&](unsigned worker, std::size_t i) {
            results[i] = fn(worker, tasks[i]);
        });
        return results;
    }

  private:
    /** Run `fn(worker, i)` for every i in [0, n), blocking until all
     *  complete (see the class comment for threads and exceptions). */
    void run(std::size_t n,
             const std::function<void(unsigned, std::size_t)> &fn) const;

    unsigned jobs_;
};

}  // namespace hilos

#endif  // HILOS_SIM_PARALLEL_H_
