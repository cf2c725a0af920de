#include "common/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace hilos {

namespace {
// Atomic so sweep-driver worker threads can log while another thread
// adjusts verbosity without a data race.
std::atomic<LogLevel> g_level{LogLevel::Warn};
}  // namespace

void
setLogLevel(LogLevel level)
{
    g_level.store(level, std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return g_level.load(std::memory_order_relaxed);
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const std::string &msg)
{
    // Throw instead of exit(1) so that tests can assert on fatal paths.
    // The exception is the report: a caller that handles it (hilos_cli
    // prints one `error:` line) says it once, and uncaught it still
    // terminates the process with the message.
    throw std::runtime_error("fatal: " + msg);
}

void
warnImpl(const std::string &msg)
{
    if (g_level >= LogLevel::Warn)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (g_level >= LogLevel::Inform)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
debugImpl(const std::string &msg)
{
    if (g_level >= LogLevel::Debug)
        std::fprintf(stderr, "debug: %s\n", msg.c_str());
}

}  // namespace detail
}  // namespace hilos
