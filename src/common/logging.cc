#include "common/logging.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace hilos {

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

}  // namespace detail
}  // namespace hilos
