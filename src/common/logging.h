/**
 * @file
 * Status-message and error-reporting helpers, modelled on the gem5
 * logging discipline: `panic` for internal invariant violations and
 * `fatal` for unrecoverable user/configuration errors.
 */

#ifndef HILOS_COMMON_LOGGING_H_
#define HILOS_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace hilos {

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const std::string &msg);

/** Stream-compose a message from heterogeneous pieces. */
template <typename... Args>
std::string
composeMessage(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

}  // namespace detail

/**
 * Abort with a message: something happened that should never happen
 * regardless of user input (i.e., a bug in this library).
 */
#define HILOS_PANIC(...)                                                   \
    ::hilos::detail::panicImpl(__FILE__, __LINE__,                         \
                               ::hilos::detail::composeMessage(__VA_ARGS__))

/**
 * Throw a std::runtime_error "fatal: <message>": the run cannot
 * continue because of a condition that is the caller's fault (bad
 * configuration, invalid arguments). Nothing is printed here; whoever
 * catches it reports it, and uncaught it ends the process.
 */
#define HILOS_FATAL(...)                                                   \
    ::hilos::detail::fatalImpl(::hilos::detail::composeMessage(__VA_ARGS__))

/** Panic unless `cond` holds. Cheap enough to keep in release builds. */
#define HILOS_ASSERT(cond, ...)                                            \
    do {                                                                   \
        if (!(cond)) {                                                     \
            HILOS_PANIC("assertion failed: " #cond " ",                    \
                        ::hilos::detail::composeMessage(__VA_ARGS__));     \
        }                                                                  \
    } while (0)

}  // namespace hilos

#endif  // HILOS_COMMON_LOGGING_H_
