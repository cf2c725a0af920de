/**
 * @file
 * Status-message and error-reporting helpers, modelled on the gem5
 * logging discipline: `panic` for internal invariant violations, `fatal`
 * for unrecoverable user/configuration errors, and `warn`/`inform` for
 * diagnostics that do not stop the run.
 */

#ifndef HILOS_COMMON_LOGGING_H_
#define HILOS_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace hilos {

/** Verbosity levels for non-fatal messages. */
enum class LogLevel {
    Silent = 0,  ///< Suppress everything except fatal/panic.
    Warn = 1,    ///< Warnings only.
    Inform = 2,  ///< Warnings and informational messages.
    Debug = 3,   ///< Everything, including debug traces.
};

/** Set the global verbosity. Thread-compatible, not thread-safe. */
void setLogLevel(LogLevel level);

/** Current global verbosity. */
LogLevel logLevel();

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
void debugImpl(const std::string &msg);

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

/** Non-fatal warning, printed at LogLevel::Warn and above. */
#define HILOS_WARN(...)                                                    \
    ::hilos::detail::warnImpl(::hilos::detail::composeMessage(__VA_ARGS__))

/** Informational status message, printed at LogLevel::Inform and above. */
#define HILOS_INFORM(...)                                                  \
    ::hilos::detail::informImpl(                                           \
        ::hilos::detail::composeMessage(__VA_ARGS__))

/** Debug trace, printed at LogLevel::Debug. */
#define HILOS_DEBUG(...)                                                   \
    ::hilos::detail::debugImpl(::hilos::detail::composeMessage(__VA_ARGS__))

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
