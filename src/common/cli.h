/**
 * @file
 * Command-line argument parser for the tools and examples: `--key value`,
 * `--key=value` and boolean `--flag` forms. Each option is declared
 * once, with its name, default, help text and kind:
 *
 *   - a string (addOption), taken as given;
 *   - a flag (addFlag), false unless present;
 *   - a count (addCount), a decimal integer in [min, max];
 *   - a real (addReal), a finite number in [min, max]; addRealList
 *     takes a comma list of them;
 *   - a choice (addChoice), one name from a table.
 *
 * parse() checks every supplied value against its declaration and fails
 * on the first bad one with a `--<name> ...` diagnostic, so no bad value
 * reaches an accessor or a cast. usage() prints each option's range or
 * choices from the same declaration, and options() hands the
 * declarations to tests that generate argv from them. parseOrExit()
 * settles both outcomes the same way in every binary.
 */

#ifndef HILOS_COMMON_CLI_H_
#define HILOS_COMMON_CLI_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace hilos {

/** Declarative option table + parsed values. */
class ArgParser
{
  public:
    enum class Kind { String, Flag, Count, Real, Choice };

    static constexpr std::uint64_t kNoMax =
        std::numeric_limits<std::uint64_t>::max();
    /** The largest count a caller may narrow to `unsigned`. */
    static constexpr std::uint64_t kUnsignedMax =
        std::numeric_limits<unsigned>::max();
    static constexpr double kInf = std::numeric_limits<double>::infinity();

    /** One declared option. */
    struct Option {
        std::string name{};
        std::string default_value{};
        std::string help{};
        Kind kind = Kind::String;
        std::uint64_t count_min = 0;  ///< Count bounds, inclusive
        std::uint64_t count_max = 0;
        double real_min = 0.0;  ///< Real bounds, inclusive
        double real_max = 0.0;
        bool list = false;  ///< Real: a comma list of values
        std::vector<std::string> choices{};  ///< Choice: the allowed names
    };

    /** @param program name shown in usage text */
    explicit ArgParser(std::string program);

    /** Declare a string option with a default. */
    ArgParser &addOption(const std::string &name,
                         const std::string &default_value,
                         const std::string &help);

    /** Declare a boolean flag (false unless present). */
    ArgParser &addFlag(const std::string &name, const std::string &help);

    /**
     * Declare a count: a decimal integer in [min, max]. An empty
     * default means "not given" (read get() before getCount()).
     */
    ArgParser &addCount(const std::string &name,
                        const std::string &default_value,
                        const std::string &help, std::uint64_t min,
                        std::uint64_t max = kNoMax);

    /** Declare a finite real in [min, max]. */
    ArgParser &addReal(const std::string &name,
                       const std::string &default_value,
                       const std::string &help, double min,
                       double max = kInf);

    /** addReal for a comma-separated list of at least one value. */
    ArgParser &addRealList(const std::string &name,
                           const std::string &default_value,
                           const std::string &help, double min,
                           double max = kInf);

    /** Declare a choice: the value must be one of `choices`. */
    ArgParser &addChoice(const std::string &name,
                         const std::string &default_value,
                         const std::string &help,
                         std::vector<std::string> choices);

    /**
     * Parse argv and check each value against its declaration. Unknown
     * options, missing values and bad values set an error state (see
     * ok()/error()) rather than exiting, so callers and tests decide
     * what to do.
     */
    bool parse(int argc, const char *const *argv);

    /**
     * parse(), then end the process the way every binary does: --help
     * prints usage() to stdout and exits 0; bad input prints
     * `error: <diagnostic>` to stderr and exits 2. Returns only when
     * the command line is valid.
     */
    void parseOrExit(int argc, const char *const *argv);

    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }

    /** True when --help was passed. */
    bool helpRequested() const { return help_requested_; }

    /** String value of an option (its default if not passed). */
    std::string get(const std::string &name) const;
    /** Integer value of any option; error state if not a 64-bit int. */
    std::int64_t getInt(const std::string &name) const;
    /** Double value of any option; error state if unparsable. */
    double getDouble(const std::string &name) const;
    /** Boolean flag presence. */
    bool getFlag(const std::string &name) const;
    /** Value of a declared count, within its bounds. */
    std::uint64_t getCount(const std::string &name) const;
    /** Value of a declared real, finite and within its bounds. */
    double getReal(const std::string &name) const;
    /** Values of a declared real list, each within its bounds. */
    std::vector<double> getReals(const std::string &name) const;

    /** Every declared option, in declaration order (--help first). */
    const std::vector<Option> &options() const { return options_; }

    /** Generated usage text. */
    std::string usage() const;

  private:
    std::string program_;
    std::vector<Option> options_;
    std::map<std::string, std::string> values_;
    std::string error_;
    bool help_requested_ = false;

    ArgParser &declare(Option opt);
    const Option *find(const std::string &name) const;
    const Option &declared(const std::string &name, Kind kind) const;
};

}  // namespace hilos

#endif  // HILOS_COMMON_CLI_H_
