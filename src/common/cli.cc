#include "common/cli.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "common/logging.h"

namespace hilos {

namespace {

/** `text` as a decimal count: digits only, no sign, no overflow. */
bool
parseCount(const std::string &text, std::uint64_t *out)
{
    const char *last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, *out);
    return ec == std::errc() && end == last;
}

/** `text` as a whole strtod number (inf and nan parse; callers bound). */
bool
parseNumber(const std::string &text, double *out)
{
    char *end = nullptr;
    *out = std::strtod(text.c_str(), &end);
    return end != text.c_str() && *end == '\0';
}

/** The non-empty items of a comma list. */
std::vector<std::string>
listItems(const std::string &text)
{
    std::vector<std::string> items;
    std::stringstream list(text);
    std::string item;
    while (std::getline(list, item, ','))
        if (!item.empty())
            items.push_back(item);
    return items;
}

bool
realInRange(const ArgParser::Option &o, const std::string &text)
{
    double v = 0.0;
    return parseNumber(text, &v) && std::isfinite(v) && v >= o.real_min &&
           v <= o.real_max;
}

/** Whether `text` is a value `o` accepts. */
bool
accepts(const ArgParser::Option &o, const std::string &text)
{
    switch (o.kind) {
      case ArgParser::Kind::String:
      case ArgParser::Kind::Flag:
        return true;
      case ArgParser::Kind::Count: {
        std::uint64_t v = 0;
        return parseCount(text, &v) && v >= o.count_min &&
               v <= o.count_max;
      }
      case ArgParser::Kind::Real: {
        if (!o.list)
            return realInRange(o, text);
        const std::vector<std::string> items = listItems(text);
        return !items.empty() &&
               std::all_of(items.begin(), items.end(),
                           [&](const std::string &item) {
                               return realInRange(o, item);
                           });
      }
      case ArgParser::Kind::Choice:
        return std::find(o.choices.begin(), o.choices.end(), text) !=
               o.choices.end();
    }
    return false;
}

std::string
formatReal(double v)
{
    std::ostringstream oss;
    oss << v;
    return oss.str();
}

/** What `o` accepts, e.g. "integer in 1..16", for usage and errors. */
std::string
describe(const ArgParser::Option &o)
{
    switch (o.kind) {
      case ArgParser::Kind::String:
      case ArgParser::Kind::Flag:
        return "value";
      case ArgParser::Kind::Count:
        return o.count_max == ArgParser::kNoMax
                   ? "integer >= " + std::to_string(o.count_min)
                   : "integer in " + std::to_string(o.count_min) + ".." +
                         std::to_string(o.count_max);
      case ArgParser::Kind::Real:
        return std::string(o.list ? "comma list of finite numbers"
                                  : "finite number") +
               (o.real_max == ArgParser::kInf
                    ? " >= " + formatReal(o.real_min)
                    : " in [" + formatReal(o.real_min) + ", " +
                          formatReal(o.real_max) + "]");
      case ArgParser::Kind::Choice: {
        std::string out = "one of ";
        for (std::size_t i = 0; i < o.choices.size(); ++i)
            out += (i ? ", " : "") + o.choices[i];
        return out;
      }
    }
    return "value";
}

}  // namespace

ArgParser::ArgParser(std::string program) : program_(std::move(program))
{
    addFlag("help", "show this help text");
}

ArgParser &
ArgParser::declare(Option opt)
{
    HILOS_ASSERT(find(opt.name) == nullptr, "duplicate option --",
                 opt.name);
    // An empty default means "none" for strings and "not given" for
    // counts; any other default must pass its own declaration.
    const bool may_be_empty =
        opt.kind != Kind::Real && opt.kind != Kind::Choice;
    HILOS_ASSERT((may_be_empty && opt.default_value.empty()) ||
                     accepts(opt, opt.default_value),
                 "default of --", opt.name, " is not ", describe(opt));
    options_.push_back(std::move(opt));
    return *this;
}

ArgParser &
ArgParser::addOption(const std::string &name,
                     const std::string &default_value,
                     const std::string &help)
{
    return declare(Option{name, default_value, help});
}

ArgParser &
ArgParser::addFlag(const std::string &name, const std::string &help)
{
    return declare(Option{name, "", help, Kind::Flag});
}

ArgParser &
ArgParser::addCount(const std::string &name,
                    const std::string &default_value,
                    const std::string &help, std::uint64_t min,
                    std::uint64_t max)
{
    Option opt{name, default_value, help, Kind::Count};
    opt.count_min = min;
    opt.count_max = max;
    return declare(std::move(opt));
}

ArgParser &
ArgParser::addReal(const std::string &name,
                   const std::string &default_value,
                   const std::string &help, double min, double max)
{
    Option opt{name, default_value, help, Kind::Real};
    opt.real_min = min;
    opt.real_max = max;
    return declare(std::move(opt));
}

ArgParser &
ArgParser::addRealList(const std::string &name,
                       const std::string &default_value,
                       const std::string &help, double min, double max)
{
    Option opt{name, default_value, help, Kind::Real};
    opt.real_min = min;
    opt.real_max = max;
    opt.list = true;
    return declare(std::move(opt));
}

ArgParser &
ArgParser::addChoice(const std::string &name,
                     const std::string &default_value,
                     const std::string &help,
                     std::vector<std::string> choices)
{
    Option opt{name, default_value, help, Kind::Choice};
    opt.choices = std::move(choices);
    return declare(std::move(opt));
}

const ArgParser::Option *
ArgParser::find(const std::string &name) const
{
    for (const Option &opt : options_) {
        if (opt.name == name)
            return &opt;
    }
    return nullptr;
}

const ArgParser::Option &
ArgParser::declared(const std::string &name, Kind kind) const
{
    const Option *opt = find(name);
    HILOS_ASSERT(opt != nullptr && opt->kind == kind,
                 "undeclared option --", name);
    return *opt;
}

bool
ArgParser::parse(int argc, const char *const *argv)
{
    error_.clear();
    values_.clear();
    help_requested_ = false;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            error_ = "unexpected positional argument: " + arg;
            return false;
        }
        arg = arg.substr(2);
        std::string value;
        bool has_inline_value = false;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_inline_value = true;
        }
        const Option *opt = find(arg);
        if (opt == nullptr) {
            error_ = "unknown option --" + arg;
            return false;
        }
        if (opt->kind == Kind::Flag) {
            if (has_inline_value) {
                error_ = "flag --" + arg + " takes no value";
                return false;
            }
            values_[arg] = "1";
            if (arg == "help")
                help_requested_ = true;
            continue;
        }
        if (!has_inline_value) {
            if (i + 1 >= argc) {
                error_ = "option --" + arg + " needs a value";
                return false;
            }
            value = argv[++i];
        }
        if (!accepts(*opt, value)) {
            error_ = "--" + arg + ": expected " + describe(*opt) +
                     ", got '" + value + "'";
            return false;
        }
        values_[arg] = value;
    }
    return true;
}

void
ArgParser::parseOrExit(int argc, const char *const *argv)
{
    if (parse(argc, argv) && !help_requested_)
        return;
    if (ok()) {
        std::cout << usage() << std::flush;
        std::exit(0);
    }
    std::cerr << "error: " << error_ << "\n";
    std::exit(2);
}

std::string
ArgParser::get(const std::string &name) const
{
    const Option *opt = find(name);
    HILOS_ASSERT(opt != nullptr, "undeclared option --", name);
    const auto it = values_.find(name);
    return it != values_.end() ? it->second : opt->default_value;
}

std::int64_t
ArgParser::getInt(const std::string &name) const
{
    const std::string v = get(name);
    char *end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0' || errno == ERANGE) {
        // Leave callers an error signal without throwing mid-report.
        const_cast<ArgParser *>(this)->error_ =
            "option --" + name + " is not a 64-bit integer: " + v;
        return 0;
    }
    return parsed;
}

double
ArgParser::getDouble(const std::string &name) const
{
    const std::string v = get(name);
    double parsed = 0.0;
    if (!parseNumber(v, &parsed)) {
        const_cast<ArgParser *>(this)->error_ =
            "option --" + name + " is not a number: " + v;
        return 0.0;
    }
    return parsed;
}

bool
ArgParser::getFlag(const std::string &name) const
{
    declared(name, Kind::Flag);
    return values_.count(name) > 0;
}

std::uint64_t
ArgParser::getCount(const std::string &name) const
{
    declared(name, Kind::Count);
    std::uint64_t v = 0;
    HILOS_ASSERT(parseCount(get(name), &v), "--", name, " was not given");
    return v;
}

double
ArgParser::getReal(const std::string &name) const
{
    HILOS_ASSERT(!declared(name, Kind::Real).list, "--", name,
                 " is a list");
    double v = 0.0;
    parseNumber(get(name), &v);
    return v;
}

std::vector<double>
ArgParser::getReals(const std::string &name) const
{
    HILOS_ASSERT(declared(name, Kind::Real).list, "--", name,
                 " is not a list");
    std::vector<double> values;
    for (const std::string &item : listItems(get(name))) {
        values.push_back(0.0);
        parseNumber(item, &values.back());
    }
    return values;
}

std::string
ArgParser::usage() const
{
    std::ostringstream oss;
    oss << "usage: " << program_ << " [options]\n";
    for (const Option &opt : options_) {
        oss << "  --" << opt.name;
        if (opt.kind != Kind::Flag)
            oss << " <" << describe(opt) << "; default: "
                << (opt.default_value.empty() ? "none"
                                              : opt.default_value)
                << ">";
        oss << "\n      " << opt.help << "\n";
    }
    return oss.str();
}

}  // namespace hilos
