/**
 * @file
 * The command-line boundary, end to end. Every binary that takes
 * options exits 2 with one `error: --<name>` line on a bad value, never
 * an abort, an uncaught exception or a run that does not end. A seeded
 * stream of random hilos_cli argv, drawn from the declaration hilos_cli
 * itself parses with (examples/hilos_cli_options.h), ends in exit 0, 1
 * or 2 with no signal and no nan/inf on stdout.
 *
 * The binaries' directories arrive as the HILOS_BENCH_DIR and
 * HILOS_EXAMPLES_DIR compile definitions.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/random.h"
#include "hilos_cli_options.h"

namespace hilos {
namespace test {
namespace {

using Option = ArgParser::Option;

/** Run `cmd` through the shell; return its wait status, stdout in `out`. */
int
runStatus(const std::string &cmd, std::string *out)
{
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) {
        ADD_FAILURE() << "popen failed for: " << cmd;
        return -1;
    }
    char buf[4096];
    std::size_t n = 0;
    while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0)
        out->append(buf, n);
    return pclose(pipe);
}

/** `timeout` turns a run that never ends into a failed exit (124). */
std::string
command(const std::string &dir, const std::string &binary)
{
    return "timeout 60 " + dir + "/" + binary;
}

TEST(CliBoundary, BadValuesExitTwoWithTheOptionNamed)
{
    const std::string bench = HILOS_BENCH_DIR;
    const std::string examples = HILOS_EXAMPLES_DIR;
    const struct {
        const std::string &dir;
        const char *binary;
        const char *args;
        const char *error;
    } probes[] = {
        // Each of these once aborted: vector::reserve, stod, a library
        // panic, or an uncaught fatal.
        {bench, "bench_serving", "--requests -1", "error: --requests"},
        {bench, "bench_serving", "--rates abc", "error: --rates"},
        {bench, "bench_serving", "--rates -1", "error: --rates"},
        {bench, "bench_serving", "--rates 0.01,inf", "error: --rates"},
        {bench, "bench_serving", "--devices 0", "error: --devices"},
        {bench, "bench_fleet", "--hosts 0", "error: --hosts"},
        {bench, "bench_fleet", "--policy bogus", "error: --policy"},
        {bench, "bench_fleet", "--bogus", "error: unknown option --bogus"},
        // Each option is in range but the fleet they make is not.
        {bench, "bench_fleet", "--hosts 1",
         "error: fleet: host-fail targets host 1 but the fleet has 1 hosts"},
        {bench, "bench_fleet", "--policy fault-aware --spares 4 --hosts 4",
         "error: fleet: 4 spare hosts leaves no server in a fleet of 4"},
        // Valid plans the node-loss study cannot use: each once printed
        // the scaling table, then exited 1 on the study's self-check.
        {bench, "bench_fleet", "--hosts 2 --fault-plan fail@1=5",
         "error: --fault-plan: the node-loss study needs a host lost or "
         "stalled before the run's last decode step"},
        {bench, "bench_fleet", "--hosts 2 --fault-plan host-fail@1e9=1",
         "error: --fault-plan: the node-loss study needs a host lost or "
         "stalled before the run's last decode step"},
        {bench, "bench_fleet", "--hosts 2 --fault-plan "
         "'host-fail@0=0;host-fail@0=1'",
         "error: --fault-plan: the node-loss study needs a host left to "
         "serve"},
        {bench, "bench_sim_perf", "--repeats 0", "error: --repeats"},
        {bench, "bench_fig10_throughput", "--jobs -1", "error: --jobs"},
        {bench, "bench_fig13_sensitivity", "--jobs 4294967296",
         "error: --jobs"},
        {bench, "bench_crossval_eventsim", "--jobs x", "error: --jobs"},
        {bench, "bench_fault_resilience", "--jobs -1", "error: --jobs"},
        {examples, "hilos_fuzz", "--oracle engine --replay abc",
         "error: --replay"},
        // Once wrapped to 2^64-1 and started that many iterations.
        {examples, "hilos_fuzz", "--iters -1", "error: --iters"},
        // Once clamped to 2^63-1 and run as that seed.
        {examples, "hilos_fuzz", "--seed 18446744073709551616",
         "error: --seed"},
        {examples, "hilos_fuzz", "--oracle nope", "error: --oracle"},
        {examples, "hilos_fuzz", "--perturb nope", "error: --perturb"},
    };
    for (const auto &p : probes) {
        const std::string cmd =
            command(p.dir, p.binary) + " " + p.args + " 2>&1";
        std::string out;
        const int status = runStatus(cmd, &out);
        EXPECT_FALSE(WIFSIGNALED(status)) << cmd << "\n" << out;
        ASSERT_TRUE(WIFEXITED(status)) << cmd << "\n" << out;
        EXPECT_EQ(WEXITSTATUS(status), 2) << cmd << "\n" << out;
        EXPECT_NE(out.find(p.error), std::string::npos)
            << cmd << "\n" << out;
    }
}

TEST(CliBoundary, FuzzReplayTakesEverySeedUpToTwoToThe64)
{
    // Repro seeds above 2^63 replay as themselves.
    std::string out;
    const std::string cmd = command(HILOS_EXAMPLES_DIR, "hilos_fuzz") +
                            " --oracle attention --replay "
                            "18446744073709551615 2>&1";
    const int status = runStatus(cmd, &out);
    ASSERT_TRUE(WIFEXITED(status)) << out;
    EXPECT_NE(out.find("seed=18446744073709551615 "), std::string::npos)
        << out;
}

/** Draws option values for random argv; `valid` keeps them in range. */
class ArgvDrawer
{
  public:
    explicit ArgvDrawer(const std::string &dir) : dir_(dir)
    {
        for (const ModelConfig &m : allModels())
            models_.push_back(m.name);
        std::ofstream(dir_ + "arrivals.trace") << "0.5 256 100\n1 512 64\n";
        std::ofstream(dir_ + "waivers.txt") << "PA004 *\n";
    }

    std::string
    value(const Option &o, bool valid)
    {
        switch (o.kind) {
          case ArgParser::Kind::Count:
            return count(o, valid);
          case ArgParser::Kind::Real:
            return real(o, valid);
          case ArgParser::Kind::Choice:
            if (!valid && pick(4) == 0)
                return "bogus";
            return o.choices[pick(o.choices.size())];
          case ArgParser::Kind::String:
            return string(o, valid);
          case ArgParser::Kind::Flag:
            break;
        }
        ADD_FAILURE() << "--" << o.name << " takes no value";
        return "";
    }

    std::uint64_t
    pick(std::uint64_t n)
    {
        return static_cast<std::uint64_t>(
            rng_.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    }

    double uniform() { return rng_.uniform(); }

  private:
    std::string
    count(const Option &o, bool valid)
    {
        // In-range draws stay cheap: a short stream, a few threads, and
        // an offline prefill of at most 10^4 chunk plans (~1.5 us each).
        const std::uint64_t hi =
            o.name == "requests" || o.name == "prefill-chunks" ? 10'000
            : o.name == "jobs"                                 ? 4
                                                               : o.count_max;
        switch (pick(valid ? 3 : 7)) {
          case 0:
            return std::to_string(o.count_min);
          case 1:
            return std::to_string(hi);
          case 2: {
            // Log-uniform, so most draws are small.
            std::uint64_t r = rng_.engine()();
            const auto bits = pick(65);
            if (bits < 64)
                r &= (std::uint64_t{1} << bits) - 1;
            const std::uint64_t span = hi - o.count_min;
            return std::to_string(
                o.count_min + (span == ArgParser::kNoMax ? r
                                                         : r % (span + 1)));
          }
          case 3:
            return o.count_min > 0 ? std::to_string(o.count_min - 1)
                                   : "-1";
          case 4:
            return o.count_max == ArgParser::kNoMax
                       ? "18446744073709551616"
                       : std::to_string(o.count_max + 1);
          default:
            return malformed();
        }
    }

    std::string
    real(const Option &o, bool valid)
    {
        const bool bounded = o.real_max != ArgParser::kInf;
        switch (pick(valid ? 3 : 8)) {
          case 0:
            return format(o.real_min);
          case 1:
            return format(bounded ? o.real_max : 1e300);
          case 2:
            return format(bounded
                              ? rng_.uniform(o.real_min, o.real_max)
                              : o.real_min +
                                    std::pow(10.0, rng_.uniform(-6, 6)));
          case 3:
            return format(std::nextafter(o.real_min, -ArgParser::kInf));
          case 4:
            return bounded ? format(o.real_max + 1.0) : "1e400";
          case 5:
            return pick(2) ? "inf" : "-inf";
          case 6:
            return "nan";
          default:
            return malformed();
        }
    }

    std::string
    string(const Option &o, bool valid)
    {
        if (o.name == "model")
            return valid || pick(4) ? models_[pick(models_.size())]
                                    : "NoSuch";
        if (o.name == "fault-plan")
            return faultPlan(valid);
        if (o.name == "report" || o.name == "trace")
            return dir_ + (valid ? "" : "missing-dir/") + o.name +
                   std::to_string(pick(4));
        if (o.name == "arrival-trace")
            return dir_ + (valid ? "arrivals.trace" : "missing.trace");
        if (o.name == "plan-waivers")
            return dir_ + (valid ? "waivers.txt" : "missing.txt");
        ADD_FAILURE() << "no value generator for string option --"
                      << o.name;
        return "";
    }

    /** A fault-plan spec: a few clauses, in or out of their ranges. */
    std::string
    faultPlan(bool valid)
    {
        static const char *const kClauses[] = {
            "seed=", "nand-err=", "nvme-timeout=", "degrade@", "uplink@",
            "fail@", "host-fail@", "host-degrade@", "host-stall@",
        };
        const char *const kTimes[] = {"0", "0.5", "2.5", "800", "1e9"};
        const char *const kBadNumbers[] = {"-1", "nan", "inf", "x", ""};
        const auto number = [&](double lo, double hi) {
            return !valid && pick(4) == 0
                       ? std::string(kBadNumbers[pick(5)])
                       : format(rng_.uniform(lo, hi));
        };
        std::string spec;
        for (std::uint64_t n = pick(5); n > 0; --n) {
            const std::string clause = kClauses[pick(9)];
            std::string text = clause;
            if (clause.back() == '@')
                text += kTimes[pick(5)] + std::string("=");
            if (clause == "seed=")
                text += std::to_string(rng_.engine()());
            else if (clause.find("err") != std::string::npos ||
                     clause.find("timeout") != std::string::npos)
                text += number(0.0, 0.01);
            else if (clause == "fail@" || clause == "host-fail@")
                text += pick(4) ? std::to_string(pick(20)) : "all";
            else if (clause == "host-stall@")
                text += number(0.0, 100.0);
            else
                text += number(0.05, 1.0);
            if (pick(4) == 0 && clause != "seed=" && clause != "uplink@" &&
                clause != "host-degrade@")
                text += ":" + std::to_string(pick(20));
            spec += (spec.empty() ? "" : ";") + text;
        }
        return spec;
    }

    std::string
    malformed()
    {
        static const char *const kMalformed[] = {
            "abc", "1.5", "", "+3", "0x10", " 7", "7 ", "1e3", "--", "12abc",
        };
        return kMalformed[pick(std::size(kMalformed))];
    }

    static std::string
    format(double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return buf;
    }

    Rng rng_{20261018};
    std::string dir_;
    std::vector<std::string> models_;
};

/** Whether `text` prints a number as nan or inf; "infeasible" is a word. */
bool
printsNonFinite(std::string text)
{
    for (char &c : text)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    const auto letter = [&](std::size_t i) {
        return i < text.size() &&
               std::isalpha(static_cast<unsigned char>(text[i]));
    };
    for (const char *word : {"nan", "inf"}) {
        for (std::size_t at = text.find(word); at != std::string::npos;
             at = text.find(word, at + 1)) {
            if ((at == 0 || !letter(at - 1)) && !letter(at + 3))
                return true;
        }
    }
    return false;
}

/** `s` single-quoted for the shell. */
std::string
quoted(const std::string &s)
{
    std::string out = "'";
    for (char c : s)
        out += c == '\'' ? std::string("'\\''") : std::string(1, c);
    return out + "'";
}

TEST(CliArgv, RandomArgvFromTheDeclarationEndsCleanly)
{
    const std::string dir = ::testing::TempDir() + "hilos_cli_argv/";
    std::filesystem::create_directories(dir);
    ArgvDrawer draw(dir);
    const ArgParser decl = hilosCliOptions();
    constexpr int kArgvs = 300;
    int exits[3] = {0, 0, 0};
    for (int i = 0; i < kArgvs; ++i) {
        // Half the argv keep every value in range, so runs get past the
        // parser; the rest mix in boundary, out-of-range and malformed
        // values.
        const bool valid = draw.uniform() < 0.5;
        std::string cmd = command(HILOS_EXAMPLES_DIR, "hilos_cli");
        for (const Option &o : decl.options()) {
            if (o.name == "help" || draw.uniform() >= 0.25)
                continue;
            cmd += " --" + o.name;
            if (o.kind != ArgParser::Kind::Flag)
                cmd += " " + quoted(draw.value(o, valid));
        }
        std::string out;
        const int status = runStatus(cmd + " 2>/dev/null", &out);
        EXPECT_FALSE(WIFSIGNALED(status)) << cmd;
        ASSERT_TRUE(WIFEXITED(status)) << cmd;
        const int code = WEXITSTATUS(status);
        EXPECT_TRUE(code == 0 || code == 1 || code == 2)
            << "exit " << code << ": " << cmd;
        if (code >= 0 && code <= 2)
            exits[code]++;
        EXPECT_FALSE(printsNonFinite(out)) << cmd << "\n" << out;
    }
    // The stream reaches every outcome, not just the parser's exit 2.
    EXPECT_GT(exits[0], kArgvs / 10);
    EXPECT_GT(exits[1], 0);
    EXPECT_GT(exits[2], kArgvs / 10);
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace test
}  // namespace hilos
