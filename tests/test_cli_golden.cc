/**
 * @file
 * Golden snapshots of hilos_cli's stdout: the default HILOS run and a
 * --fault-plan run, plus the exit status of rejected inputs. The CLI
 * is the first thing a downstream user sees, so its exact output
 * (field labels, ordering, number formatting) is a behavioural
 * surface worth pinning end-to-end — through ArgParser,
 * engine dispatch, and the table renderer, not just the library calls
 * the other golden tests cover.
 *
 * The binary paths arrive via the HILOS_CLI_PATH and
 * HILOS_BENCH_FLEET_PATH compile definitions ($<TARGET_FILE:...>), so
 * the test is build-tree relocatable.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "support/golden.h"

namespace hilos {
namespace test {
namespace {

/** Run a command, capture stdout, assert exit status 0. */
std::string
capture(const std::string &cmd)
{
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) {
        ADD_FAILURE() << "popen failed for: " << cmd;
        return "";
    }
    std::string out;
    char buf[4096];
    std::size_t n = 0;
    while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0)
        out.append(buf, n);
    const int status = pclose(pipe);
    EXPECT_EQ(status, 0) << cmd << "\n" << out;
    return out;
}

/** Run a command with stderr folded into stdout; return the raw
 *  wait status and store the combined output in `out`. */
int
runStatus(const std::string &cmd, std::string *out)
{
    FILE *pipe = popen((cmd + " 2>&1").c_str(), "r");
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

void
expectGolden(const std::string &name, const std::string &actual)
{
    const GoldenOutcome out = compareGolden(name, actual);
    EXPECT_TRUE(out.ok) << out.message;
}

TEST(CliGolden, DefaultRun)
{
    expectGolden("cli_default_run.txt",
                 capture(std::string(HILOS_CLI_PATH) + " 2>/dev/null"));
}

TEST(CliGolden, ChunkedServeRun)
{
    // The serving surface with chunked prefill: pins the report labels,
    // the chunk/preemption counter line, and the chunked TTFT table on
    // the weights-resident baseline where chunking pays off.
    expectGolden(
        "cli_chunked_serve.txt",
        capture(std::string(HILOS_CLI_PATH) +
                " --engine vllm --serve --prefill-chunks 4"
                " --requests 12 --arrival-rate 0.25 --policy fcfs"
                " 2>/dev/null"));
}

TEST(CliGolden, AnalyzePlanRun)
{
    // The semantic plan analyzer's report over every engine x phase at
    // the headline workload: pins the pass findings, the waiver
    // matching, and the slack/bottleneck annotations end-to-end.
    expectGolden(
        "cli_analyze_plan_opt66b.txt",
        capture(std::string(HILOS_CLI_PATH) +
                " --analyze-plan --plan-waivers " + goldenDir() +
                "/../plan_waivers.txt 2>/dev/null"));
}

TEST(CliGolden, FaultPlanRun)
{
    expectGolden(
        "cli_fault_plan_run.txt",
        capture(std::string(HILOS_CLI_PATH) +
                " --fault-plan 'seed=7;nand-err=1e-3;fail@2.5=3'"
                " 2>/dev/null"));
}

TEST(CliGolden, ZeroOutputReportsNoNonFiniteNumbers)
{
    // No token is generated, so per-token metrics have no value; the
    // report must say so instead of printing inf or nan.
    const std::string out = capture(std::string(HILOS_CLI_PATH) +
                                    " --output 0 2>/dev/null");
    EXPECT_NE(out.find("n/a J/token"), std::string::npos) << out;
    EXPECT_EQ(out.find("inf"), std::string::npos) << out;
    EXPECT_EQ(out.find("nan"), std::string::npos) << out;
}

TEST(CliGolden, BadServeInputsExitTwoWithANamedError)
{
    // User errors on the serve path are rejected at the CLI boundary
    // with a named diagnostic and exit 2; none may reach a library
    // assert (SIGABRT) or escape as an uncaught exception.
    const struct {
        const char *args;
        const char *error;
    } cases[] = {
        {"--serve --arrival-rate 0", "error: --arrival-rate"},
        {"--serve --batch 0", "error: --batch"},
        {"--serve --slo-ms -1", "error: --slo-ms"},
        {"--serve --requests -5", "error: --requests"},
        // Once accepted, and priced with no SLO deadline or no arrivals.
        {"--serve --arrival-rate inf", "error: --arrival-rate"},
        {"--serve --slo-ms inf", "error: --slo-ms"},
    };
    for (const auto &c : cases) {
        const std::string cmd = std::string(HILOS_CLI_PATH) + " " + c.args;
        std::string out;
        const int status = runStatus(cmd, &out);
        EXPECT_FALSE(WIFSIGNALED(status)) << cmd << "\n" << out;
        ASSERT_TRUE(WIFEXITED(status)) << cmd << "\n" << out;
        EXPECT_EQ(WEXITSTATUS(status), 2) << cmd << "\n" << out;
        EXPECT_NE(out.find(c.error), std::string::npos)
            << cmd << "\n" << out;
        // The `error:` line is the whole report; no library `fatal:`
        // line precedes it.
        EXPECT_EQ(out.find("fatal:"), std::string::npos)
            << cmd << "\n" << out;
    }
}

TEST(CliGolden, BadArrivalTraceLinesExitTwoWithTheLineNumber)
{
    // A malformed or zero-token --arrival-trace line is the user's
    // error: exit 2 with an `error:` line naming the trace line, never
    // a library panic (SIGABRT).
    const struct {
        const char *name;
        const char *text;
        const char *error;
    } cases[] = {
        {"zero_tokens.trace", "0.5 256 100\n1.0 256 0\n",
         "error: arrival trace line 2: token counts must be >= 1"},
        {"malformed.trace", "# header\n0.5 256\n",
         "error: arrival trace line 2: expected"},
        {"negative.trace", "-1 256 100\n",
         "error: arrival trace line 1: negative arrival time"},
    };
    for (const auto &c : cases) {
        const std::string path = ::testing::TempDir() + c.name;
        {
            std::ofstream trace(path);
            trace << c.text;
        }
        const std::string cmd = std::string(HILOS_CLI_PATH) +
                                " --serve --arrival-trace " + path;
        std::string out;
        const int status = runStatus(cmd, &out);
        EXPECT_FALSE(WIFSIGNALED(status)) << cmd << "\n" << out;
        ASSERT_TRUE(WIFEXITED(status)) << cmd << "\n" << out;
        EXPECT_EQ(WEXITSTATUS(status), 2) << cmd << "\n" << out;
        EXPECT_NE(out.find(c.error), std::string::npos)
            << cmd << "\n" << out;
        EXPECT_EQ(out.find("fatal:"), std::string::npos)
            << cmd << "\n" << out;
        std::remove(path.c_str());
    }
}

TEST(CliGolden, BadReplayDirPlansExitTwoBeforeAnyReplay)
{
    // bench_fleet --replay-dir: a plan file that does not parse or
    // names a host past --hosts, and a directory that does not exist,
    // are user errors: one `error: <path>: ...` line each and exit 2,
    // before any plan replays (a good plan sits next to each bad one).
    namespace fs = std::filesystem;
    const fs::path root = fs::path(::testing::TempDir()) / "replay_dirs";
    const struct {
        const char *dir;
        const char *plan;
        const char *error;
    } cases[] = {
        {"unparsable", "bogus", "fault plan: missing '=' in 'bogus'"},
        {"past_hosts", "host-fail@1=9",
         "invalid fleet config: fleet: host-fail targets host 9 but the "
         "fleet has 4 hosts"},
        {"missing", nullptr, "No such file or directory"},
    };
    for (const auto &c : cases) {
        const fs::path dir = root / c.dir;
        std::string where = dir.string();
        if (c.plan != nullptr) {
            fs::create_directories(dir);
            std::ofstream(dir / "a_good.txt") << "host-fail@0=1\n";
            std::ofstream(dir / "bad.txt") << "# scenario\n" << c.plan << "\n";
            where = (dir / "bad.txt").string();
        }
        const std::string cmd = std::string(HILOS_BENCH_FLEET_PATH) +
                                " --hosts 4 --json-dir '' --replay-dir " +
                                dir.string();
        std::string out;
        const int status = runStatus(cmd, &out);
        ASSERT_TRUE(WIFEXITED(status)) << cmd << "\n" << out;
        EXPECT_EQ(WEXITSTATUS(status), 2) << cmd << "\n" << out;
        EXPECT_EQ(out, "error: " + where + ": " + c.error + "\n") << cmd;
    }
    fs::remove_all(root);
}

TEST(CliGolden, UnplaceableFleetIsInfeasibleLikeOneHost)
{
    // Work no host can hold is infeasible on one host and on a fleet
    // alike: an `infeasible:` line and exit 1. The fleet once panicked
    // under --serve (a PlanCache rebuild) and reported a feasible run
    // with batch 0 and a 0 s decode step offline.
    const std::string trace = ::testing::TempDir() + "unplaceable.trace";
    {
        std::ofstream out(trace);
        out << "0 1000 10\n1 30000000 10\n";
    }
    const struct {
        const char *args;
        const char *line;
    } cases[] = {
        {"--serve --arrival-trace ",
         "infeasible: request 1 (context 30000010) does not fit"},
        {"--hosts 2 --serve --arrival-trace ",
         "infeasible: request 1 (context 30000010) does not fit"},
        {"--output 30000000", "infeasible: "},
        {"--hosts 2 --output 30000000",
         "infeasible: no host can serve a share of this workload"},
    };
    for (const auto &c : cases) {
        std::string cmd = std::string(HILOS_CLI_PATH) + " " + c.args;
        if (cmd.back() == ' ')
            cmd += trace;
        std::string out;
        const int status = runStatus(cmd, &out);
        EXPECT_FALSE(WIFSIGNALED(status)) << cmd << "\n" << out;
        ASSERT_TRUE(WIFEXITED(status)) << cmd << "\n" << out;
        EXPECT_EQ(WEXITSTATUS(status), 1) << cmd << "\n" << out;
        EXPECT_NE(out.find(c.line), std::string::npos) << cmd << "\n" << out;
        EXPECT_EQ(out.find("panic:"), std::string::npos) << cmd << "\n" << out;
    }
    std::remove(trace.c_str());
}

TEST(CliGolden, BadRunInputsExitTwoWithANamedError)
{
    // Out-of-range devices, negative or zero sizes, unknown names and a
    // fault plan that parses but does not validate are user errors:
    // each gets an `error:` line and exit 2, never a library assert
    // (SIGABRT), an uncaught exception, or a run priced on a wrapped
    // negative number.
    const struct {
        const char *args;
        const char *error;
    } cases[] = {
        {"--devices 0", "error: --devices"},
        {"--devices 17", "error: --devices"},
        // Counts are checked before the unsigned cast: these once
        // wrapped to a valid-looking 1-device run.
        {"--devices 4294967297", "error: --devices"},
        {"--devices -4294967295", "error: --devices"},
        // ... and these to 2^64-1 prefill chunks, a run that never ends.
        {"--prefill-chunks -1", "error: --prefill-chunks"},
        {"--prefill-chunks 18446744073709551615", "error: --prefill-chunks"},
        // An offline run's chunks past the prompt would be empty.
        {"--context 4 --prefill-chunks 8", "error: --prefill-chunks"},
        {"--model NoSuch", "error: unknown model: NoSuch"},
        {"--engine nosuch", "error: --engine"},
        {"--fault-plan 'fail@nan=3'", "error: --fault-plan"},
        // A plan that does not parse gets main's one `error:` line.
        {"--fault-plan bogus",
         "error: fault plan: missing '=' in 'bogus'\n"},
        // Past --devices: once a library panic, also under --report.
        {"--fault-plan 'fail@1=12'",
         "error: fault plan: device-fail targets device 12"},
        {"--report /dev/null --fault-plan 'fail@1=9'",
         "error: fault plan: device-fail targets device 9"},
        // A fault plan an engine or serving would ignore is refused,
        // never priced as a healthy run.
        {"--engine flex-ssd --fault-plan 'fail@1=0;uplink@1=0.3'",
         "error: --fault-plan requires --engine hilos"},
        {"--serve --requests 8 --arrival-rate 0.05 --fault-plan "
         "'fail@1=0;fail@1=1;fail@1=2;fail@1=3;uplink@1=0.3'",
         "error: --fault-plan is not supported with --serve"},
        {"--hosts 2 --serve --requests 8 --arrival-rate 0.05 "
         "--fault-plan 'host-fail@1=0'",
         "error: --fault-plan is not supported with --serve"},
        {"--compare --fault-plan 'fail@1=0'",
         "error: --fault-plan is not supported with --compare"},
        {"--analyze-plan --fault-plan 'fail@1=0'",
         "error: --fault-plan is not supported with --analyze-plan"},
        {"--alpha 2", "error: --alpha"},
        {"--alpha -0.5", "error: --alpha"},
        {"--spill 0", "error: --spill"},
        {"--output -1", "error: --output"},
        {"--context -5", "error: --context"},
        {"--context 0", "error: --context"},
        {"--window -1", "error: --window"},
        {"--hosts 0", "error: --hosts"},
        {"--spares -1", "error: --spares"},
        // 2^32 spares must not wrap to 0 and pass as a valid fleet.
        {"--policy fault-aware --hosts 4 --spares 4294967296",
         "spare hosts leaves no server"},
        {"--jobs -1", "error: --jobs"},
        {"--gpu tpu", "error: --gpu"},
        // Once ignored on a single-host run.
        {"--policy bogus", "error: --policy"},
        // Past the stated ceiling: once a std::bad_alloc (SIGABRT).
        {"--serve --requests 100000000000", "error: --requests"},
    };
    for (const auto &c : cases) {
        const std::string cmd = std::string(HILOS_CLI_PATH) + " " + c.args;
        std::string out;
        const int status = runStatus(cmd, &out);
        EXPECT_FALSE(WIFSIGNALED(status)) << cmd << "\n" << out;
        ASSERT_TRUE(WIFEXITED(status)) << cmd << "\n" << out;
        EXPECT_EQ(WEXITSTATUS(status), 2) << cmd << "\n" << out;
        EXPECT_NE(out.find(c.error), std::string::npos)
            << cmd << "\n" << out;
        EXPECT_EQ(out.find("fatal:"), std::string::npos)
            << cmd << "\n" << out;
    }
}

TEST(CliGolden, CompoundUplinkDerateBelowTheFloorExitsTwo)
{
    // 1,000 halvings of the uplink each pass the per-event check, but
    // their product would price ops at inf seconds.
    std::string plan;
    for (int i = 0; i < 1000; ++i)
        plan += "uplink@0.5=0.5;";
    const std::string cmd =
        std::string(HILOS_CLI_PATH) + " --fault-plan '" + plan + "'";
    std::string out;
    const int status = runStatus(cmd, &out);
    ASSERT_TRUE(WIFEXITED(status)) << out;
    EXPECT_EQ(WEXITSTATUS(status), 2) << out;
    EXPECT_NE(out.find("error: --fault-plan: compound chassis-uplink"),
              std::string::npos)
        << out;
}

TEST(CliGolden, AlphaAndSpillBoundariesAreAccepted)
{
    for (const char *args : {"--alpha 0", "--alpha 1", "--spill 1"})
        capture(std::string(HILOS_CLI_PATH) + " " + args + " >/dev/null");
}

TEST(CliGolden, PrefillChunkBoundariesAreAccepted)
{
    // An offline run may split its prompt into one-token chunks; a
    // serving run splits each request's own prompt, so --context does
    // not bound its chunk count.
    for (const char *args : {"--context 4 --prefill-chunks 4",
                             "--serve --requests 2 --context 4 "
                             "--prefill-chunks 8"})
        capture(std::string(HILOS_CLI_PATH) + " " + args + " >/dev/null");
}

TEST(CliGolden, ServingPrefillChunksStopAtThePaddedPrompt)
{
    // A serving group never splits into more chunks than its padded
    // prompt has tokens (the offline rule, chunks <= context). These
    // once ran 200,000 chunks (200,005 cost-cache misses) and, at
    // 2^63-1, never finished; both now clamp to the same 1024 + 2048
    // chunks of the stream's two admission groups.
    for (const char *count : {"100000", "9223372036854775807"}) {
        // `timeout` turns a run that never ends into a failed exit.
        const std::string out = capture(
            "timeout 60 " + std::string(HILOS_CLI_PATH) +
            " --serve --requests 3 --prefill-chunks " + count +
            " 2>/dev/null");
        EXPECT_NE(out.find(std::string("prefill chunking     : ") + count +
                           " chunk(s)/group, 3072 run, 89 decode "
                           "preemptions\n"),
                  std::string::npos)
            << out;
        EXPECT_NE(out.find("step-cost cache      : 448 hits, 3077 misses\n"),
                  std::string::npos)
            << out;
    }
}

TEST(CliGolden, TraceReplaysABaselineEnginesPlanOps)
{
    // --trace is the plan replay, so any engine can be traced and its
    // events name the ops of that engine's decode plan.
    const std::string path = ::testing::TempDir() + "flex_ssd_trace.json";
    capture(std::string(HILOS_CLI_PATH) + " --engine flex-ssd --trace " +
            path + " >/dev/null");
    std::ifstream in(path);
    ASSERT_TRUE(in) << path;
    const std::string json((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"layer0/kv_fetch\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"storage[0]\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(CliGolden, FleetTraceNamesTheInterHostSync)
{
    // A fleet emits a decode plan like any engine: its replay carries
    // the per-step coordination exchange as a tail op on the
    // inter-node link.
    const std::string path = ::testing::TempDir() + "fleet_trace.json";
    capture(std::string(HILOS_CLI_PATH) + " --hosts 2 --trace " + path +
            " >/dev/null");
    std::ifstream in(path);
    ASSERT_TRUE(in) << path;
    const std::string json((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const std::string track = "\"args\":{\"name\":\"inter_node[0]\"}";
    const std::size_t at = json.find(track);
    ASSERT_NE(at, std::string::npos) << json.substr(0, 512);
    // The track's thread id sits just before its name.
    const std::size_t tid_at = json.rfind("\"tid\":", at);
    ASSERT_NE(tid_at, std::string::npos);
    const std::string tid = json.substr(tid_at, at - tid_at);
    EXPECT_NE(json.find("{\"name\":\"tail/inter_host_sync\",\"ph\":\"X\","
                        "\"pid\":1," +
                        tid),
              std::string::npos)
        << tid;
    std::remove(path.c_str());
}

}  // namespace
}  // namespace test
}  // namespace hilos
