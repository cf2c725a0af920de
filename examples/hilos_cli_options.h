/**
 * @file
 * hilos_cli's option table, declared once: the binary parses its argv
 * with it, --help prints it, and tests/test_cli_argv.cc draws random
 * argv from it.
 */

#ifndef HILOS_EXAMPLES_HILOS_CLI_OPTIONS_H_
#define HILOS_EXAMPLES_HILOS_CLI_OPTIONS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/cli.h"
#include "core/hilos.h"

namespace hilos {

inline ArgParser
hilosCliOptions()
{
    std::vector<std::string> engines;
    for (const EngineName &e : kEngineNames)
        engines.emplace_back(e.name);

    // Token and request counts fit 32 bits, so the engines' products of
    // two of them (batch x tokens, chunk index x context) fit 64.
    constexpr std::uint64_t kMaxTokens = ArgParser::kUnsignedMax;
    ArgParser args("hilos_cli");
    args.addChoice("engine", "hilos", "engine to run", engines)
        .addOption("model", "OPT-66B",
                   "Table 2 model name (e.g. OPT-175B, Qwen2.5-32B)")
        .addCount("batch", "16", "batch size", 1, kMaxTokens)
        .addCount("context", "32768", "prompt length in tokens", 1,
                  kMaxTokens)
        .addCount("output", "64", "generated tokens (0 = prefill only)", 0,
                  kMaxTokens)
        .addCount("devices", "8", "SmartSSD count for HILOS", 1, 16)
        .addCount("hosts", "1",
                  "scale HILOS out to a fleet of this many hosts "
                  "(>1 selects the fleet engine)",
                  1, 64)
        .addChoice("policy", "spread",
                   "fleet placement policy, or with --serve the serving "
                   "policy (spread there means fcfs)",
                   {"spread", "pack", "fault-aware", "fcfs", "sjf", "slo"})
        .addCount("spares", "1",
                  "hosts the fault-aware policy holds in reserve", 0)
        .addReal("alpha", "-1",
                 "X-cache ratio override in [0, 1] "
                 "(-1 = scheduler-selected)",
                 -1.0, 1.0)
        .addCount("spill", "16", "delayed-writeback spill interval c", 1,
                  ArgParser::kUnsignedMax)
        .addCount("window", "0",
                  "sliding attention window in tokens (0 = full)", 0)
        .addChoice("gpu", "a100", "gpu", {"a100", "h100"})
        .addFlag("no-xcache", "disable cooperative X-cache")
        .addFlag("no-writeback", "disable delayed KV writeback")
        .addFlag("cxl", "model a CXL.mem-coherent accelerator (7.3)")
        .addFlag("compare", "run every engine on the workload")
        .addOption("fault-plan", "",
                   "inject faults into an offline --engine hilos run "
                   "(any --hosts), e.g. "
                   "'seed=7;nand-err=1e-3;fail@2.5=3;uplink@1=0.8'; "
                   "not with --serve, --compare or --analyze-plan "
                   "(see sim/fault.h)")
        .addOption("report", "",
                   "write a markdown evaluation report (headline grid) "
                   "to this file")
        .addCount("jobs", "1",
                  "worker threads for the --report grid sweep "
                  "(0 = all cores; output is identical at any value)",
                  0, ArgParser::kUnsignedMax)
        .addOption("trace", "",
                   "write a chrome://tracing JSON of one replayed "
                   "decode step (any engine or fleet) to this file")
        .addFlag("serve",
                 "online serving simulation: continuous batching over "
                 "an arrival stream (uses --batch as the batch cap and "
                 "--policy as the serving policy)")
        .addReal("arrival-rate", "1",
                 "serving arrival rate in requests/s (Poisson)",
                 kMinArrivalRate)
        .addCount("requests", "64",
                  "request count of the generated Poisson stream", 1,
                  kMaxStreamRequests)
        .addOption("arrival-trace", "",
                   "replay arrivals from a trace file "
                   "(`<arrival_seconds> <input> <output>` per line) "
                   "instead of generating a Poisson stream")
        .addReal("slo-ms", "0",
                 "end-to-end latency SLO in milliseconds (0 = none)", 0.0)
        .addCount("prefill-chunks", "1",
                  "split each prefill into this many chunks (offline "
                  "run and --serve; later chunks yield to the decode "
                  "batch)",
                  1)
        .addFlag("analyze-plan",
                 "run the semantic plan analyzer over every engine's "
                 "decode and prefill plans for this workload and print "
                 "the findings/slack report (exits 1 on unwaivered "
                 "error findings)")
        .addOption("plan-waivers", "",
                   "waiver file for --analyze-plan (one 'PAnnn "
                   "<op-label|*>' per line; see tests/plan_waivers.txt)");
    return args;
}

}  // namespace hilos

#endif  // HILOS_EXAMPLES_HILOS_CLI_OPTIONS_H_
