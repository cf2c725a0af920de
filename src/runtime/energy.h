/**
 * @file
 * Energy, cost-effectiveness, and endurance models (§6.6).
 *
 * Energy: per-component accounting (GPU via NVML-style busy power, CPU
 * and DRAM via RAPL-style, SSD/SmartSSD from datasheet/expansion-board
 * telemetry): E = active_power * busy + idle_power * (wall - busy).
 *
 * Cost: tokens/sec/$ with the paper's price list.
 *
 * Endurance: serviceable requests before the SSD fleet exhausts its
 * rated PBW, given per-request write volume (prefill KV/X writes plus
 * decode spills with their write amplification).
 */

#ifndef HILOS_RUNTIME_ENERGY_H_
#define HILOS_RUNTIME_ENERGY_H_

#include <cstdint>
#include <string>

#include "common/units.h"
#include "runtime/system_config.h"

namespace hilos {

/** Busy seconds per component over some interval. */
struct ComponentBusy {
    Seconds gpu = 0;
    Seconds cpu = 0;
    Seconds dram = 0;
    Seconds storage = 0;  ///< SSD/NAND activity (per device)
    Seconds fpga = 0;     ///< NSP accelerator activity (per device)
};

/** Joules per component over a run. */
struct EnergyBreakdown {
    Joules gpu = 0;
    Joules cpu = 0;
    Joules dram = 0;
    Joules storage = 0;  ///< SSDs or SmartSSDs (incl. FPGA power)

    Joules total() const { return gpu + cpu + dram + storage; }
};

/** Which storage fleet a configuration runs on. */
enum class StorageKind {
    BaselineSsds,  ///< N x PM9A3
    SmartSsds,     ///< N x SmartSSD (FPGA active)
    None,          ///< KV in DRAM only
};

/**
 * The power figures computeEnergy reads, drawn from a SystemConfig once:
 * an engine keeps one per system (vLLM's scaled to its cluster), so a
 * plan carries eleven numbers instead of a whole configuration.
 */
struct PowerSpec {
    Watts gpu_tdp = 0;
    Watts gpu_idle = 0;
    Watts cpu_tdp = 0;
    Watts cpu_idle = 0;
    Watts dram_active = 0;
    Watts dram_idle = 0;
    Watts ssd_active = 0;   ///< baseline SSD, per device
    Watts ssd_idle = 0;
    Watts nand_active = 0;  ///< SmartSSD NAND, per device
    Watts nand_idle = 0;
    Watts fpga_idle = 0;    ///< SmartSSD FPGA, per device
};

/** The power figures of `sys`. */
PowerSpec powerSpecOf(const SystemConfig &sys);

/**
 * Energy accounting for one run.
 *
 * @param power component power figures
 * @param kind which storage fleet is powered
 * @param devices storage device count
 * @param wall wall-clock seconds of the run
 * @param busy per-component busy seconds (storage/fpga are per device)
 * @param fpga_power per-device FPGA power when busy (from the resource
 *        model; ignored unless kind == SmartSsds)
 */
EnergyBreakdown computeEnergy(const PowerSpec &power, StorageKind kind,
                              unsigned devices, Seconds wall,
                              const ComponentBusy &busy,
                              Watts fpga_power = 0.0);

/** Total system price for a configuration (Fig. 16(a)). */
double systemPriceUsd(const SystemConfig &sys, StorageKind kind,
                      unsigned devices);

/** tokens/sec/$ cost-effectiveness metric. */
double costEffectiveness(double tokens_per_sec, double price_usd);

/** Inputs to the endurance estimate for one request class. */
struct EnduranceInputs {
    /** Bytes written to the fleet per request (prefill + spills). */
    Bytes bytes_per_request = 0;
    /** Effective write amplification on those bytes. */
    double write_amplification = 1.0;
    /** Fleet size. */
    unsigned devices = 16;
    /** Per-device rated endurance in bytes (7.008 PBW default). */
    Bytes per_device_endurance_bytes = 7.008e15;
};

/** Serviceable requests before the fleet's rated PBW is exhausted. */
double serviceableRequests(const EnduranceInputs &in);

}  // namespace hilos

#endif  // HILOS_RUNTIME_ENERGY_H_
