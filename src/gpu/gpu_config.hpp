/**
 * @file
 * Whole-GPU configuration (paper Table 1) and the derived bench-scale
 * variants.
 */

#ifndef COOPRT_GPU_GPU_CONFIG_HPP
#define COOPRT_GPU_GPU_CONFIG_HPP

#include <cstdint>

#include "mem/memory_system.hpp"
#include "rtunit/trace_config.hpp"

namespace cooprt::gpu {

/** Per-warp stall attribution classes (paper Fig. 1). */
struct StallBreakdown
{
    std::uint64_t rt = 0;   ///< trace_ray latency + warp-buffer waits
    std::uint64_t mem = 0;  ///< CUDA-core load/store latency
    std::uint64_t alu = 0;  ///< arithmetic latency
    std::uint64_t sfu = 0;  ///< special-function latency

    std::uint64_t total() const { return rt + mem + alu + sfu; }
};

/** Full GPU configuration. */
struct GpuConfig
{
    int num_sms = 30;
    /** Max resident thread blocks (1 warp each) per SM (Table 1: 32). */
    int max_warps_per_sm = 32;

    mem::MemConfig mem;
    rtunit::TraceConfig trace;

    /** Per-instruction latencies of the SM shading pipeline model. */
    std::uint32_t alu_latency = 2;
    std::uint32_t sfu_latency = 8;
    std::uint32_t mem_latency = 30;

    /** Activity sampling interval (paper: 500 cycles); must be > 0,
     *  the Gpu constructor rejects 0. */
    std::uint64_t sample_interval = 500;

    /**
     * The paper's Table 1 configuration (SM75_RTX2060): 30 SMs,
     * 64 KB fully associative L1 (20 cyc), 3 MB 16-way L2 (160 cyc),
     * 6 DRAM channels, 4-entry RT warp buffer.
     */
    static GpuConfig
    rtx2060()
    {
        GpuConfig c;
        c.num_sms = 30;
        c.mem.num_sms = 30;
        c.mem.l1 = {64 * 1024, 0, 128, 20};
        c.mem.l2 = {3 * 1024 * 1024, 16, 128, 160};
        c.mem.l2_banks = 12;
        c.mem.l2_bytes_per_cycle = 32.0;
        c.mem.dram.channels = 6;
        c.mem.dram.latency = 350; // effective (loaded) GDDR6 latency
        c.mem.dram.bytes_per_cycle = 41.0;
        return c;
    }

    /**
     * Bench-scale desktop configuration: the rtx2060 scaled to one
     * third of the SMs with the L2 capacity and DRAM bandwidth scaled
     * by the same factor, preserving the per-SM compute : memory
     * ratio. It does not reproduce the paper's occupancy: benches
     * run it at `SceneRegistry::benchResolution` (48, 40 or 32 px),
     * and even a 64x64 frame gives only ~410 rays per SM, against
     * the paper's ~2,185 (256x256 over 30 SMs).
     */
    static GpuConfig
    rtx2060Bench()
    {
        GpuConfig c = rtx2060();
        c.num_sms = 10;
        c.mem.num_sms = 10;
        c.mem.l2.size_bytes = 1024 * 1024;
        c.mem.l2_banks = 4;
        c.mem.dram.channels = 6;
        c.mem.dram.bytes_per_cycle = 41.0 / 3.0;
        return c;
    }

    /**
     * High-occupancy variant for the warp-buffer experiments
     * (Figs. 13-15): fewer SMs with the same per-SM memory ratios,
     * so each SM hosts ~18 warps at bench resolutions — enough
     * queue depth for the RT warp-buffer size to matter, as in the
     * paper's setup of 68 warps per SM.
     */
    static GpuConfig
    rtx2060HighOccupancy()
    {
        GpuConfig c = rtx2060();
        c.num_sms = 4;
        c.mem.num_sms = 4;
        c.mem.l2.size_bytes = 384 * 1024;
        c.mem.l2_banks = 2;
        c.mem.dram.channels = 6;
        c.mem.dram.bytes_per_cycle = 41.0 / 7.5;
        return c;
    }

    /**
     * The paper's mobile configuration (Section 7.4): 8 SMs and 4
     * memory channels — bench-scaled the same way as rtx2060Bench.
     */
    static GpuConfig
    mobileBench()
    {
        GpuConfig c = rtx2060();
        c.num_sms = 6;
        c.mem.num_sms = 6;
        c.mem.l2.size_bytes = 768 * 1024;
        c.mem.l2_banks = 2;
        c.mem.dram.channels = 4;
        // Mobile LPDDR: markedly less bandwidth per SM than the
        // desktop part — the paper's Section 7.4 bottleneck.
        c.mem.dram.bytes_per_cycle = 3.6;
        c.mem.dram.latency = 400;
        return c;
    }
};

} // namespace cooprt::gpu

#endif // COOPRT_GPU_GPU_CONFIG_HPP
