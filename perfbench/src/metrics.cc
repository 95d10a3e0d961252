/** @file The metric table: names and units, in output order. */

#include "bench.hh"

namespace perfbench {

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs{
        {"ops_per_s", "1/s"},
        {"op_ms_p50", "ms"},
        {"sim_mcycles_per_s", "Mcycles/s"},
        {"cpu_ms_per_op", "ms"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs{
        {"uarch.run_ms", "ms"},
        {"uarch.share", "ratio"},
        {"uarch.host_ns_per_cycle", "ns/cycle"},
        {"uarch.sim_cycles", "count"},
        {"uarch.blocks_committed", "count"},
        {"uarch.commit_frac", "ratio"},
        {"uarch.insts_fired", "count"},
        {"uarch.ipc", "insts/cycle"},
        {"uarch.construct_ms", "ms"},

        {"net.opn_packets", "count"},
        {"net.opn_packets_per_cycle", "1/cycle"},
        {"net.opn_bypass_frac", "ratio"},
        {"net.opn_tick_ns", "ns"},
        {"net.opn_ns_per_packet", "ns"},
        {"net.ocn_packets", "count"},
        {"net.ocn_occupancy", "flit-hops/link"},

        {"compiler.compile_ms", "ms"},
        {"compiler.share", "ratio"},
        {"compiler.compiles", "count"},
        {"compiler.first_try_frac", "ratio"},
        {"compiler.overflow_retries", "count"},
        {"compiler.spill_rounds", "count"},
        {"compiler.blocks", "count"},

        {"trips.funcsim_ms", "ms"},
        {"trips.share", "ratio"},
        {"trips.mblocks_per_s", "Mblocks/s"},
        {"trips.decoded_fallbacks", "count"},
        {"trips.observed_ms", "ms"},
        {"trips.observed_share", "ratio"},
        {"trips.observed_mblocks_per_s", "Mblocks/s"},

        {"ideal.self_ms", "ms"},
        {"ideal.share", "ratio"},
        {"pred.self_ms", "ms"},
        {"pred.share", "ratio"},

        {"risc.compile_ms", "ms"},
        {"risc.run_ms", "ms"},
        {"risc.share", "ratio"},

        {"wir.build_ms", "ms"},
        {"wir.interp_ms", "ms"},
        {"wir.interp_share", "ratio"},
        {"harness.fuzzgen_ms", "ms"},
        {"harness.fuzzgen_share", "ratio"},

        {"mem.l1d_hit_rate", "ratio"},
        {"mem.l1i_hit_rate", "ratio"},
        {"mem.uncore_accesses", "count"},
        {"mem.uncore_access_ns", "ns"},
        {"mem.l2_hit_rate", "ratio"},
        {"mem.bank_conflicts", "count"},
        {"mem.bank_conflict_cycles", "cycles"},
        {"mem.dram_row_hit_rate", "ratio"},

        {"chip.run_ms", "ms"},
        {"chip.serial_ms", "ms"},
        {"chip.parallel_speedup", "x"},
        {"chip.cpu_over_wall", "x"},
        {"chip.quanta", "count"},
        {"chip.replayed_ops", "count"},
        {"chip.reclones", "count"},
        {"chip.reclones_per_quantum", "ratio"},

        {"stall.commit", "ratio"},
        {"stall.drain", "ratio"},
        {"stall.fetch", "ratio"},
        {"stall.bank_conflict", "ratio"},
        {"stall.ocn", "ratio"},
        {"stall.lsq", "ratio"},
        {"stall.operand", "ratio"},
        {"stall.control", "ratio"},

        {"host.effective_parallelism", "cores"},
        {"obs.trace_overhead", "x"},
    };
    return defs;
}

} // namespace perfbench
