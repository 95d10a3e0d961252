/**
 * @file
 * Differential oracle over the execution models.
 *
 * diffOne() takes one (seed, shape), generates the WIR module once,
 * and runs it through every model the paper's methodology compares:
 * the WIR interpreter (golden), the RISC baseline under both compiler
 * presets, the TRIPS functional simulator under the compiled and hand
 * presets, and the TRIPS cycle-level simulator. It then cross-checks
 *
 *   - return values: every model against golden;
 *   - memory: the final data-segment image (each generated global,
 *     byte for byte) of every model against golden — stacks differ by
 *     ISA and are excluded;
 *   - ISA-stat invariants on the functional run (fetched >= fired >=
 *     useful, committed blocks within architectural bounds);
 *   - uarch self-consistency on the cycle-level run (OPN class totals
 *     balance against packets + bypasses, window occupancy within the
 *     configured frame count, cycle/functional retVal agreement).
 *
 * On divergence the report carries a human-readable detail string and
 * minimizeDivergence() walks the generator's shrink ladder to find
 * the smallest shape that still reproduces it, so the reproducer
 * pinned in a regression test is as readable as possible.
 *
 * diffChipMix() adds the chip-mode check: N generated programs run
 * concurrently on an N-core chip, and each core must reproduce its
 * solo single-core run architecturally (retVal + data segment;
 * timing may differ under shared-L2/OCN contention, results may not).
 */

#ifndef TRIPSIM_HARNESS_DIFF_HH
#define TRIPSIM_HARNESS_DIFF_HH

#include <string>
#include <vector>

#include "compiler/options.hh"
#include "harness/fuzzgen.hh"
#include "harness/guard.hh"
#include "harness/sweep.hh"
#include "support/memimage.hh"
#include "trips/func_sim.hh"
#include "uarch/config.hh"

namespace trips::obs {
class ProgressMeter;
}

namespace trips::harness {

/**
 * Byte-compare two final memory images over a module's data segment
 * (every generated global; stacks are excluded — they differ by ISA).
 * Returns "" on equality, else a description of the first differing
 * byte prefixed with `who`.
 */
std::string compareDataSegments(const wir::Module &mod,
                                const MemImage &golden,
                                const MemImage &other, const char *who);

struct DiffOptions
{
    bool cycleLevel = true;   ///< include the cycle-level model
    bool handPreset = true;   ///< include the hand compiler preset
    bool iccPreset = true;    ///< include the second RISC compiler
    /** Run the TIL structural verifier between backend passes of every
     *  TRIPS compile (fatal on violation); see compiler/til.hh. */
    bool verifyTil = false;
    uarch::UarchConfig ucfg{};

    // Chip-mode knobs (diffChipMix / sweepChipDiff).
    unsigned chipCores = 2;   ///< generated programs per chip mix
    /** Chip stepping engine under test; Parallel additionally checks
     *  run-to-run replay determinism of the whole chip result. */
    uarch::ChipEngine chipEngine = uarch::ChipEngine::Serial;
    unsigned chipQuantum = 1024;  ///< parallel-engine quantum (cycles)
    unsigned chipThreads = 0;     ///< parallel-engine thread cap (0=N)
};

struct DiffResult
{
    u64 seed = 0;
    ShapeConfig shape;
    bool ok = true;
    std::string divergence;   ///< empty iff ok; first failure found

    // Chip-mode runs place N generated programs on an N-core chip.
    bool chip = false;
    std::vector<u64> chipSeeds;   ///< one per core, core-id order
    uarch::ChipEngine chipEngine = uarch::ChipEngine::Serial;
    unsigned chipQuantum = 1024;

    // Aggregate statistics for sweep reporting.
    u64 goldenDynOps = 0;
    u64 cycles = 0;

    /** Command line that reproduces this program standalone. */
    std::string reproCmd() const;
};

/** Generate and cross-check one program. */
DiffResult diffOne(u64 seed, const ShapeConfig &shape = ShapeConfig{},
                   const DiffOptions &opts = DiffOptions{});

/**
 * Chip-mode oracle: one generated program per seed, each run solo on
 * a single-core CycleSim and then all together on a seeds.size()-core
 * chip (1..16) stepped by opts.chipEngine. Every chip core must
 * reproduce its solo run's retVal, final data segment (byte for
 * byte: the shared uncore is timing interference only) and
 * committed-block count; per-core uarch invariants are checked on the
 * chip run too. Under the parallel engine the whole chip run is
 * executed twice and the two ChipResults must agree on every field
 * (fieldDiff: the relaxed-quantum replay determinism pin).
 */
DiffResult diffChipMix(const std::vector<u64> &seeds,
                       const ShapeConfig &shape = ShapeConfig{},
                       const DiffOptions &opts = DiffOptions{});

/**
 * Checkpoint/restore differential oracle (see src/sim/checkpoint.hh).
 *
 * Runs the module straight (functional to completion + cycle-level to
 * completion), then re-runs it through checkpoints: the functional
 * simulator is paused every `every` blocks, snapshotted, the snapshot
 * is serialized and re-parsed (so the byte format is exercised on
 * every boundary), restored into a fresh functional simulator that
 * runs to completion, AND warm-started into a fresh cycle-level
 * simulator that runs to completion. The oracle demands
 *
 *   - restored functional run == straight functional run: retVal,
 *     final memory image, ISA stats (bit-identical);
 *   - warm-started cycle run == straight cycle run architecturally:
 *     retVal, final memory image, and committed-block count
 *     (ck.blocksExecuted + warm commits == straight commits);
 *
 * for every checkpoint boundary (capped at `maxCheckpoints`, evenly
 * consumed in program order).
 */
struct CkptOracleResult
{
    bool ok = true;
    std::string divergence;   ///< empty iff ok
    u64 checkpoints = 0;      ///< boundaries exercised
    u64 totalBlocks = 0;      ///< straight-run committed blocks
};

CkptOracleResult diffCheckpointRestore(
    const wir::Module &mod, u64 every,
    const compiler::Options &copts,
    const uarch::UarchConfig &ucfg = uarch::UarchConfig{},
    unsigned maxCheckpoints = 4);

/**
 * Shrink a diverging result down the ShapeConfig ladder: each rung is
 * kept only if the divergence (any divergence) still reproduces.
 * Returns the smallest still-diverging result.
 */
DiffResult minimizeDivergence(const DiffResult &bad,
                              const DiffOptions &opts = DiffOptions{});

/**
 * Differentially check `count` programs with seeds taskSeed(base, i),
 * sharded across the pool. Returns the diverging results only, in
 * deterministic (index) order, each already minimized.
 */
std::vector<DiffResult> sweepDiff(SweepPool &pool, u64 base, u64 count,
                                  const ShapeConfig &shape = ShapeConfig{},
                                  const DiffOptions &opts = DiffOptions{},
                                  obs::ProgressMeter *progress = nullptr);

/**
 * Chip-mode sweep: `count` mixes of opts.chipCores generated programs
 * each, mix i running seeds taskSeed(base, chipCores*i + k) on core k
 * (the historical dual-core pairing for chipCores == 2). Divergences
 * come back minimized down the shrink ladder (all programs of a mix
 * shrink together).
 */
std::vector<DiffResult> sweepChipDiff(
    SweepPool &pool, u64 base, u64 count,
    const ShapeConfig &shape = ShapeConfig{},
    const DiffOptions &opts = DiffOptions{},
    obs::ProgressMeter *progress = nullptr);

/** What a guarded sweep did besides diverge. */
struct GuardedSweepResult
{
    std::vector<DiffResult> divergences;  ///< minimized, index order
    u64 completed = 0;    ///< tasks that ran to a verdict (ok or not)
    u64 quarantined = 0;  ///< structured failures recorded, not fatal
    u64 timeouts = 0;     ///< watchdog kills (subset of quarantined)
};

/**
 * sweepDiff hardened with runGuarded (guard.hh): a task that throws a
 * structured TripsError — a grown shape the register allocator cannot
 * color, a corrupt file, an invalid derived config — is recorded in
 * @p ledger with its seed, shape and repro command, and the sweep
 * *continues*. Watchdog timeouts are quarantined the same way.
 * Divergences still come back minimized; a shrink rung that itself
 * throws is treated as not reproducing (the ladder stops there).
 */
GuardedSweepResult sweepDiffGuarded(
    SweepPool &pool, u64 base, u64 count, const ShapeConfig &shape,
    const DiffOptions &opts, const GuardConfig &gcfg,
    QuarantineLedger &ledger, obs::ProgressMeter *progress = nullptr);

} // namespace trips::harness

#endif // TRIPSIM_HARNESS_DIFF_HH
