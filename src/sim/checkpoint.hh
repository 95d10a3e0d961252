/**
 * @file
 * Architectural checkpoints of a TRIPS execution.
 *
 * A Checkpoint is the complete architectural state of a program at a
 * block-count boundary: register file, call stack, next-block PC,
 * executed-block/fuel counters, the ISA statistics accumulated so
 * far, and the full (sparse) memory image. It is captured from the
 * functional simulator (`FuncSim::snapshot`) and can be restored into
 * either simulator: `FuncSim::restore` resumes functional execution,
 * and `CycleSim::warmStart` begins *detailed* simulation mid-program
 * (caches and predictors start cold — see DESIGN.md §7 for the
 * warm-up policy).
 *
 * The on-disk byte format is versioned and deterministic:
 *
 *   u32 magic "TRCP" | u32 version | payload | u32 crc32
 *
 * with every field little-endian at fixed width and memory pages
 * sorted by page index, so the same state always produces the same
 * bytes. Loading rejects wrong magic, unknown versions, truncation
 * and CRC mismatches with a structured TripsError (never UB, never a
 * process kill): campaign drivers catch and quarantine, CLI mains let
 * it surface as an error exit.
 */

#ifndef TRIPSIM_SIM_CHECKPOINT_HH
#define TRIPSIM_SIM_CHECKPOINT_HH

#include <array>
#include <string>
#include <vector>

#include "isa/block.hh"
#include "sim/serial.hh"
#include "support/memimage.hh"
#include "trips/func_sim.hh"

namespace trips::sim {

constexpr u32 CKPT_MAGIC = 0x50435254;  // "TRCP" little-endian
constexpr u32 CKPT_VERSION = 1;

struct Checkpoint
{
    std::array<u64, isa::NUM_REGS> regfile{};
    std::vector<u32> callStack;
    u32 nextBlock = 0;        ///< block to execute next
    u64 blocksExecuted = 0;   ///< committed blocks before this point
    IsaStats stats;           ///< ISA counters accumulated so far
    MemImage mem;             ///< full architectural memory image
};

/** Stable byte serialization (magic + version + payload + CRC). */
std::vector<u8> serializeCheckpoint(const Checkpoint &ck);

/** Parse serialized bytes; throws TripsError (Truncated /
 *  CorruptData / VersionMismatch) on magic/version/CRC/size errors. */
Checkpoint deserializeCheckpoint(const u8 *data, size_t n);

inline Checkpoint
deserializeCheckpoint(const std::vector<u8> &bytes)
{
    return deserializeCheckpoint(bytes.data(), bytes.size());
}

/** Write a checkpoint file (atomic rename); throws TripsError
 *  (IoError/NoSpace, transient) if the write cannot complete. */
void saveCheckpoint(const std::string &path, const Checkpoint &ck);

/** Read + validate a checkpoint file; throws TripsError if missing
 *  or invalid. */
Checkpoint loadCheckpoint(const std::string &path);

// Memory-image helpers (pages sorted by index).
void putMemImage(ByteWriter &w, const MemImage &m);
MemImage getMemImage(ByteReader &r);

/**
 * Semantic comparison of two memory images: every byte of every page
 * resident in either (absent pages read as zero, so residency alone
 * is not a difference). Returns "" when identical, else a one-line
 * description of the first differing byte, prefixed with @p tag.
 */
std::string diffMemImages(const MemImage &a, const MemImage &b,
                          const char *tag = "mem");

} // namespace trips::sim

#endif // TRIPSIM_SIM_CHECKPOINT_HH
