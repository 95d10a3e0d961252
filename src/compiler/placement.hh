/**
 * @file
 * Greedy spatial instruction placement (after Coons et al. [2]): maps
 * each block's instructions onto the 4x4 execution-tile grid to
 * minimize operand hop distance along dependence chains while spreading
 * load across tiles. Loads/stores are biased toward the data-tile
 * column, register-read consumers toward the register-tile row.
 */

#ifndef TRIPSIM_COMPILER_PLACEMENT_HH
#define TRIPSIM_COMPILER_PLACEMENT_HH

#include "isa/program.hh"

namespace trips::compiler {

/**
 * Fill in Block::placement for one block. Instructions are placed in
 * topological order (lowest ready index first); each goes to the
 * first ET with a free slot that minimizes
 *
 *   0.35 * (insts already on the ET)
 *   + sum over producers of hops from the producer's ET (1.0 if unplaced)
 *   + 0.5 * hops from the RT bank of each register-read operand
 *   + 0.75 * ET column, for loads and stores (DTs sit in column 0)
 *   + 0.25 * hops from the GT, for branches.
 *
 * Costs are summed as integers in units of 1/20: every weight is a
 * whole number of units (7, 20, 10, 15, 5) and every distance an
 * integer, so the sums are exact. Picking the first strict minimum of
 * the exact costs is the choice a floating-point sum with a 1e-9 tie
 * margin makes: distinct exact costs differ by at least 0.05, and the
 * rounding error of such a double sum stays far below 1e-9.
 */
void placeBlock(isa::Block &block);

/** Place every block of a program. */
void placeProgram(isa::Program &prog);

} // namespace trips::compiler

#endif // TRIPSIM_COMPILER_PLACEMENT_HH
