/**
 * @file
 * Register dataflow over the recovered CFG: per-block kill masks (read
 * by the replayer's block skip) and a collapsed reaching-definitions
 * pass (read by points-to constraint generation).
 *
 * Reaching definitions is conservative at unknown boundaries: an
 * `unknown_entry` block (thread entry, indirect target, return site)
 * receives an external definition of every register.
 */

#ifndef PRORACE_ANALYSIS_DATAFLOW_HH
#define PRORACE_ANALYSIS_DATAFLOW_HH

#include <cstdint>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/insn_facts.hh"

namespace prorace::analysis {

/**
 * Reaching definition of one register at a block entry, collapsed to
 * the decision the consumers need: no def reaches (dead register),
 * exactly one program def reaches (its instruction index), several
 * defs reach (ambiguous), or an unenumerable external def reaches
 * (thread entry / callee clobber / indirect entry).
 */
struct ReachingDef {
    enum Kind : uint8_t {
        kNone = 0,   ///< no definition reaches
        kUnique,     ///< exactly one: `insn` holds its index
        kAmbiguous,  ///< two or more distinct definitions
        kExternal,   ///< unknown boundary definition
    };
    Kind kind = kNone;
    uint32_t insn = 0;

    bool operator==(const ReachingDef &) const = default;
};

/** Per-block dataflow summaries and fixpoint results. */
struct BlockDataflow {
    uint16_t kill = 0;      ///< GPRs the block may write
    /** Entry reaching definition per GPR. */
    ReachingDef reach_in[isa::kNumGprs];
};

/** Dataflow facts for a whole program. */
class Dataflow
{
  public:
    /** @p facts must be the per-instruction table of cfg's program. */
    Dataflow(const Cfg &cfg, const std::vector<InsnFacts> &facts);

    const BlockDataflow &block(uint32_t id) const { return blocks_[id]; }

    /** May-write register mask of one whole block. */
    uint16_t killMask(uint32_t block) const { return blocks_[block].kill; }

  private:
    void summarizeBlocks(const Cfg &cfg,
                         const std::vector<InsnFacts> &facts);
    void solveReaching(const Cfg &cfg,
                       const std::vector<InsnFacts> &facts);

    std::vector<BlockDataflow> blocks_;
};

} // namespace prorace::analysis

#endif // PRORACE_ANALYSIS_DATAFLOW_HH
