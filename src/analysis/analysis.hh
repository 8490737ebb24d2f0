/**
 * @file
 * Whole-program static analysis bundle: per-instruction fact tables,
 * CFG, dataflow, and escape analysis, computed once per program and
 * shared read-only by every consumer (aligner, replayer, detector
 * prefilter, CLI static-report).
 */

#ifndef PRORACE_ANALYSIS_ANALYSIS_HH
#define PRORACE_ANALYSIS_ANALYSIS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/dataflow.hh"
#include "analysis/escape.hh"
#include "analysis/insn_facts.hh"
#include "analysis/pointsto.hh"

namespace prorace::analysis {

/** Aggregate statistics for reporting (CLI static-report JSONL). */
struct StaticSummary {
    uint32_t insns = 0;
    uint32_t blocks = 0;
    uint32_t edges = 0;
    uint32_t reachable_blocks = 0;
    uint32_t address_taken = 0;
    uint32_t mem_sites = 0;          ///< instructions with memory events
    uint32_t thread_local_sites = 0; ///< provably private subset
    uint32_t invertible_insns = 0;   ///< some operand reverse-executable
    uint32_t learn_insns = 0;        ///< teach an unwritten register
    bool rsp_integrity = false;
    bool no_stack_escape = false;
    bool pointsto_enabled = false;
    PointsToStats pointsto;          ///< zero-valued when disabled
    uint32_t sharp_edges = 0;        ///< sharpened-CFG edge count
    uint32_t sharp_reachable = 0;    ///< sharpened-CFG reachable blocks

    double
    threadLocalFraction() const
    {
        return mem_sites ? static_cast<double>(thread_local_sites) /
                static_cast<double>(mem_sites)
                         : 0.0;
    }
};

/**
 * The static-analysis results for one program. Immutable after
 * construction; safe to share across analysis worker threads.
 */
class ProgramAnalysis
{
  public:
    /**
     * @p enable_pointsto gates the Andersen layer (and both consumers
     * built on it: CFG sharpening and constant recovery). The blunt
     * cfg/dataflow/escape trio is identical either way, so every
     * report-affecting result is too — the flag only removes the
     * sharper CFG and the extra recovered loads (--no-pointsto).
     */
    explicit ProgramAnalysis(const asmkit::Program &program,
                             bool enable_pointsto = true);

    const asmkit::Program &program() const { return *program_; }
    const Cfg &cfg() const { return cfg_; }
    const Dataflow &dataflow() const { return dataflow_; }
    const EscapeAnalysis &escape() const { return escape_; }

    /** Points-to layer, or nullptr when disabled. */
    const PointsTo *pointsTo() const { return pointsto_.get(); }

    /**
     * The CFG with indirect fan-outs narrowed to resolved points-to
     * target sets; the blunt cfg() when the layer is disabled or
     * resolved nothing.
     */
    const Cfg &sharpCfg() const
    {
        return sharp_cfg_ ? *sharp_cfg_ : cfg_;
    }

    /** Precomputed per-instruction facts (indexed by instruction). */
    const InsnFacts &facts(uint32_t index) const { return facts_[index]; }
    const std::vector<InsnFacts> &factsTable() const { return facts_; }

    /** May-write register mask of a whole basic block. */
    uint16_t
    blockKill(uint32_t block) const
    {
        return dataflow_.killMask(block);
    }

    /** True when @p index's access provably stays on its own stack. */
    bool
    siteThreadLocal(uint32_t index) const
    {
        return escape_.threadLocal(index);
    }

    StaticSummary summary() const;

  private:
    const asmkit::Program *program_;
    std::vector<InsnFacts> facts_;
    Cfg cfg_;
    Dataflow dataflow_;
    EscapeAnalysis escape_;
    std::unique_ptr<PointsTo> pointsto_;
    std::unique_ptr<Cfg> sharp_cfg_;
};

} // namespace prorace::analysis

#endif // PRORACE_ANALYSIS_ANALYSIS_HH
