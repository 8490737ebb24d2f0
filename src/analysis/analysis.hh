/**
 * @file
 * Whole-program static analysis bundle: per-instruction fact tables,
 * CFG, dataflow, escape and points-to analysis, computed once per
 * program and shared read-only by every consumer (aligner, replayer,
 * detector prefilter, CLI static-report). Each result here is read by
 * alignment, replay, the prefilter or constant recovery.
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
    bool rsp_integrity = false;
    bool no_stack_escape = false;
    bool pointsto_enabled = false;
    PointsToStats pointsto;          ///< zero-valued when disabled

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
     * @p enable_pointsto gates the Andersen layer and its one consumer,
     * replay constant recovery. The cfg/dataflow/escape trio is
     * identical either way, so every report-affecting result is too —
     * the flag only removes the extra recovered loads (--no-pointsto).
     */
    explicit ProgramAnalysis(const asmkit::Program &program,
                             bool enable_pointsto = true);

    const asmkit::Program &program() const { return *program_; }
    const Cfg &cfg() const { return cfg_; }
    const Dataflow &dataflow() const { return dataflow_; }
    const EscapeAnalysis &escape() const { return escape_; }

    /** Points-to layer, or nullptr when disabled. */
    const PointsTo *pointsTo() const { return pointsto_.get(); }

    /** Precomputed per-instruction facts (indexed by instruction). */
    const InsnFacts &facts(uint32_t index) const { return facts_[index]; }

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
};

} // namespace prorace::analysis

#endif // PRORACE_ANALYSIS_ANALYSIS_HH
