#include "analysis/dataflow.hh"

#include <array>

namespace prorace::analysis {

Dataflow::Dataflow(const Cfg &cfg, const std::vector<InsnFacts> &facts)
    : blocks_(cfg.numBlocks())
{
    summarizeBlocks(cfg, facts);
    solveReaching(cfg, facts);
}

void
Dataflow::summarizeBlocks(const Cfg &cfg,
                          const std::vector<InsnFacts> &facts)
{
    const asmkit::Program &p = cfg.program();
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
        BlockDataflow &blk = blocks_[b];
        for (uint32_t i = p.blockBegin(b); i < p.blockEnd(b); ++i)
            blk.kill |= facts[i].kill;
    }
}

namespace {

/** Meet of two collapsed reaching-def values (may-union). */
ReachingDef
meetDefs(const ReachingDef &a, const ReachingDef &b)
{
    if (a.kind == ReachingDef::kNone)
        return b;
    if (b.kind == ReachingDef::kNone)
        return a;
    if (a == b)
        return a;
    // Distinct non-empty values: external taints, otherwise ambiguous.
    if (a.kind == ReachingDef::kExternal || b.kind == ReachingDef::kExternal)
        return {ReachingDef::kExternal, 0};
    return {ReachingDef::kAmbiguous, 0};
}

} // namespace

void
Dataflow::solveReaching(const Cfg &cfg,
                        const std::vector<InsnFacts> &facts)
{
    const asmkit::Program &p = cfg.program();
    // Per-block generated definition of each register: the last insn in
    // the block writing it (or "external" when a call/gap-like boundary
    // sits in between — calls end blocks, so within a block defs are
    // plain instruction indices).
    std::vector<std::array<ReachingDef, isa::kNumGprs>> gen(
        cfg.numBlocks());
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
        for (uint32_t i = p.blockBegin(b); i < p.blockEnd(b); ++i) {
            const uint16_t kill = facts[i].kill;
            for (unsigned r = 0; r < isa::kNumGprs; ++r) {
                if ((kill >> r) & 1u)
                    gen[b][r] = {ReachingDef::kUnique, i};
            }
        }
    }

    const ReachingDef external{ReachingDef::kExternal, 0};

    bool changed = true;
    while (changed) {
        changed = false;
        for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
            const CfgBlock &node = cfg.block(b);
            ReachingDef in[isa::kNumGprs];
            if (node.unknown_entry || node.preds.empty()) {
                for (unsigned r = 0; r < isa::kNumGprs; ++r)
                    in[r] = external;
            }
            for (const uint32_t pb : node.preds) {
                for (unsigned r = 0; r < isa::kNumGprs; ++r) {
                    ReachingDef out = ((blocks_[pb].kill >> r) & 1u)
                        ? gen[pb][r]
                        : blocks_[pb].reach_in[r];
                    in[r] = meetDefs(in[r], out);
                }
            }
            for (unsigned r = 0; r < isa::kNumGprs; ++r) {
                if (!(blocks_[b].reach_in[r] == in[r])) {
                    blocks_[b].reach_in[r] = in[r];
                    changed = true;
                }
            }
        }
    }
}

} // namespace prorace::analysis
