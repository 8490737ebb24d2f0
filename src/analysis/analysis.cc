#include "analysis/analysis.hh"

namespace prorace::analysis {

namespace {

std::vector<InsnFacts>
buildFacts(const asmkit::Program &program)
{
    std::vector<InsnFacts> facts;
    facts.reserve(program.size());
    for (const isa::Insn &insn : program.code())
        facts.push_back(classifyInsn(insn));
    return facts;
}

} // namespace

ProgramAnalysis::ProgramAnalysis(const asmkit::Program &program,
                                 bool enable_pointsto)
    : program_(&program), facts_(buildFacts(program)), cfg_(program),
      dataflow_(cfg_, facts_), escape_(cfg_, facts_)
{
    if (enable_pointsto) {
        pointsto_ =
            std::make_unique<PointsTo>(cfg_, dataflow_, escape_, facts_);
    }
}

StaticSummary
ProgramAnalysis::summary() const
{
    StaticSummary s;
    s.insns = program_->size();
    s.blocks = cfg_.numBlocks();
    s.edges = cfg_.numEdges();
    s.reachable_blocks = cfg_.numReachable();
    s.address_taken = static_cast<uint32_t>(cfg_.addressTaken().size());
    s.mem_sites = escape_.numSites();
    s.thread_local_sites = escape_.numThreadLocal();
    s.rsp_integrity = escape_.rspIntegrity();
    s.no_stack_escape = escape_.noStackEscape();
    if (pointsto_) {
        s.pointsto_enabled = true;
        s.pointsto = pointsto_->stats();
    }
    return s;
}

} // namespace prorace::analysis
