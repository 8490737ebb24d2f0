#include "analysis/escape.hh"

#include <cstdlib>

#include "asmkit/layout.hh"

namespace prorace::analysis {

using isa::AluOp;
using isa::Insn;
using isa::Op;
using isa::Reg;

namespace {

constexpr uint16_t kRspBit = 1u << isa::gprIndex(Reg::rsp);

bool
boundedDisp(int64_t disp)
{
    return disp >= -kMaxStackDisp && disp <= kMaxStackDisp;
}

/** Immediate that looks like an absolute stack address (forged pointer). */
bool
stackImmediate(int64_t imm)
{
    return asmkit::isStackAddress(static_cast<uint64_t>(imm));
}

/**
 * Must-stack transfer of one instruction: which registers definitely
 * hold a bounded own-stack pointer after it, given the set before it.
 * rsp is invariant under integrity and always re-enters the set.
 */
uint16_t
mustStackTransfer(uint16_t s, const Insn &insn, uint16_t kill)
{
    bool dst_stack = false;
    switch (insn.op) {
      case Op::kMovRR:
        dst_stack = isa::isGpr(insn.src) && ((s >> gprIndex(insn.src)) & 1u);
        break;
      case Op::kLea:
        dst_stack = !insn.mem.rip_relative && isa::isGpr(insn.mem.base) &&
            ((s >> gprIndex(insn.mem.base)) & 1u) &&
            insn.mem.index == Reg::none && boundedDisp(insn.mem.disp);
        break;
      case Op::kAluRI:
        dst_stack = (insn.alu == AluOp::kAdd || insn.alu == AluOp::kSub) &&
            isa::isGpr(insn.dst) && ((s >> gprIndex(insn.dst)) & 1u) &&
            boundedDisp(insn.imm);
        break;
      default:
        break;
    }
    s &= static_cast<uint16_t>(~kill);
    if (dst_stack && isa::isGpr(insn.dst))
        s |= regBit(insn.dst);
    return s | kRspBit;
}

/**
 * Structural site shape, before the program-wide invariants are known:
 * does this instruction's data access go through the stack pointer?
 */
SiteClass
structuralSite(const Insn &insn, uint16_t must_stack)
{
    switch (insn.op) {
      case Op::kPush:
      case Op::kPop:
      case Op::kCall:
      case Op::kCallInd:
      case Op::kRet:
        return SiteClass::kStackImplicit;
      case Op::kLoad:
      case Op::kStore:
      case Op::kStoreI:
      case Op::kAtomicRmw:
      case Op::kCas:
      case Op::kLoadAcq:
      case Op::kStoreRel:
      case Op::kAtomicRmwAcqRel:
        if (!insn.mem.rip_relative && isa::isGpr(insn.mem.base) &&
            ((must_stack >> gprIndex(insn.mem.base)) & 1u) &&
            insn.mem.index == Reg::none && boundedDisp(insn.mem.disp)) {
            return SiteClass::kStackDirect;
        }
        return SiteClass::kMayShared;
      default:
        return SiteClass::kNoAccess;
    }
}

} // namespace

const char *
siteClassName(SiteClass c)
{
    switch (c) {
      case SiteClass::kNoAccess:      return "no-access";
      case SiteClass::kStackImplicit: return "stack-implicit";
      case SiteClass::kStackDirect:   return "stack-direct";
      case SiteClass::kMayShared:     return "may-shared";
    }
    return "?";
}

EscapeAnalysis::EscapeAnalysis(const Cfg &cfg,
                               const std::vector<InsnFacts> &facts)
    : must_stack_in_(cfg.numBlocks(), 0),
      sites_(cfg.program().size(), SiteClass::kNoAccess)
{
    const asmkit::Program &p = cfg.program();
    checkRspIntegrity(p);
    solveMustStack(cfg);
    classifySites(cfg, facts);
    solveMayStack(p);

    if (!sound()) {
        // Without the invariants no stack access is provably private;
        // demote every classification so threadLocal() never lies.
        num_thread_local_ = 0;
        for (SiteClass &c : sites_) {
            if (c == SiteClass::kStackImplicit ||
                c == SiteClass::kStackDirect) {
                c = SiteClass::kMayShared;
            }
        }
    } else {
        for (const SiteClass c : sites_) {
            if (c == SiteClass::kStackImplicit ||
                c == SiteClass::kStackDirect) {
                ++num_thread_local_;
            }
        }
    }
}

void
EscapeAnalysis::checkRspIntegrity(const asmkit::Program &p)
{
    for (const Insn &insn : p.code()) {
        if (!(regWriteMask(insn) & kRspBit))
            continue;
        switch (insn.op) {
          case Op::kPush:
          case Op::kCall:
          case Op::kCallInd:
          case Op::kRet:
            break; // implicit -8/+8
          case Op::kPop:
            // pop rsp loads rsp from memory: not stack-preserving.
            if (insn.dst == Reg::rsp)
                rsp_integrity_ = false;
            break;
          case Op::kAluRI:
            // Bounded frame arithmetic keeps rsp inside the region.
            if (!((insn.alu == AluOp::kAdd || insn.alu == AluOp::kSub) &&
                  boundedDisp(insn.imm))) {
                rsp_integrity_ = false;
            }
            break;
          default:
            rsp_integrity_ = false;
            break;
        }
    }
}

void
EscapeAnalysis::solveMustStack(const Cfg &cfg)
{
    const asmkit::Program &p = cfg.program();
    const uint16_t kTop = 0xffff;
    const uint16_t kBoundary = kRspBit; // all any entry guarantees
    std::vector<uint16_t> in(cfg.numBlocks(), kTop);
    std::vector<uint16_t> out(cfg.numBlocks(), kTop);

    bool changed = true;
    while (changed) {
        changed = false;
        for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
            const CfgBlock &node = cfg.block(b);
            // Meet = intersection over predecessors; any entry the edge
            // list cannot enumerate contributes the boundary value.
            uint16_t s = kTop;
            if (node.unknown_entry || node.preds.empty())
                s = kBoundary;
            for (const uint32_t pb : node.preds)
                s &= out[pb];
            s |= kRspBit;
            if (s != in[b]) {
                in[b] = s;
                changed = true;
            }
            uint16_t cur = s;
            for (uint32_t i = p.blockBegin(b); i < p.blockEnd(b); ++i)
                cur = mustStackTransfer(cur, p.insnAt(i),
                                        regWriteMask(p.insnAt(i)));
            if (cur != out[b]) {
                out[b] = cur;
                changed = true;
            }
        }
    }
    must_stack_in_ = std::move(in);
}

void
EscapeAnalysis::classifySites(const Cfg &cfg,
                              const std::vector<InsnFacts> &facts)
{
    const asmkit::Program &p = cfg.program();
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
        uint16_t cur = must_stack_in_[b];
        for (uint32_t i = p.blockBegin(b); i < p.blockEnd(b); ++i) {
            const Insn &insn = p.insnAt(i);
            sites_[i] = structuralSite(insn, cur);
            if (facts[i].mem_ops > 0)
                ++num_sites_;
            cur = mustStackTransfer(cur, insn, facts[i].kill);
        }
    }
}

void
EscapeAnalysis::solveMayStack(const asmkit::Program &p)
{
    // Flow-insensitive taint: registers that may ever hold a
    // stack-derived pointer, anywhere in the program. `mem_taint`
    // records that own-stack memory may hold such a pointer (spills),
    // which makes own-stack loads tainted too. Everything is monotone,
    // so the fixpoint is a simple iterate-to-stable loop.
    uint16_t s = kRspBit;
    bool mem_taint = false;
    auto tainted = [&](Reg r) {
        return isa::isGpr(r) && ((s >> gprIndex(r)) & 1u);
    };
    auto stack_site = [&](uint32_t i) {
        return sites_[i] == SiteClass::kStackImplicit ||
            sites_[i] == SiteClass::kStackDirect;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        const uint16_t before = s;
        const bool mem_before = mem_taint;
        for (uint32_t i = 0; i < p.size(); ++i) {
            const Insn &insn = p.insnAt(i);
            switch (insn.op) {
              case Op::kMovRI:
                // A forged absolute stack address defeats the disjoint-
                // stacks argument as thoroughly as a real escape.
                if (stackImmediate(insn.imm))
                    no_stack_escape_ = false;
                break;
              case Op::kStoreI:
                if (stackImmediate(insn.imm))
                    no_stack_escape_ = false;
                break;
              case Op::kMovRR:
                if (tainted(insn.src))
                    s |= regBit(insn.dst);
                break;
              case Op::kLea:
                if (!insn.mem.rip_relative &&
                    (tainted(insn.mem.base) || tainted(insn.mem.index))) {
                    s |= regBit(insn.dst);
                }
                if (insn.mem.rip_relative && stackImmediate(insn.mem.disp))
                    no_stack_escape_ = false;
                break;
              case Op::kAluRR:
                if (tainted(insn.src))
                    s |= regBit(insn.dst);
                break;
              case Op::kPush:
                if (tainted(insn.src))
                    mem_taint = true; // spilled into own stack
                break;
              case Op::kPop:
                if (mem_taint)
                    s |= regBit(insn.dst);
                break;
              case Op::kLoad:
              case Op::kLoadAcq:
                // Own-stack loads may read a spilled stack pointer;
                // other memory holds none unless an escape already
                // voided the analysis.
                if (mem_taint && stack_site(i))
                    s |= regBit(insn.dst);
                break;
              case Op::kStore:
              case Op::kStoreRel:
                if (tainted(insn.src)) {
                    if (stack_site(i))
                        mem_taint = true;
                    else
                        no_stack_escape_ = false;
                }
                break;
              case Op::kAtomicRmw:
              case Op::kCas:
              case Op::kAtomicRmwAcqRel:
                if (tainted(insn.src)) {
                    if (stack_site(i))
                        mem_taint = true;
                    else
                        no_stack_escape_ = false;
                }
                if (mem_taint && stack_site(i))
                    s |= regBit(insn.dst);
                break;
              case Op::kSpawn:
                // The argument register is handed to the child thread.
                if (tainted(insn.src))
                    no_stack_escape_ = false;
                break;
              default:
                break;
            }
        }
        changed = s != before || mem_taint != mem_before;
    }
    may_stack_ = s;
}

} // namespace prorace::analysis
