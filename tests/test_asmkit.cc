/**
 * @file
 * Unit tests for the assembler: labels, fixups, globals, basic blocks.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "asmkit/builder.hh"
#include "asmkit/layout.hh"
#include "workload/registry.hh"

namespace prorace::asmkit {
namespace {

using isa::CondCode;
using isa::Op;
using isa::Reg;

TEST(Builder, ForwardAndBackwardLabelsResolve)
{
    ProgramBuilder b;
    b.label("start");
    b.movri(Reg::rax, 0);
    b.label("loop");
    b.addri(Reg::rax, 1);
    b.cmpri(Reg::rax, 10);
    b.jcc(CondCode::kLt, "loop");   // backward
    b.jmp("end");                   // forward
    b.nop();
    b.label("end");
    b.halt();
    Program p = b.build();

    EXPECT_EQ(p.labelAddr("start"), 0u);
    EXPECT_EQ(p.labelAddr("loop"), 1u);
    EXPECT_EQ(p.insnAt(3).target, p.labelAddr("loop"));
    EXPECT_EQ(p.insnAt(4).target, p.labelAddr("end"));
}

TEST(Builder, UnresolvedLabelIsFatal)
{
    ProgramBuilder b;
    b.jmp("nowhere");
    EXPECT_THROW(b.build(), std::runtime_error);
}

TEST(Builder, DuplicateLabelIsFatal)
{
    ProgramBuilder b;
    b.label("x");
    b.nop();
    EXPECT_THROW(b.label("x"), std::runtime_error);
}

TEST(Builder, GlobalsAreAlignedAndDisjoint)
{
    ProgramBuilder b;
    const uint64_t a = b.global("a", 3);
    const uint64_t c = b.global("c", 8);
    const uint64_t d = b.global("d", 100, 64);
    EXPECT_EQ(a % 8, 0u);
    EXPECT_EQ(c % 8, 0u);
    EXPECT_EQ(d % 64, 0u);
    EXPECT_GE(c, a + 3);
    EXPECT_GE(d, c + 8);
    EXPECT_GE(a, kGlobalBase);
    b.halt();
    Program p = b.build();
    EXPECT_EQ(p.symbol("a").addr, a);
    EXPECT_EQ(p.symbol("d").size, 100u);
}

TEST(Builder, GlobalU64StoresInitBytes)
{
    ProgramBuilder b;
    b.globalU64("v", 0x1122334455667788ull);
    b.halt();
    Program p = b.build();
    const auto &init = p.symbol("v").init;
    ASSERT_EQ(init.size(), 8u);
    EXPECT_EQ(init[0], 0x88);
    EXPECT_EQ(init[7], 0x11);
}

TEST(Builder, SymRefIsRipRelative)
{
    ProgramBuilder b;
    const uint64_t addr = b.global("flag", 8);
    auto mem = b.symRef("flag", 4);
    EXPECT_TRUE(mem.rip_relative);
    EXPECT_EQ(static_cast<uint64_t>(mem.disp), addr + 4);
}

TEST(Builder, FunctionsRecordCodeRanges)
{
    ProgramBuilder b;
    b.beginFunction("f");
    b.nop();
    b.ret();
    b.beginFunction("g");
    b.movri(Reg::rax, 1);
    b.halt();
    Program p = b.build();
    ASSERT_EQ(p.functions().size(), 2u);
    EXPECT_EQ(p.functions()[0].name, "f");
    EXPECT_EQ(p.functions()[0].begin, 0u);
    EXPECT_EQ(p.functions()[0].end, 2u);
    EXPECT_EQ(p.functions()[1].begin, 2u);
    EXPECT_EQ(p.functions()[1].end, 4u);
}

TEST(Program, BasicBlocksSplitAtBranchesAndTargets)
{
    ProgramBuilder b;
    b.movri(Reg::rax, 0);             // 0  block A
    b.label("loop");                  //    (target -> leader)
    b.addri(Reg::rax, 1);             // 1  block B
    b.cmpri(Reg::rax, 4);             // 2
    b.jcc(CondCode::kLt, "loop");     // 3  (ends block B)
    b.nop();                          // 4  block C
    b.halt();                         // 5
    Program p = b.build();

    EXPECT_EQ(p.blockOf(0), p.blockOf(0));
    EXPECT_NE(p.blockOf(0), p.blockOf(1));
    EXPECT_EQ(p.blockOf(1), p.blockOf(3));
    EXPECT_NE(p.blockOf(3), p.blockOf(4));
    const uint32_t blk = p.blockOf(2);
    EXPECT_EQ(p.blockBegin(blk), 1u);
    EXPECT_EQ(p.blockEnd(blk), 4u);
}

TEST(Program, BlockTableMatchesLeaderSearch)
{
    // blockOf() reads a per-instruction table; it must agree with the
    // definition: the last leader at or below the instruction.
    for (const std::string &name : workload::allWorkloadNames()) {
        const auto w = workload::findWorkload(name, 0.05);
        ASSERT_TRUE(w.has_value()) << name;
        const Program &p = *w->program;
        std::vector<uint32_t> leaders;
        for (uint32_t blk = 0; blk < p.numBlocks(); ++blk)
            leaders.push_back(p.blockBegin(blk));
        ASSERT_TRUE(std::is_sorted(leaders.begin(), leaders.end()))
            << name;
        for (uint32_t i = 0; i < p.size(); ++i) {
            const auto it =
                std::upper_bound(leaders.begin(), leaders.end(), i);
            const auto expected =
                static_cast<uint32_t>(it - leaders.begin()) - 1;
            ASSERT_EQ(p.blockOf(i), expected) << name << " insn #" << i;
            ASSERT_GE(i, p.blockBegin(expected));
            ASSERT_LT(i, p.blockEnd(expected));
        }
    }
}

TEST(Program, SyncOpsEndBasicBlocks)
{
    ProgramBuilder b;
    b.global("m", 8);
    b.lock(b.symRef("m"));            // 0
    b.addri(Reg::rax, 1);             // 1
    b.unlock(b.symRef("m"));          // 2
    b.halt();                         // 3
    Program p = b.build();
    EXPECT_NE(p.blockOf(0), p.blockOf(1));
    EXPECT_NE(p.blockOf(2), p.blockOf(3));
}

TEST(Program, OutOfRangeBranchIsFatal)
{
    std::vector<isa::Insn> code;
    code.push_back({.op = Op::kJmp, .target = 99});
    EXPECT_THROW(Program(std::move(code), {}, {}, {}),
                 std::runtime_error);
}

TEST(Program, InvalidInsnIsFatal)
{
    std::vector<isa::Insn> code;
    code.push_back({.op = Op::kLoad}); // missing dst
    EXPECT_THROW(Program(std::move(code), {}, {}, {}),
                 std::runtime_error);
}

TEST(Program, SymbolCoveringFindsOwner)
{
    ProgramBuilder b;
    const uint64_t a = b.global("arr", 64);
    b.halt();
    Program p = b.build();
    EXPECT_EQ(p.symbolCovering(a + 10).value_or(""), "arr");
    EXPECT_FALSE(p.symbolCovering(a + 64).has_value());
}

TEST(Program, ListingContainsLabels)
{
    ProgramBuilder b;
    b.label("main");
    b.movri(Reg::rax, 7);
    b.halt();
    Program p = b.build();
    const std::string listing = p.listing();
    EXPECT_NE(listing.find("main:"), std::string::npos);
    EXPECT_NE(listing.find("mov $7"), std::string::npos);
}

TEST(Layout, StackAddressesDoNotOverlapHeapOrGlobals)
{
    EXPECT_TRUE(isStackAddress(stackTopFor(0) - 8));
    EXPECT_TRUE(isStackAddress(stackTopFor(37) - 8));
    EXPECT_FALSE(isStackAddress(kHeapBase));
    EXPECT_TRUE(isHeapAddress(kHeapBase));
    EXPECT_FALSE(isHeapAddress(kGlobalBase));
    EXPECT_TRUE(isGlobalAddress(kGlobalBase));
    EXPECT_GT(stackTopFor(0) - kStackSize, stackTopFor(1));
}

} // namespace
} // namespace prorace::asmkit
