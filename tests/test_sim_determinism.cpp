/**
 * @file
 * Golden determinism of the dataflow simulator over the benchsuite
 * kernels: two fresh simulators must report identical cycle counts,
 * return values and firing totals at every optimization level, and
 * the return value must match the golden interpreter.
 *
 * The simulator's event queue is a ready worklist plus a radix heap
 * (see docs/SIMULATOR.md); this suite exists to catch any ordering
 * divergence between those paths, which would silently change
 * reported cycle counts (the quantity every figure in the paper's
 * evaluation is built from).
 */
#include <gtest/gtest.h>

#include "benchsuite/kernels.h"
#include "test_util.h"

namespace cash {
namespace {

struct RunSummary
{
    uint32_t returnValue = 0;
    uint64_t cycles = 0;
    int64_t firings = 0;
    int64_t events = 0;
};

RunSummary
summarize(const SimResult& r)
{
    return {r.returnValue, r.cycles, r.stats.get("sim.firings"),
            r.stats.get("sim.events")};
}

class SimDeterminism : public testing::TestWithParam<std::string>
{
};

TEST_P(SimDeterminism, GoldenCyclesAcrossOptLevels)
{
    const Kernel& k = kernelByName(GetParam());
    const uint32_t expect =
        testutil::interpret(k.source, k.entry, k.args);

    for (OptLevel level :
         {OptLevel::None, OptLevel::Medium, OptLevel::Full}) {
        SCOPED_TRACE(std::string("level ") + optLevelName(level));
        CompileResult r =
            compileSource(k.source, CompileOptions().opt(level));

        // Two simulators built from the same graphs must agree on
        // everything observable, run to run.
        DataflowSimulator simA(r.graphPtrs(), *r.layout,
                               MemConfig::perfectMemory());
        DataflowSimulator simB(r.graphPtrs(), *r.layout,
                               MemConfig::perfectMemory());
        SimResult resA = simA.run(k.entry, k.args);
        SimResult resB = simB.run(k.entry, k.args);
        RunSummary a = summarize(resA);
        RunSummary b = summarize(resB);

        EXPECT_EQ(a.returnValue, expect);
        EXPECT_EQ(a.returnValue, b.returnValue);
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.firings, b.firings);
        EXPECT_EQ(a.events, b.events);

        // A re-run on the same simulator (memory reset) replays the
        // exact same schedule.
        simA.reset();
        RunSummary c = summarize(simA.run(k.entry, k.args));
        EXPECT_EQ(a.cycles, c.cycles);
        EXPECT_EQ(a.returnValue, c.returnValue);
        EXPECT_EQ(a.firings, c.firings);

        // Queue counters are wired into the stat set, and every
        // delivery is accounted to exactly one of the two paths.
        // Deliveries can exceed processed events: anything still
        // queued when the root returns is never dequeued.
        EXPECT_TRUE(resA.stats.has("sim.queue.bucket_ops"));
        EXPECT_TRUE(resA.stats.has("sim.queue.heap_ops"));
        EXPECT_TRUE(resA.stats.has("sim.act.recycled"));
        EXPECT_GE(resA.stats.get("sim.queue.bucket_ops") +
                      resA.stats.get("sim.queue.heap_ops"),
                  a.events);
        EXPECT_GE(resA.stats.get("sim.act.spawned"), 1);
        EXPECT_GE(resA.stats.get("sim.act.peakLive"), 1);
    }

    // Realistic memory adds LSQ/cache/TLB timing; determinism must
    // hold there too (same hierarchy state evolution every run).
    {
        SCOPED_TRACE("realistic memory");
        CompileResult r = compileSource(
            k.source, CompileOptions().opt(OptLevel::Full));
        DataflowSimulator simA(r.graphPtrs(), *r.layout,
                               MemConfig::realistic(2));
        DataflowSimulator simB(r.graphPtrs(), *r.layout,
                               MemConfig::realistic(2));
        RunSummary a = summarize(simA.run(k.entry, k.args));
        RunSummary b = summarize(simB.run(k.entry, k.args));
        EXPECT_EQ(a.returnValue, expect);
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.firings, b.firings);
        EXPECT_EQ(a.events, b.events);
    }
}

std::vector<std::string>
kernelNames()
{
    std::vector<std::string> names;
    for (const Kernel& k : kernelSuite())
        names.push_back(k.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(Benchsuite, SimDeterminism,
                         testing::ValuesIn(kernelNames()),
                         [](const auto& info) { return info.param; });

} // namespace
} // namespace cash
