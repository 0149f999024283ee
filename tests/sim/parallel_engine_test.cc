/** @file Unit tests for the ParallelExperimentEngine. */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "trace/kernels/kernels.hh"

namespace vpr
{
namespace
{

SimConfig
tiny()
{
    SimConfig c = paperConfig();
    c.skipInsts = 500;
    c.measureInsts = 5000;
    c.core.fetch.wrongPath = WrongPathMode::Stall;
    return c;
}

TEST(ParallelEngine, EmptyGridIsFine)
{
    ParallelExperimentEngine engine(4);
    EXPECT_TRUE(engine.run({}).empty());
}

TEST(ParallelEngine, WorkerCountIsBoundedByCells)
{
    ParallelExperimentEngine engine(8);
    EXPECT_EQ(engine.jobs(), 8u);
    EXPECT_EQ(engine.workersFor(3), 3u);
    EXPECT_EQ(engine.workersFor(100), 8u);
    EXPECT_EQ(engine.workersFor(0), 0u);
}

TEST(ParallelEngine, ZeroMeansHardwareConcurrency)
{
    ParallelExperimentEngine engine(0);
    EXPECT_GE(engine.jobs(), 1u);
}

TEST(ParallelEngine, ResultsKeepCellOrderAcrossJobCounts)
{
    // A grid of unequal-runtime cells: results must land in cell order
    // and be identical for every worker count.
    std::vector<GridCell> cells;
    SimConfig c = tiny();
    for (const char *name : {"compress", "swim", "li", "go"}) {
        c.setScheme(RenameScheme::Conventional);
        cells.push_back({name, c});
        c.setScheme(RenameScheme::VPAllocAtWriteback);
        cells.push_back({name, c});
    }

    std::vector<SimResults> serial = runGrid(cells, 1);
    std::vector<SimResults> parallel = runGrid(cells, 4);
    ASSERT_EQ(serial.size(), cells.size());
    ASSERT_EQ(parallel.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(serial[i].cycles(), parallel[i].cycles())
            << cells[i].benchmark << " cell " << i;
        EXPECT_EQ(serial[i].committed(),
                  parallel[i].committed());
        EXPECT_EQ(serial[i].issued(), parallel[i].issued());
        EXPECT_DOUBLE_EQ(serial[i].ipc(), parallel[i].ipc());
    }
}

TEST(ParallelEngine, RunAllUsesConfigJobs)
{
    SimConfig c = tiny();
    c.skipInsts = 200;
    c.measureInsts = 2000;
    c.jobs = 3;
    auto all = runAll(c);
    EXPECT_EQ(all.size(), benchmarkNames().size());
    for (const auto &name : benchmarkNames()) {
        ASSERT_TRUE(all.count(name)) << name;
        EXPECT_GT(all[name].ipc(), 0.0) << name;
    }
}

TEST(ParallelEngineDeathTest, BadCellFailsOnceBeforeAnyWorkerStarts)
{
    // One cell whose sampling period exceeds its measurement budget,
    // among good ones, on four workers: the grid is checked on the
    // calling thread first, so stderr holds exactly one fatal line (and
    // its source location) naming the cell, not one per worker.
    std::vector<GridCell> cells;
    for (const char *name : {"compress", "swim", "li", "go", "vortex"})
        cells.push_back({name, tiny()});
    cells[2].config.sampling.enable = true;
    cells[2].config.sampling.periodInsts = 2 * cells[2].config.measureInsts;
    EXPECT_EXIT(runGrid(cells, 4), ::testing::ExitedWithCode(1),
                "^fatal: grid cell 2 \\(li\\): sampling: period "
                "\\(10000\\) exceeds the measurement budget \\(5000\\)"
                "[^\n]*\n  @ [^\n]*\n$");
}

} // namespace
} // namespace vpr
