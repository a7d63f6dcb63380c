/**
 * @file
 * Seeded inputs for the suite workloads: the five main-suite kernels
 * (bfs, cc, prd, radii on two graphs; spmm on one matrix), each case
 * bound the way the kernel registry binds it and checked against the
 * wl::*Golden reference computed once at set-up.
 */

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workloads/workload.h"

namespace perfbench {

/**
 * Fault injection for the output-correctness gate: the self-check arms
 * `corruptNext` so the next check flips one output element before
 * comparing, proving that a wrong output fails the run.
 */
struct Gate
{
    std::atomic<bool> corruptNext{false};

    /** True, once, after the self-check armed the gate. */
    bool takeCorruption() { return corruptNext.exchange(false); }
};


/** Input sizes for one suite workload. */
struct SuiteScale
{
    int32_t rmatN;       ///< R-MAT vertices (rounded up to a power of 2)
    int64_t rmatEdges;   ///< R-MAT edge draws
    int32_t roadN;       ///< road grid vertices (a square side^2)
    double roadKeep;     ///< road edge keep probability
    int32_t matN;        ///< spmm matrix dimension
    double matNnzPerRow;
};

/** The suite's kernels, one Workload each, whose cases are seeded. */
struct Suite
{
    /** bfs, cc, prd, radii (cases: rmat, road), spmm (case: rand). */
    std::vector<phloem::wl::Workload> workloads;
    /** FNV-1a over every generated input array, in a fixed order. */
    uint64_t inputDigest = 0;
};

/**
 * Generate the suite's inputs from `seed` with the public generators
 * (makeRMat, makeRoadNetwork, makeRandomMatrix) and precompute each
 * case's golden output. Every check reports to `gate`, which must
 * outlive the returned workloads.
 */
Suite makeSuite(uint64_t seed, const SuiteScale& scale,
                std::shared_ptr<Gate> gate);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
