/**
 * @file
 * Native-runtime tests: SPSC ring semantics under one and two threads,
 * handcrafted pipelines with in-band control values, differential
 * native-vs-simulator execution, replicated (multi-producer) streams,
 * and the deadlock watchdog.
 */

#include "tests/test_util.h"

#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "base/rng.h"
#include "ir/builder.h"
#include "runtime/queue.h"
#include "runtime/runtime.h"
#include "runtime/sched.h"
#include "runtime/trace.h"
#include "workloads/graph.h"
#include "workloads/kernels.h"
#include "workloads/workload.h"

namespace phloem {
namespace {

// ---------------------------------------------------------------------
// SPSC ring.
// ---------------------------------------------------------------------

TEST(SpscQueue, FifoOrder)
{
    rt::SpscQueue q(16);
    for (int64_t i = 0; i < 10; ++i)
        ASSERT_TRUE(q.tryPush(ir::Value::fromInt(i)));
    ir::Value v;
    for (int64_t i = 0; i < 10; ++i) {
        ASSERT_TRUE(q.tryPop(v));
        EXPECT_EQ(v.asInt(), i);
    }
    EXPECT_FALSE(q.tryPop(v));
}

TEST(SpscQueue, CapacityIsExact)
{
    rt::SpscQueue q(4);
    ir::Value v;
    EXPECT_FALSE(q.tryPop(v)) << "fresh ring must be empty";
    for (int64_t i = 0; i < 4; ++i)
        ASSERT_TRUE(q.tryPush(ir::Value::fromInt(i)));
    EXPECT_FALSE(q.tryPush(ir::Value::fromInt(99)))
        << "depth-4 ring must reject a fifth element";
    ASSERT_TRUE(q.tryPop(v));
    EXPECT_EQ(v.asInt(), 0);
    EXPECT_TRUE(q.tryPush(ir::Value::fromInt(4)))
        << "space freed by a pop must be reusable";
    EXPECT_EQ(q.maxOccupancy(), 4u);
}

TEST(SpscQueue, WraparoundPreservesValues)
{
    rt::SpscQueue q(3);
    ir::Value v;
    for (int64_t i = 0; i < 1000; ++i) {
        ASSERT_TRUE(q.tryPush(ir::Value::fromInt(i)));
        ASSERT_TRUE(q.tryPush(ir::Value::fromInt(i + 1000000)));
        ASSERT_TRUE(q.tryPop(v));
        ASSERT_EQ(v.asInt(), i);
        ASSERT_TRUE(q.tryPop(v));
        ASSERT_EQ(v.asInt(), i + 1000000);
    }
    EXPECT_FALSE(q.tryPop(v));
    EXPECT_EQ(q.enqCount(), 2000u);
    EXPECT_EQ(q.deqCount(), 2000u);
}

TEST(SpscQueue, PeekDoesNotConsume)
{
    rt::SpscQueue q(4);
    ASSERT_TRUE(q.tryPush(ir::Value::fromInt(7)));
    ir::Value v;
    ASSERT_TRUE(q.tryPeek(v));
    EXPECT_EQ(v.asInt(), 7);
    ASSERT_TRUE(q.tryPeek(v));
    EXPECT_EQ(v.asInt(), 7);
    ASSERT_TRUE(q.tryPop(v));
    EXPECT_EQ(v.asInt(), 7);
    EXPECT_FALSE(q.tryPeek(v));
}

TEST(SpscQueue, PushBatchRespectsCapacityAndOrder)
{
    rt::SpscQueue q(8);
    auto gen = [](size_t k) {
        return ir::Value::fromInt(100 + static_cast<int64_t>(k));
    };
    EXPECT_EQ(q.pushBatch(20, gen), 8u) << "batch clips to free space";
    EXPECT_EQ(q.pushBatch(4, gen), 0u) << "full ring takes nothing";
    ir::Value v;
    for (int64_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(q.tryPop(v));
        EXPECT_EQ(v.asInt(), 100 + i);
    }
    EXPECT_EQ(q.pushBatch(10, gen), 3u);
    for (int64_t i = 3; i < 8; ++i) {
        ASSERT_TRUE(q.tryPop(v));
        EXPECT_EQ(v.asInt(), 100 + i);
    }
    for (int64_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(q.tryPop(v));
        EXPECT_EQ(v.asInt(), 100 + i);
    }
    EXPECT_FALSE(q.tryPop(v));
}

TEST(SpscQueue, PushBatchWrapsAroundRingSeam)
{
    // Walk the write index through every alignment of the ring so some
    // batch always straddles the physical end of the buffer, then check
    // values and order survive the seam.
    rt::SpscQueue q(5);
    ir::Value v;
    int64_t produced = 0;
    int64_t consumed = 0;
    for (int round = 0; round < 50; ++round) {
        size_t n = q.pushBatch(4, [&](size_t k) {
            return ir::Value::fromInt(produced + static_cast<int64_t>(k));
        });
        ASSERT_GE(n, 1u);
        produced += static_cast<int64_t>(n);
        // Drain all but one element so the indices creep forward by a
        // non-divisor step each round.
        while (consumed + 1 < produced) {
            ASSERT_TRUE(q.tryPop(v));
            ASSERT_EQ(v.asInt(), consumed);
            ++consumed;
        }
    }
    while (consumed < produced) {
        ASSERT_TRUE(q.tryPop(v));
        ASSERT_EQ(v.asInt(), consumed);
        ++consumed;
    }
    EXPECT_FALSE(q.tryPop(v));
    EXPECT_EQ(q.enqCount(), static_cast<uint64_t>(produced));
    EXPECT_EQ(q.deqCount(), static_cast<uint64_t>(produced));
}

TEST(SpscQueue, PopBatchClipsToAvailableAndPreservesOrder)
{
    rt::SpscQueue q(8);
    ir::Value out[16];
    EXPECT_EQ(q.popBatch(4, out), 0u) << "empty ring yields nothing";
    for (int64_t i = 0; i < 6; ++i)
        ASSERT_TRUE(q.tryPush(ir::Value::fromInt(100 + i)));
    EXPECT_EQ(q.popBatch(16, out), 6u) << "batch clips to occupancy";
    for (int64_t i = 0; i < 6; ++i)
        EXPECT_EQ(out[i].asInt(), 100 + i);
    EXPECT_EQ(q.popBatch(16, out), 0u) << "drained ring yields nothing";

    // Partial drains: take less than is available, twice.
    for (int64_t i = 0; i < 8; ++i)
        ASSERT_TRUE(q.tryPush(ir::Value::fromInt(200 + i)));
    EXPECT_EQ(q.popBatch(3, out), 3u);
    for (int64_t i = 0; i < 3; ++i)
        EXPECT_EQ(out[i].asInt(), 200 + i);
    EXPECT_EQ(q.popBatch(3, out), 3u);
    for (int64_t i = 0; i < 3; ++i)
        EXPECT_EQ(out[i].asInt(), 203 + i);
    EXPECT_EQ(q.popBatch(8, out), 2u) << "tail of the run";
    EXPECT_EQ(out[0].asInt(), 206);
    EXPECT_EQ(out[1].asInt(), 207);
}

TEST(SpscQueue, PopBatchWrapsAroundRingSeam)
{
    // Mirror of PushBatchWrapsAroundRingSeam: creep the read index
    // through every alignment of the physical buffer so some drain
    // always straddles the seam.
    rt::SpscQueue q(5);
    ir::Value out[4];
    int64_t produced = 0;
    int64_t consumed = 0;
    for (int round = 0; round < 50; ++round) {
        while (q.tryPush(ir::Value::fromInt(produced)))
            ++produced;
        size_t n = q.popBatch(4, out);
        ASSERT_GE(n, 1u);
        for (size_t k = 0; k < n; ++k)
            ASSERT_EQ(out[k].asInt(), consumed + static_cast<int64_t>(k));
        consumed += static_cast<int64_t>(n);
    }
    while (consumed < produced) {
        size_t n = q.popBatch(4, out);
        ASSERT_GE(n, 1u);
        for (size_t k = 0; k < n; ++k)
            ASSERT_EQ(out[k].asInt(), consumed + static_cast<int64_t>(k));
        consumed += static_cast<int64_t>(n);
    }
    EXPECT_EQ(q.enqCount(), static_cast<uint64_t>(produced));
    EXPECT_EQ(q.deqCount(), static_cast<uint64_t>(produced));
}

TEST(SpscQueue, PopBatchInterleavesWithSingleOps)
{
    // Batched and single-element operations on the same ring must see
    // one FIFO: push singles, drain a batch, pop singles, drain again.
    rt::SpscQueue q(8);
    ir::Value v;
    ir::Value out[8];
    int64_t next_in = 0;
    int64_t next_out = 0;
    for (int round = 0; round < 20; ++round) {
        ASSERT_TRUE(q.tryPush(ir::Value::fromInt(next_in++)));
        ASSERT_TRUE(q.tryPush(ir::Value::fromInt(next_in++)));
        ASSERT_EQ(q.pushBatch(2, [&](size_t k) {
                      return ir::Value::fromInt(next_in +
                                                static_cast<int64_t>(k));
                  }),
                  2u);
        next_in += 2;
        size_t n = q.popBatch(3, out);
        ASSERT_EQ(n, 3u);
        for (size_t k = 0; k < n; ++k)
            ASSERT_EQ(out[k].asInt(), next_out + static_cast<int64_t>(k));
        next_out += 3;
        ASSERT_TRUE(q.tryPop(v));
        ASSERT_EQ(v.asInt(), next_out++);
    }
    EXPECT_EQ(next_in, next_out);
    EXPECT_FALSE(q.tryPop(v));
    EXPECT_EQ(q.enqCount(), static_cast<uint64_t>(next_in));
    EXPECT_EQ(q.deqCount(), static_cast<uint64_t>(next_in));
}

TEST(SpscQueue, BatchStatsAccounting)
{
    rt::SpscQueue q(200);
    ir::Value out[200];
    auto gen = [](size_t k) {
        return ir::Value::fromInt(static_cast<int64_t>(k));
    };
    // One push batch of 1 (bucket 0), one of 6 (bucket 2: 4-7), one of
    // 150 (bucket 7: >= 128).
    ASSERT_EQ(q.pushBatch(1, gen), 1u);
    ASSERT_EQ(q.pushBatch(6, gen), 6u);
    ASSERT_EQ(q.pushBatch(150, gen), 150u);
    EXPECT_EQ(q.pushBatches(), 3u);
    EXPECT_EQ(q.pushBatchElems(), 157u);
    EXPECT_EQ(q.pushHist(0), 1u);
    EXPECT_EQ(q.pushHist(2), 1u);
    EXPECT_EQ(q.pushHist(7), 1u);

    // Drains of 100 (bucket 6: 64-127), 50 (bucket 5), 7 (bucket 2).
    ASSERT_EQ(q.popBatch(100, out), 100u);
    ASSERT_EQ(q.popBatch(50, out), 50u);
    ASSERT_EQ(q.popBatch(100, out), 7u);
    EXPECT_EQ(q.popBatches(), 3u);
    EXPECT_EQ(q.popBatchElems(), 157u);
    EXPECT_EQ(q.popHist(6), 1u);
    EXPECT_EQ(q.popHist(5), 1u);
    EXPECT_EQ(q.popHist(2), 1u);
    EXPECT_EQ(q.enqCount(), 157u);
    EXPECT_EQ(q.deqCount(), 157u);
    // Single-element ops do not touch batch counters.
    ASSERT_TRUE(q.tryPush(ir::Value::fromInt(1)));
    ir::Value v;
    ASSERT_TRUE(q.tryPop(v));
    EXPECT_EQ(q.pushBatches(), 3u);
    EXPECT_EQ(q.popBatches(), 3u);
}

TEST(SpscQueue, MultiProducerCountsEveryElementOnce)
{
    // An enq_dist target ring has one producer per replica. Under
    // contention every pushed value must arrive exactly once and the
    // producer-side counters must not lose increments.
    rt::SpscQueue q(32);
    q.setMultiProducer();
    constexpr int kProducers = 4;
    constexpr int64_t kPerProducer = 20'000;

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&q, p] {
            int spins = 0;
            for (int64_t i = 0; i < kPerProducer; ++i) {
                ir::Value v =
                    ir::Value::fromInt(p * kPerProducer + i);
                while (!q.tryPush(v)) {
                    if (++spins >= 64) {
                        std::this_thread::yield();
                        spins = 0;
                    } else {
                        rt::cpuRelax();
                    }
                }
            }
        });
    }

    constexpr int64_t kTotal = kProducers * kPerProducer;
    std::vector<int> seen(static_cast<size_t>(kTotal), 0);
    std::vector<int64_t> last(kProducers, -1);
    ir::Value v;
    int spins = 0;
    for (int64_t i = 0; i < kTotal; ++i) {
        while (!q.tryPop(v)) {
            if (++spins >= 64) {
                std::this_thread::yield();
                spins = 0;
            } else {
                rt::cpuRelax();
            }
        }
        int64_t x = v.asInt();
        ASSERT_GE(x, 0);
        ASSERT_LT(x, kTotal);
        seen[static_cast<size_t>(x)]++;
        // Per-producer order must still be FIFO.
        int p = static_cast<int>(x / kPerProducer);
        ASSERT_GT(x % kPerProducer,
                  last[p] < 0 ? -1 : last[p] % kPerProducer);
        last[p] = x;
    }
    for (auto& t : producers)
        t.join();

    for (int64_t i = 0; i < kTotal; ++i)
        ASSERT_EQ(seen[static_cast<size_t>(i)], 1)
            << "value " << i << " delivered " << seen[i] << " times";
    EXPECT_EQ(q.enqCount(), static_cast<uint64_t>(kTotal));
    EXPECT_EQ(q.deqCount(), static_cast<uint64_t>(kTotal));
    EXPECT_FALSE(q.tryPop(v));
    EXPECT_LE(q.maxOccupancy(), 32u);
}

TEST(SpscQueue, SizeApproxTracksOccupancy)
{
    // From a quiesced ring, sizeApprox is exact; drive it across a full
    // fill/drain cycle including the wraparound region.
    rt::SpscQueue q(4);
    ir::Value v;
    EXPECT_EQ(q.sizeApprox(), 0u);
    for (int64_t i = 0; i < 4; ++i) {
        ASSERT_TRUE(q.tryPush(ir::Value::fromInt(i)));
        EXPECT_EQ(q.sizeApprox(), static_cast<size_t>(i) + 1);
    }
    ASSERT_TRUE(q.tryPop(v));
    EXPECT_EQ(q.sizeApprox(), 3u);
    ASSERT_TRUE(q.tryPush(ir::Value::fromInt(4)));  // wraps
    EXPECT_EQ(q.sizeApprox(), 4u);
    while (q.tryPop(v))
        EXPECT_LT(q.sizeApprox(), 4u);
    EXPECT_EQ(q.sizeApprox(), 0u);
}

TEST(SpscQueue, TwoThreadStress)
{
    rt::SpscQueue q(64);
    constexpr int64_t kN = 500'000;
    // Spin briefly, then yield: on a single-core host a pure spin burns
    // a whole scheduling quantum every time one side fills/empties the
    // ring.
    auto backoff = [](int& spins) {
        if (++spins < 64) {
            rt::cpuRelax();
        } else {
            std::this_thread::yield();
            spins = 0;
        }
    };
    std::thread producer([&q, &backoff] {
        int spins = 0;
        for (int64_t i = 0; i < kN; ++i)
            while (!q.tryPush(ir::Value::fromInt(i)))
                backoff(spins);
    });
    ir::Value v;
    int spins = 0;
    for (int64_t expect = 0; expect < kN;) {
        if (q.tryPop(v)) {
            ASSERT_EQ(v.asInt(), expect);
            expect++;
        } else {
            backoff(spins);
        }
    }
    producer.join();
    EXPECT_FALSE(q.tryPop(v));
    EXPECT_EQ(q.enqCount(), static_cast<uint64_t>(kN));
    // The high-water mark can never exceed what the ring can hold.
    EXPECT_LE(q.maxOccupancy(), 64u);
    EXPECT_GE(q.maxOccupancy(), 1u);
}

// ---------------------------------------------------------------------
// maxOccupancy must be exact, not computed against the producer's stale
// cache of the consumer index.
// ---------------------------------------------------------------------

TEST(SpscQueue, MaxOccupancyNotInflatedByStaleHeadCache)
{
    // Deterministic regression: push 6, pop 5, push 1. The true
    // high-water mark is 6 — the seventh element enters a ring holding
    // one. A producer that measures against its cached head (still 0:
    // nothing refreshed it, the ring never looked full) would record 7.
    rt::SpscQueue q(8);
    ir::Value v;
    for (int64_t i = 0; i < 6; ++i)
        ASSERT_TRUE(q.tryPush(ir::Value::fromInt(i)));
    for (int64_t i = 0; i < 5; ++i)
        ASSERT_TRUE(q.tryPop(v));
    ASSERT_TRUE(q.tryPush(ir::Value::fromInt(6)));
    EXPECT_EQ(q.maxOccupancy(), 6u)
        << "high-water mark inflated by a stale head cache";
}

TEST(SpscQueue, MaxOccupancyMatchesOracleUnderRandomOps)
{
    // Randomized single-thread mix of every producer/consumer entry
    // point, against an exactly tracked occupancy oracle. Interleaved
    // pops keep the producer's head cache stale for most pushes, which
    // is the state the deterministic test above distills.
    rt::SpscQueue q(32);
    Rng rng(99);
    size_t occ = 0, oracle_max = 0;
    ir::Value out[32];
    ir::Value v;
    auto gen = [](size_t k) {
        return ir::Value::fromInt(static_cast<int64_t>(k));
    };
    for (int step = 0; step < 200'000; ++step) {
        switch (rng.nextBounded(4)) {
        case 0:
            if (q.tryPush(ir::Value::fromInt(step)))
                occ++;
            break;
        case 1: {
            size_t want = 1 + rng.nextBounded(12);
            occ += q.pushBatch(want, gen);
            break;
        }
        case 2:
            if (q.tryPop(v))
                occ--;
            break;
        default:
            occ -= q.popBatch(1 + rng.nextBounded(12), out);
            break;
        }
        oracle_max = std::max(oracle_max, occ);
        ASSERT_EQ(q.sizeApprox(), occ) << "step " << step;
    }
    EXPECT_EQ(q.maxOccupancy(), oracle_max);
}

// ---------------------------------------------------------------------
// Handcrafted pipeline: in-band control value ends the consumer loop
// through a dequeue handler, exactly like compiled pipelines do.
// ---------------------------------------------------------------------

ir::PipelinePtr
buildDoublerPipeline()
{
    constexpr ir::QueueId kQ = 0;
    auto pipeline = std::make_unique<ir::Pipeline>();
    pipeline->name = "doubler";

    {
        ir::FunctionBuilder b("produce");
        ir::ArrayId a = b.arrayParam("a", ir::ElemType::kI64, false);
        b.arrayParam("out", ir::ElemType::kI64, true);
        ir::RegId n = b.scalarParam("n");
        b.forRange(b.constI(0), n, [&](ir::RegId i) {
            b.enq(kQ, b.load(a, i, "v"));
        });
        b.enqCtrl(kQ, ir::kCtrlNext);
        pipeline->stages.push_back(b.finish());
    }

    {
        ir::FunctionBuilder b("consume");
        b.arrayParam("a", ir::ElemType::kI64, false);
        ir::ArrayId out = b.arrayParam("out", ir::ElemType::kI64, true);
        b.scalarParam("n");
        ir::RegId idx = b.newReg("idx");
        ir::RegId v = b.newReg("v");
        ir::RegId one = b.constI(1);
        b.movTo(idx, b.constI(0));
        b.loop([&] {
            b.deqTo(kQ, v);
            b.store(out, idx, b.add(v, v));
            ir::Op bump;
            bump.opcode = ir::Opcode::kAdd;
            bump.dst = idx;
            bump.src[0] = idx;
            bump.src[1] = one;
            b.emit(bump);
        });
        ir::FunctionPtr fn = b.finish();
        ir::HandlerSpec h;
        h.queue = kQ;
        auto brk = std::make_unique<ir::BreakStmt>(1);
        brk->id = fn->nextStmtId++;
        h.body.push_back(std::move(brk));
        fn->handlers.push_back(std::move(h));
        pipeline->stages.push_back(std::move(fn));
    }
    return pipeline;
}

void
bindDoubler(sim::Binding& b, int n)
{
    Rng rng(7);
    auto* a = b.makeArray("a", ir::ElemType::kI64,
                          static_cast<size_t>(n));
    auto* out = b.makeArray("out", ir::ElemType::kI64,
                            static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        a->setInt(i, static_cast<int64_t>(rng.nextBounded(100000)) - 50000);
        out->setInt(i, -1);
    }
    b.setScalarInt("n", n);
}

TEST(NativeRuntime, HandcraftedControlValueProtocol)
{
    const int n = 5000;  // >> default queue depth: exercises backpressure
    auto pipeline = buildDoublerPipeline();

    rt::Runtime runtime;
    sim::Binding nb;
    bindDoubler(nb, n);
    rt::NativeStats stats = runtime.runPipeline(*pipeline, nb);
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_EQ(stats.numStageThreads, 2);

    auto* a = nb.array("a");
    auto* out = nb.array("out");
    for (int i = 0; i < n; ++i)
        ASSERT_EQ(out->atInt(i), 2 * a->atInt(i)) << "index " << i;

    // Differential: the simulator must agree bit-for-bit.
    sim::Binding sb;
    bindDoubler(sb, n);
    sim::Machine machine(test::testConfig());
    auto sim_stats = machine.runPipeline(*pipeline, sb);
    ASSERT_FALSE(sim_stats.deadlock);
    EXPECT_TRUE(sb.array("out")->contentEquals(*out));
}

// ---------------------------------------------------------------------
// Differential: compiled pipelines, native vs simulator.
// ---------------------------------------------------------------------

const char* kFilterKernel = R"(
#pragma phloem
void filter_work(const int* restrict a, const int* restrict b,
                 long* restrict out, int n) {
    for (int i = 0; i < n; i++) {
        int x = a[i];
        if (x > 0) {
            int y = b[x];
            out[i] = phloem_work(y, 10);
        }
    }
}
)";

void
setupFilter(sim::Binding& binding)
{
    Rng rng(42);
    const int n = 2000;
    auto* a = binding.makeArray("a", ir::ElemType::kI32, n);
    auto* b = binding.makeArray("b", ir::ElemType::kI32, n);
    auto* out = binding.makeArray("out", ir::ElemType::kI64, n);
    for (int i = 0; i < n; ++i) {
        a->setInt(i, static_cast<int64_t>(rng.nextBounded(n)) - n / 3);
        b->setInt(i, static_cast<int64_t>(rng.nextBounded(1000)));
        out->setInt(i, -1);
    }
    binding.setScalarInt("n", n);
}

TEST(NativeRuntime, SerialMatchesSimulatorSerial)
{
    auto kernel = fe::compileKernel(kFilterKernel);

    sim::Binding nb;
    setupFilter(nb);
    rt::Runtime runtime;
    rt::NativeStats nstats = runtime.runSerial(*kernel.fn, nb);
    ASSERT_TRUE(nstats.ok) << nstats.error;

    sim::Binding sb;
    setupFilter(sb);
    sim::Machine machine(test::testConfig());
    auto sstats = machine.runSerial(*kernel.fn, sb);
    ASSERT_FALSE(sstats.deadlock);

    EXPECT_TRUE(sb.array("out")->contentEquals(*nb.array("out")));
    // Both backends interpret the same flat program, so dynamic
    // instruction counts must agree exactly.
    EXPECT_EQ(nstats.totalInstructions(), sstats.totalInstructions());
}

TEST(NativeRuntime, SerialRejectsQueueOps)
{
    // runSerial provides no queues; handing it a pipeline stage must be
    // a clean diagnostic, not an out-of-bounds queue index.
    ir::FunctionBuilder b("stagey");
    ir::ArrayId a = b.arrayParam("a", ir::ElemType::kI64, false);
    ir::RegId n = b.scalarParam("n");
    b.forRange(b.constI(0), n, [&](ir::RegId i) {
        b.enq(0, b.load(a, i, "v"));
    });
    ir::FunctionPtr fn = b.finish();

    sim::Binding nb;
    nb.makeArray("a", ir::ElemType::kI64, 4);
    nb.setScalarInt("n", 4);
    rt::Runtime runtime;
    rt::NativeStats st = runtime.runSerial(*fn, nb);
    EXPECT_FALSE(st.ok);
    EXPECT_NE(st.error.find("queue"), std::string::npos) << st.error;
}

TEST(NativeRuntime, CompiledPipelineMatchesSimulator)
{
    auto kernel = fe::compileKernel(kFilterKernel);
    comp::CompileOptions opts;
    opts.numStages = 4;
    auto res = comp::compilePipeline(*kernel.fn, opts);
    ASSERT_TRUE(res.ok());

    sim::Binding nb;
    setupFilter(nb);
    rt::Runtime runtime;
    rt::NativeStats nstats = runtime.runPipeline(*res.pipeline, nb);
    ASSERT_TRUE(nstats.ok) << nstats.error;

    sim::Binding sb;
    setupFilter(sb);
    sim::Machine machine(test::testConfig());
    auto sstats = machine.runPipeline(*res.pipeline, sb);
    ASSERT_FALSE(sstats.deadlock);

    EXPECT_TRUE(sb.array("out")->contentEquals(*nb.array("out")));
}

TEST(NativeRuntime, RusageAlwaysPopulatedAndHwLanesConsistent)
{
    auto kernel = fe::compileKernel(kFilterKernel);
    comp::CompileOptions opts;
    opts.numStages = 4;
    auto res = comp::compilePipeline(*kernel.fn, opts);
    ASSERT_TRUE(res.ok());

    sim::Binding nb;
    setupFilter(nb);
    rt::Runtime runtime;
    rt::NativeStats st = runtime.runPipeline(*res.pipeline, nb);
    ASSERT_TRUE(st.ok) << st.error;

    // The getrusage floor is unconditional: peak RSS regardless of
    // whether the kernel lets us at the PMU.
    EXPECT_GT(st.rusage.maxRssKb, 0.0);

    // hw lanes are all-or-nothing consistent with the validity flag;
    // whether they exist depends on the host (containers commonly deny
    // perf_event_open), so assert whichever contract applies.
    if (st.hwValid) {
        ASSERT_FALSE(st.hwLanes.empty());
        rt::HwCounts total = st.hwTotal();
        EXPECT_TRUE(total.valid);
        EXPECT_GT(total.cycles, 0u);
        EXPECT_GT(total.instructions, 0u);
        EXPECT_GT(total.ipc(), 0.0);
        EXPECT_LE(total.llcMissRate(), 1.0);
    } else {
        EXPECT_FALSE(rt::hwCountersAvailable());
        EXPECT_FALSE(rt::hwUnavailableReason().empty());
        for (const auto& lane : st.hwLanes)
            EXPECT_FALSE(lane.counts.valid) << lane.name;
    }
}

TEST(NativeRuntime, HwCountsArithmetic)
{
    rt::HwCounts a;
    a.valid = true;
    a.cycles = 1000;
    a.instructions = 2000;
    a.llcRefs = 100;
    a.llcMisses = 25;
    rt::HwCounts b;
    b.valid = true;
    b.cycles = 400;
    b.instructions = 500;
    b.llcRefs = 150; // multiplexing jitter: later read smaller

    rt::HwCounts d = a.minus(b);
    EXPECT_TRUE(d.valid);
    EXPECT_EQ(d.cycles, 600u);
    EXPECT_EQ(d.instructions, 1500u);
    EXPECT_EQ(d.llcRefs, 0u) << "negative deltas must clamp at zero";
    EXPECT_DOUBLE_EQ(d.ipc(), 1500.0 / 600.0);

    rt::HwCounts sum;
    sum.accumulate(d);
    rt::HwCounts invalid; // valid=false contributions are ignored
    sum.accumulate(invalid);
    EXPECT_TRUE(sum.valid);
    EXPECT_EQ(sum.cycles, 600u);

    rt::HwCounts none;
    EXPECT_DOUBLE_EQ(none.ipc(), 0.0);
    EXPECT_DOUBLE_EQ(none.llcMissRate(), 0.0);
}

// ---------------------------------------------------------------------
// Pre-decoded engine vs the simulator.
// ---------------------------------------------------------------------

TEST(NativeRuntime, EngineMatchesSimulatorOnCompiledPipeline)
{
    // The engine may fuse and batch, but it must retire exactly the
    // instruction stream the simulator executes. Branch totals are not
    // compared: the simulator counts only conditional branches, the
    // native profile counts unconditional ones too.
    auto kernel = fe::compileKernel(kFilterKernel);
    for (int stages : {2, 3, 4, 6}) {
        SCOPED_TRACE("stages=" + std::to_string(stages));
        comp::CompileOptions copts;
        copts.numStages = stages;
        auto res = comp::compilePipeline(*kernel.fn, copts);
        ASSERT_TRUE(res.ok());

        sim::Binding eb;
        setupFilter(eb);
        rt::Runtime runtime;
        rt::NativeStats es = runtime.runPipeline(*res.pipeline, eb);
        ASSERT_TRUE(es.ok) << es.error;
        EXPECT_EQ(es.tier, "engine");

        sim::Binding sb;
        setupFilter(sb);
        sim::Machine machine(test::testConfig());
        sim::RunStats ss = machine.runPipeline(*res.pipeline, sb);
        ASSERT_FALSE(ss.deadlock) << ss.deadlockInfo;

        EXPECT_TRUE(sb.array("out")->contentEquals(*eb.array("out")));
        EXPECT_EQ(es.totalInstructions(), ss.totalInstructions());
        uint64_t queue_ops = 0;
        for (const auto& w : es.workers)
            queue_ops += w.queueOps;
        EXPECT_EQ(queue_ops, ss.totalQueueOps());

        // Per-worker profile invariant: every retired instruction is
        // either an opcode execution or a branch.
        for (const auto& w : es.workers) {
            if (!w.isStage)
                continue;
            uint64_t sum = w.branches;
            for (uint64_t c : w.opCounts)
                sum += c;
            EXPECT_EQ(sum, w.instructions) << w.name;
        }

        // The decoder must have found superinstruction sites (every
        // lowered for-loop has a fusable cmp+brIfNot header), and
        // every dequeue ran through popBatch.
        uint64_t fused = 0;
        for (const auto& w : es.workers)
            fused += w.fusedSites;
        EXPECT_GT(fused, 0u);
        uint64_t pop_batches = 0;
        for (const auto& q : es.queues)
            pop_batches += q.popBatches;
        EXPECT_GT(pop_batches, 0u);
        EXPECT_GE(es.meanPopBatch(), 1.0);
    }
}

// ---------------------------------------------------------------------
// JIT execution tier.
// ---------------------------------------------------------------------

TEST(NativeRuntime, JitMatchesEngineOnCompiledPipeline)
{
    auto kernel = fe::compileKernel(kFilterKernel);
    comp::CompileOptions copts;
    copts.numStages = 4;
    auto res = comp::compilePipeline(*kernel.fn, copts);
    ASSERT_TRUE(res.ok());

    rt::RuntimeOptions eo;
    eo.tier = rt::TierMode::kEngine;
    sim::Binding eb;
    setupFilter(eb);
    rt::Runtime engine_rt(sim::SysConfig{}, eo);
    rt::NativeStats es = engine_rt.runPipeline(*res.pipeline, eb);
    ASSERT_TRUE(es.ok) << es.error;
    EXPECT_EQ(es.tier, "engine");

    // The JIT runs share one preparation (what a service cache entry
    // holds): two runs from it must both match the engine.
    rt::RuntimeOptions jo;
    jo.tier = rt::TierMode::kJit;
    rt::Runtime jit_rt(sim::SysConfig{}, jo);
    rt::PreparedPipeline prepared =
        rt::preparePipeline(*res.pipeline, rt::TierMode::kJit);
    for (int run = 0; run < 2; ++run) {
        SCOPED_TRACE("run " + std::to_string(run));
        sim::Binding jb;
        setupFilter(jb);
        rt::NativeStats js = jit_rt.runPipeline(*res.pipeline, jb,
                                                &prepared);
        ASSERT_TRUE(js.ok) << js.error;
        EXPECT_EQ(js.tier, "jit");
        EXPECT_GT(js.jitStages, 0) << js.jitError;
        EXPECT_EQ(js.jitFallbacks, 0) << js.jitError;
        EXPECT_GT(js.jitEmitNs, 0.0);
        EXPECT_GT(js.jitCompileNs, 0.0);
        EXPECT_GT(js.jitLoadNs, 0.0);

        // Bit-identical memory and identical dynamic profiles: compiled
        // code must retire exactly the instruction stream the engine
        // does.
        EXPECT_TRUE(jb.array("out")->contentEquals(*eb.array("out")));
        EXPECT_EQ(js.totalInstructions(), es.totalInstructions());
        EXPECT_EQ(js.totalBranches(), es.totalBranches());
        EXPECT_EQ(js.totalOpCounts(), es.totalOpCounts());

        for (const auto& w : js.workers) {
            if (!w.isStage)
                continue;
            EXPECT_EQ(w.tier, "jit") << w.name;
            EXPECT_TRUE(w.jitFallback.empty()) << w.name;
            // Profile invariant holds for emitted code too.
            uint64_t sum = w.branches;
            for (uint64_t c : w.opCounts)
                sum += c;
            EXPECT_EQ(sum, w.instructions) << w.name;
        }
    }

    // A preparation serves only the tier it was built for.
    sim::Binding mb;
    setupFilter(mb);
    EXPECT_THROW(engine_rt.runPipeline(*res.pipeline, mb, &prepared),
                 std::logic_error);
}

TEST(NativeRuntime, RunSerialHonorsExplicitTier)
{
    auto kernel = fe::compileKernel(kFilterKernel);
    sim::Binding b;
    setupFilter(b);
    rt::RuntimeOptions opt;
    opt.tier = rt::TierMode::kJit;
    rt::Runtime r(sim::SysConfig{}, opt);
    rt::NativeStats s = r.runSerial(*kernel.fn, b);
    ASSERT_TRUE(s.ok) << s.error;
    EXPECT_EQ(s.tier, "jit");
}

TEST(NativeRuntime, JitEmitterDenyFallsBackBitIdentical)
{
    // An op the emitter rejects downgrades just that stage to the
    // engine; the run completes, reports the fallback, and stays
    // bit-identical. kFilterKernel's phloem_work lowers to the "work"
    // opcode, so denying it forces a real mid-pipeline fallback.
    auto kernel = fe::compileKernel(kFilterKernel);
    comp::CompileOptions copts;
    copts.numStages = 4;
    auto res = comp::compilePipeline(*kernel.fn, copts);
    ASSERT_TRUE(res.ok());

    sim::Binding eb;
    setupFilter(eb);
    rt::RuntimeOptions eo;
    eo.tier = rt::TierMode::kEngine;
    rt::Runtime engine_rt(sim::SysConfig{}, eo);
    rt::NativeStats es = engine_rt.runPipeline(*res.pipeline, eb);
    ASSERT_TRUE(es.ok) << es.error;

    ::setenv("PHLOEM_JIT_DENY_OPS", "work", 1);
    sim::Binding jb;
    setupFilter(jb);
    rt::RuntimeOptions jo;
    jo.tier = rt::TierMode::kJit;
    rt::Runtime jit_rt(sim::SysConfig{}, jo);
    rt::NativeStats js = jit_rt.runPipeline(*res.pipeline, jb);
    ::unsetenv("PHLOEM_JIT_DENY_OPS");

    ASSERT_TRUE(js.ok) << js.error;
    EXPECT_EQ(js.tier, "jit");
    EXPECT_GE(js.jitFallbacks, 1);
    EXPECT_NE(js.jitError.find("denied by PHLOEM_JIT_DENY_OPS"),
              std::string::npos)
        << js.jitError;
    EXPECT_TRUE(jb.array("out")->contentEquals(*eb.array("out")));
    EXPECT_EQ(js.totalInstructions(), es.totalInstructions());

    // The downgraded stages report the engine; any stage without the
    // denied op may still run compiled code.
    int fallbacks = 0;
    for (const auto& w : js.workers) {
        if (!w.isStage)
            continue;
        if (!w.jitFallback.empty()) {
            ++fallbacks;
            EXPECT_EQ(w.tier, "engine") << w.name;
        }
    }
    EXPECT_EQ(fallbacks, js.jitFallbacks);
}

TEST(NativeRuntime, JitToolchainFailuresSurfaceInStatsNotFatal)
{
    auto kernel = fe::compileKernel(kFilterKernel);
    comp::CompileOptions copts;
    copts.numStages = 4;
    auto res = comp::compilePipeline(*kernel.fn, copts);
    ASSERT_TRUE(res.ok());

    sim::Binding eb;
    setupFilter(eb);
    rt::RuntimeOptions eo;
    eo.tier = rt::TierMode::kEngine;
    rt::Runtime engine_rt(sim::SysConfig{}, eo);
    rt::NativeStats es = engine_rt.runPipeline(*res.pipeline, eb);
    ASSERT_TRUE(es.ok) << es.error;

    // Compiler failure: every stage falls back, the run still
    // completes bit-identically, and the stats carry the error.
    ::setenv("PHLOEM_JIT_CC", "/bin/false", 1);
    sim::Binding cb;
    setupFilter(cb);
    rt::RuntimeOptions jo;
    jo.tier = rt::TierMode::kJit;
    rt::Runtime cc_rt(sim::SysConfig{}, jo);
    rt::NativeStats cs = cc_rt.runPipeline(*res.pipeline, cb);
    ASSERT_TRUE(cs.ok) << cs.error;
    EXPECT_EQ(cs.jitStages, 0);
    EXPECT_EQ(cs.jitFallbacks, cs.numStageThreads);
    EXPECT_NE(cs.jitError.find("/bin/false failed"), std::string::npos)
        << cs.jitError;
    EXPECT_TRUE(cb.array("out")->contentEquals(*eb.array("out")));

    // dlopen failure (the "compiler" succeeds but writes no .so):
    // surfaced the same way, never fatal.
    ::setenv("PHLOEM_JIT_CC", "/bin/true", 1);
    sim::Binding db;
    setupFilter(db);
    rt::Runtime dl_rt(sim::SysConfig{}, jo);
    rt::NativeStats ds = dl_rt.runPipeline(*res.pipeline, db);
    ::unsetenv("PHLOEM_JIT_CC");
    ASSERT_TRUE(ds.ok) << ds.error;
    EXPECT_EQ(ds.jitStages, 0);
    EXPECT_EQ(ds.jitFallbacks, ds.numStageThreads);
    EXPECT_NE(ds.jitError.find("dlopen failed"), std::string::npos)
        << ds.jitError;
    EXPECT_TRUE(db.array("out")->contentEquals(*eb.array("out")));
}

// ---------------------------------------------------------------------
// Failure paths: budget and bounds on both tiers.
// ---------------------------------------------------------------------

/** Never terminates on non-negative inputs: only the budget stops it. */
const char* kRunawayKernel = R"(
#pragma phloem
void runaway(const int* restrict a, long* restrict out, int n) {
    for (int i = 0; i < n; i++) {
        long v = a[i];
        while (v >= 0) {
            v = v + 1;
        }
        out[i] = v;
    }
}
)";

/** Scatters through idx; one planted index lands far out of bounds. */
const char* kScatterKernel = R"(
#pragma phloem
void scatter(const int* restrict idx, const long* restrict a,
             long* restrict out, int n) {
    for (int i = 0; i < n; i++) {
        long v = a[i];
        out[idx[i]] = v + 1;
    }
}
)";

constexpr int kFailN = 512;
constexpr int64_t kBadIndex = 1 << 20;

void
setupFailKernel(sim::Binding& b)
{
    auto* idx = b.makeArray("idx", ir::ElemType::kI32, kFailN);
    auto* a = b.makeArray("a", ir::ElemType::kI32, kFailN);
    b.makeArray("out", ir::ElemType::kI64, kFailN);
    for (int i = 0; i < kFailN; ++i) {
        idx->setInt(i, i == kFailN / 2 ? kBadIndex : kFailN - 1 - i);
        a->setInt(i, i);
    }
    b.setScalarInt("n", kFailN);
}

TEST(NativeRuntime, BudgetAndBoundsFailuresReturnPromptlyOnBothTiers)
{
    // A runaway stage must stop at its instruction budget and an
    // out-of-bounds store must fail its stage; either way every peer
    // unwinds at once (not when the deadlock monitor fires), on the
    // engine and through the JIT's exception-capturing callbacks.
    struct Case
    {
        const char* source;
        uint64_t budget;
        std::string want;
    };
    const Case cases[] = {
        {kRunawayKernel, 200000, "instruction budget exceeded (200000)"},
        {kScatterKernel, 4'000'000'000ull,
         "out-of-bounds access to out[" + std::to_string(kBadIndex) + "]"},
    };
    for (const Case& c : cases) {
        auto kernel = fe::compileKernel(c.source);
        comp::CompileOptions copts;
        copts.numStages = 3;
        auto res = comp::compilePipeline(*kernel.fn, copts);
        ASSERT_TRUE(res.ok());
        ASSERT_GE(res.pipeline->stages.size(), 2u);
        for (rt::TierMode tier : {rt::TierMode::kEngine, rt::TierMode::kJit}) {
            rt::RuntimeOptions opt;
            opt.tier = tier;
            opt.maxInstructions = c.budget;
            opt.deadlockTimeoutMs = 60000;
            rt::Runtime runtime(sim::SysConfig{}, opt);
            for (bool serial : {true, false}) {
                SCOPED_TRACE(kernel.fn->name +
                             (tier == rt::TierMode::kJit ? " jit" : " engine") +
                             (serial ? " serial" : " pipeline"));
                sim::Binding b;
                setupFailKernel(b);
                auto t0 = std::chrono::steady_clock::now();
                rt::NativeStats st =
                    serial ? runtime.runSerial(*kernel.fn, b)
                           : runtime.runPipeline(*res.pipeline, b);
                double secs = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
                EXPECT_FALSE(st.ok);
                EXPECT_NE(st.error.find(c.want), std::string::npos)
                    << st.error;
                EXPECT_EQ(st.error.find("deadlock"), std::string::npos)
                    << st.error;
                EXPECT_EQ(st.jitFallbacks, 0) << st.jitError;
                EXPECT_LT(secs, 30.0);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Manual SpMM pipeline: SCAN RAs with range control values.
// ---------------------------------------------------------------------

TEST(NativeRuntime, ManualSpmmPipelinePasses)
{
    wl::Workload w = wl::spmmWorkload();
    ASSERT_TRUE(w.manual != nullptr);
    auto kernel = fe::compileKernel(w.serialSrc);
    ir::PipelinePtr manual = w.manual(*kernel.fn);
    ASSERT_TRUE(manual != nullptr);

    const wl::Case* c = nullptr;
    for (const auto& cs : w.cases)
        if (cs.training) {
            c = &cs;
            break;
        }
    ASSERT_NE(c, nullptr);

    sim::Binding b;
    c->bind(b, 1);
    rt::Runtime runtime;
    rt::NativeStats stats = runtime.runPipeline(*manual, b);
    ASSERT_TRUE(stats.ok) << stats.error;

    std::string err;
    EXPECT_TRUE(c->check(b, wl::Variant::kPipeline, &err)) << err;
    // The RA workers must actually have streamed elements.
    uint64_t ra_elements = 0;
    for (const auto& ws : stats.workers)
        if (!ws.isStage)
            ra_elements += ws.raElements;
    EXPECT_GT(ra_elements, 0u);
}

// ---------------------------------------------------------------------
// Replicated pipeline: kEnqDist crosses replicas, so the distributed
// queues become multi-producer rings.
// ---------------------------------------------------------------------

TEST(NativeRuntime, ReplicatedBfsMatchesGolden)
{
    const int replicas = 3;
    wl::CSRGraph g = wl::makeRoadNetwork(800, 0.65, 101);
    int32_t root = 0;
    for (int32_t v = 0; v < g.n; ++v)
        if (g.degree(v) > g.degree(root))
            root = v;
    std::vector<int32_t> golden = wl::bfsGolden(g, root);
    int diameter = 0;
    for (int32_t d : golden)
        if (d != INT32_MAX)
            diameter = std::max(diameter, d);

    auto kernel = fe::compileKernel(wl::kBfsReplicated);
    ASSERT_FALSE(kernel.ann.distributeOps.empty());
    comp::CompileOptions opts;
    opts.numStages = 4;
    opts.replicas = replicas;
    opts.distributeBoundaryOp = kernel.ann.distributeOps.front();
    auto compiled = comp::compilePipeline(*kernel.fn, opts);
    ASSERT_TRUE(compiled.pipeline != nullptr);

    sim::Binding b;
    auto* nodes = b.makeArray("nodes", ir::ElemType::kI32,
                              static_cast<size_t>(g.n) + 1);
    for (int32_t v = 0; v <= g.n; ++v)
        nodes->setInt(v, g.nodes[static_cast<size_t>(v)]);
    auto* edges = b.makeArray(
        "edges", ir::ElemType::kI32,
        std::max<size_t>(1, static_cast<size_t>(g.m())));
    for (int64_t e = 0; e < g.m(); ++e)
        edges->setInt(e, g.edges[static_cast<size_t>(e)]);
    auto* dist = b.makeArray("dist", ir::ElemType::kI32,
                             static_cast<size_t>(g.n));
    dist->fillInt(2147483647);
    for (int r = 0; r < replicas; ++r) {
        size_t cap = static_cast<size_t>(g.n) + 1;
        b.bindReplica(r, "cur_fringe",
                      b.makeArray("cf@" + std::to_string(r),
                                  ir::ElemType::kI32, cap));
        b.bindReplica(r, "next_fringe",
                      b.makeArray("nf@" + std::to_string(r),
                                  ir::ElemType::kI32, cap));
        b.setScalarReplica(r, "init_size",
                           ir::Value::fromInt(root % replicas == r ? 1
                                                                   : 0));
    }
    b.setScalarInt("n", g.n);
    b.setScalarInt("root", root);
    b.setScalarInt("max_rounds", diameter + 1);

    rt::Runtime runtime;
    rt::NativeStats stats = runtime.runPipeline(*compiled.pipeline, b);
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_EQ(stats.numStageThreads,
              replicas * static_cast<int>(compiled.pipeline->stages.size()));

    for (int32_t v = 0; v < g.n; ++v)
        ASSERT_EQ(dist->atInt(v), golden[static_cast<size_t>(v)])
            << "vertex " << v;
}

// ---------------------------------------------------------------------
// Deadlock watchdog.
// ---------------------------------------------------------------------

TEST(NativeRuntime, WatchdogAbortsStuckPipeline)
{
    // One stage enqueues past a depth-4 queue that nothing ever drains:
    // the producer blocks forever and the watchdog must abort the run
    // instead of hanging the process.
    auto pipeline = std::make_unique<ir::Pipeline>();
    pipeline->name = "jam";
    {
        ir::FunctionBuilder b("jam");
        ir::RegId n = b.scalarParam("n");
        b.forRange(b.constI(0), n, [&](ir::RegId i) { b.enq(0, i); });
        pipeline->stages.push_back(b.finish());
    }
    ir::QueueConfig qc;
    qc.id = 0;
    qc.depth = 4;
    pipeline->queues.push_back(qc);

    sim::Binding b;
    b.setScalarInt("n", 64);

    rt::RuntimeOptions opt;
    opt.deadlockTimeoutMs = 100;
    rt::Runtime runtime(sim::SysConfig{}, opt);
    rt::NativeStats stats = runtime.runPipeline(*pipeline, b);
    EXPECT_FALSE(stats.ok);
    EXPECT_NE(stats.error.find("deadlock"), std::string::npos)
        << stats.error;
}

TEST(NativeRuntime, WatchdogPostMortemAttributesTheStall)
{
    // Mispaired streams: the producer enqueues 2n values, the consumer
    // dequeues n and halts, so the producer eventually jams on a full
    // ring with the consumer gone. The watchdog report must name the
    // blocked queue, quantify the residual occupancy, and — when a
    // tracer is attached — append each worker's trailing trace events.
    constexpr int kDepth = 4;
    auto pipeline = std::make_unique<ir::Pipeline>();
    pipeline->name = "mispair";
    {
        ir::FunctionBuilder b("produce2n");
        ir::RegId n = b.scalarParam("n");
        b.forRange(b.constI(0), b.add(n, n), [&](ir::RegId i) {
            b.enq(0, i);
        });
        pipeline->stages.push_back(b.finish());
    }
    {
        ir::FunctionBuilder b("consume1n");
        ir::RegId n = b.scalarParam("n");
        ir::RegId v = b.newReg("v");
        b.forRange(b.constI(0), n, [&](ir::RegId) { b.deqTo(0, v); });
        pipeline->stages.push_back(b.finish());
    }
    ir::QueueConfig qc;
    qc.id = 0;
    qc.depth = kDepth;
    pipeline->queues.push_back(qc);

    sim::Binding b;
    b.setScalarInt("n", 64);

    trace::Tracer tracer{trace::Timebase::kWallNs};
    rt::RuntimeOptions opt;
    opt.deadlockTimeoutMs = 100;
    opt.tracer = &tracer;
    rt::Runtime runtime(sim::SysConfig{}, opt);
    rt::NativeStats stats = runtime.runPipeline(*pipeline, b);

    ASSERT_FALSE(stats.ok);
    EXPECT_NE(stats.error.find("q0"), std::string::npos)
        << "report must name the blocked queue:\n"
        << stats.error;
    EXPECT_NE(stats.error.find("residual occupancy"), std::string::npos)
        << stats.error;
    EXPECT_NE(stats.error.find("trace post-mortem"), std::string::npos)
        << stats.error;
    EXPECT_NE(stats.error.find("enq_block"), std::string::npos)
        << "the jammed producer's blocking span must appear in the "
           "trailing events:\n"
        << stats.error;

    // The stuck ring really was full when the run was torn down.
    bool found = false;
    for (const auto& q : stats.queues)
        if (q.id == 0) {
            found = true;
            EXPECT_GE(q.residual, static_cast<uint64_t>(kDepth));
        }
    EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------
// Shared task-pool scheduler.
// ---------------------------------------------------------------------

/**
 * Heavier cousin of kFilterKernel: enough phloem_work per element that
 * a run comfortably outlives a deliberately short deadlock timeout.
 */
const char* kHeavyFilterKernel = R"(
#pragma phloem
void heavy_filter(const int* restrict a, const int* restrict b,
                  long* restrict out, int n) {
    for (int i = 0; i < n; i++) {
        int x = a[i];
        if (x > 0) {
            int y = b[x];
            out[i] = phloem_work(y, 20000);
        }
    }
}
)";

TEST(NativeRuntime, SchedulerOversubscribedLivePipelineIsNotKilled)
{
    // The regression the scheduler exists for: more live tasks than
    // pool workers must look like a busy machine, not a deadlock. On a
    // one-worker pool every task but one is descheduled (kRunnable) at
    // any instant, and the run far outlasts the 60 ms timeout — the
    // wall-time heuristic this replaced would have killed it.
    auto kernel = fe::compileKernel(kHeavyFilterKernel);
    comp::CompileOptions copts;
    copts.numStages = 8;
    auto res = comp::compilePipeline(*kernel.fn, copts);
    ASSERT_TRUE(res.ok());

    rt::Scheduler::Options sopt;
    sopt.workers = 1;
    rt::Scheduler pool(sopt);

    rt::RuntimeOptions opt;
    opt.schedulerOverride = &pool;
    opt.deadlockTimeoutMs = 30;

    sim::Binding nb;
    setupFilter(nb);
    rt::Runtime runtime(sim::SysConfig{}, opt);
    rt::NativeStats stats = runtime.runPipeline(*res.pipeline, nb);
    ASSERT_TRUE(stats.ok) << stats.error;
    // The run must have straddled several monitor scans for the "not
    // killed" claim to mean anything.
    EXPECT_GT(stats.wallMs(), opt.deadlockTimeoutMs) << stats.wallMs();

    EXPECT_TRUE(stats.sched.shared);
    EXPECT_EQ(stats.sched.poolSize, 1);
    // >= 2x oversubscribed: every stage and RA shares the one worker.
    EXPECT_GE(stats.numStageThreads + stats.numRAWorkers, 2);
    // Blocked tasks parked instead of spinning the pool.
    EXPECT_GT(stats.sched.parks, 0u);
    EXPECT_GT(stats.sched.unparks, 0u);

    // And the answer is still the answer.
    sim::Binding sb;
    setupFilter(sb);
    sim::Machine machine(test::testConfig());
    auto sstats = machine.runPipeline(*res.pipeline, sb);
    ASSERT_FALSE(sstats.deadlock);
    EXPECT_TRUE(sb.array("out")->contentEquals(*nb.array("out")));
}

TEST(NativeRuntime, SchedulerPoolShapesAreBitIdentical)
{
    // The same pipeline on the shared pool, on a private one-worker
    // pool (every task multiplexed onto one thread), and on a private
    // four-worker pool without stealing: three interleavings of one
    // program, which must never be three answers.
    auto kernel = fe::compileKernel(kFilterKernel);
    comp::CompileOptions copts;
    copts.numStages = 4;
    auto res = comp::compilePipeline(*kernel.fn, copts);
    ASSERT_TRUE(res.ok());

    rt::Scheduler::Options one_opt;
    one_opt.workers = 1;
    rt::Scheduler one(one_opt);
    rt::Scheduler::Options four_opt;
    four_opt.workers = 4;
    four_opt.stealing = false;
    rt::Scheduler four(four_opt);

    struct Shape
    {
        const char* name;
        rt::Scheduler* pool;
    };
    const Shape shapes[] = {
        {"shared", nullptr}, {"one-worker", &one}, {"four-no-steal", &four}};
    sim::Binding bindings[3];
    rt::NativeStats stats[3];
    for (int i = 0; i < 3; ++i) {
        rt::RuntimeOptions opt;
        opt.schedulerOverride = shapes[i].pool;
        setupFilter(bindings[i]);
        rt::Runtime runtime(sim::SysConfig{}, opt);
        stats[i] = runtime.runPipeline(*res.pipeline, bindings[i]);
        ASSERT_TRUE(stats[i].ok) << shapes[i].name << ": "
                                 << stats[i].error;
        EXPECT_TRUE(stats[i].sched.shared) << shapes[i].name;
    }
    EXPECT_EQ(stats[1].sched.poolSize, 1);
    EXPECT_EQ(stats[2].sched.poolSize, 4);
    EXPECT_FALSE(stats[2].sched.stealing);

    for (int i = 1; i < 3; ++i) {
        SCOPED_TRACE(shapes[i].name);
        EXPECT_TRUE(bindings[0].array("out")->contentEquals(
            *bindings[i].array("out")));
        EXPECT_EQ(stats[i].totalInstructions(),
                  stats[0].totalInstructions());
        EXPECT_EQ(stats[i].totalBranches(), stats[0].totalBranches());
        EXPECT_EQ(stats[i].totalOpCounts(), stats[0].totalOpCounts());
    }
}

TEST(NativeRuntime, SchedulerTwoConcurrentPipelinesShareOnePool)
{
    // The daemon's shape: N requests arrive at once and must multiplex
    // onto one fixed-size pool instead of spawning N x stages threads.
    // Two full pipelines run concurrently on two workers; both must
    // finish, agree with the simulator, and report the shared pool.
    auto kernel = fe::compileKernel(kFilterKernel);
    comp::CompileOptions copts;
    copts.numStages = 4;
    auto res = comp::compilePipeline(*kernel.fn, copts);
    ASSERT_TRUE(res.ok());

    rt::Scheduler::Options sopt;
    sopt.workers = 2;
    rt::Scheduler pool(sopt);

    // Both runs share one preparation, as cached service entries do.
    rt::PreparedPipeline prepared =
        rt::preparePipeline(*res.pipeline, rt::TierMode::kEngine);
    constexpr int kRuns = 2;
    sim::Binding bindings[kRuns];
    rt::NativeStats stats[kRuns];
    {
        std::vector<std::thread> threads;
        for (int i = 0; i < kRuns; ++i) {
            threads.emplace_back([&, i] {
                rt::RuntimeOptions opt;
                opt.schedulerOverride = &pool;
                setupFilter(bindings[i]);
                rt::Runtime runtime(sim::SysConfig{}, opt);
                stats[i] = runtime.runPipeline(*res.pipeline,
                                               bindings[i], &prepared);
            });
        }
        for (auto& t : threads) t.join();
    }

    sim::Binding sb;
    setupFilter(sb);
    sim::Machine machine(test::testConfig());
    auto sstats = machine.runPipeline(*res.pipeline, sb);
    ASSERT_FALSE(sstats.deadlock);

    for (int i = 0; i < kRuns; ++i) {
        ASSERT_TRUE(stats[i].ok) << "run " << i << ": "
                                 << stats[i].error;
        EXPECT_TRUE(stats[i].sched.shared);
        EXPECT_EQ(stats[i].sched.poolSize, 2);
        EXPECT_TRUE(
            sb.array("out")->contentEquals(*bindings[i].array("out")))
            << "run " << i;
        EXPECT_EQ(stats[i].totalInstructions(), sstats.totalInstructions())
            << "run " << i;
    }
}

// ---------------------------------------------------------------------
// Wake path: a closed loop over depth-1 rings.
// ---------------------------------------------------------------------

/**
 * spmm's loop shape in three stages: `head` sends each index around
 * head -> q0 -> mid -> q1 -> tail -> q2 -> head and waits for the reply
 * before sending the next, so every hop finds its depth-1 ring empty
 * and blocks. The reply for index i is (3i + 1) ^ i.
 */
ir::PipelinePtr
buildRingCyclePipeline()
{
    auto pipeline = std::make_unique<ir::Pipeline>();
    pipeline->name = "ring_cycle";
    auto stage = [&](const char* name, auto&& body) {
        ir::FunctionBuilder b(name);
        ir::ArrayId out = b.arrayParam("out", ir::ElemType::kI64, true);
        ir::RegId n = b.scalarParam("n");
        b.forRange(b.constI(0), n, [&](ir::RegId i) { body(b, out, i); });
        pipeline->stages.push_back(b.finish());
    };
    stage("head", [](ir::FunctionBuilder& b, ir::ArrayId out, ir::RegId i) {
        b.enq(0, i);
        b.store(out, i, b.deq(2, "reply"));
    });
    stage("mid", [](ir::FunctionBuilder& b, ir::ArrayId, ir::RegId) {
        b.enq(1, b.add(b.mul(b.deq(0, "v"), b.constI(3)), b.constI(1)));
    });
    stage("tail", [](ir::FunctionBuilder& b, ir::ArrayId, ir::RegId i) {
        b.enq(2, b.xor_(b.deq(1, "v"), i));
    });
    for (ir::QueueId q = 0; q < 3; ++q) {
        ir::QueueConfig qc;
        qc.id = q;
        qc.depth = 1;
        pipeline->queues.push_back(qc);
    }
    return pipeline;
}

TEST(NativeRuntime, ClosedLoopOverDepthOneRingsOnEveryPoolShape)
{
    // 40K round trips of 3 hops each: 120K blocking handoffs per pool
    // shape, through every wake path — park at once on one worker or
    // when the peer is queued locally, spin when it runs elsewhere,
    // hot-idle pickup, steals, and the global queue without stealing.
    constexpr int kTrips = 40000;
    auto pipeline = buildRingCyclePipeline();

    struct Shape
    {
        int workers;
        bool stealing;
    };
    const Shape shapes[] = {{1, true}, {1, false}, {2, true},
                            {2, false}, {4, true}, {4, false}};
    rt::NativeStats first;
    for (const Shape& shape : shapes) {
        SCOPED_TRACE(std::to_string(shape.workers) + " workers, stealing " +
                     (shape.stealing ? "on" : "off"));
        rt::Scheduler::Options sopt;
        sopt.workers = shape.workers;
        sopt.stealing = shape.stealing;
        rt::Scheduler pool(sopt);
        rt::RuntimeOptions opt;
        opt.schedulerOverride = &pool;

        sim::Binding b;
        auto* out = b.makeArray("out", ir::ElemType::kI64,
                                static_cast<size_t>(kTrips));
        b.setScalarInt("n", kTrips);
        rt::Runtime runtime(sim::SysConfig{}, opt);
        rt::NativeStats stats = runtime.runPipeline(*pipeline, b);
        // A deadlock verdict fails the run with a "deadlock" error.
        ASSERT_TRUE(stats.ok) << stats.error;
        EXPECT_EQ(stats.sched.poolSize, shape.workers);
        EXPECT_EQ(stats.sched.stealing, shape.stealing);

        for (int64_t i = 0; i < kTrips; ++i)
            ASSERT_EQ(out->atInt(static_cast<size_t>(i)), (3 * i + 1) ^ i)
                << "index " << i;
        uint64_t queue_ops = 0;
        for (const auto& w : stats.workers)
            queue_ops += w.queueOps;
        EXPECT_EQ(queue_ops, 6u * kTrips);

        if (&shape == &shapes[0]) {
            first = stats;
            continue;
        }
        EXPECT_EQ(stats.totalInstructions(), first.totalInstructions());
        EXPECT_EQ(stats.totalBranches(), first.totalBranches());
        EXPECT_EQ(stats.totalOpCounts(), first.totalOpCounts());
    }
}

} // namespace
} // namespace phloem
