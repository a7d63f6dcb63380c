/**
 * @file
 * The suite workloads: the five main-suite kernels on seeded inputs,
 * compiled once with the static flow, then run serial-then-pipeline per
 * (kernel, input) pair in a closed loop with one caller — natively
 * (suite-native) or on the cycle-approximate simulator (sim-suite).
 */

#include <memory>
#include <optional>

#include "base/stats_util.h"

#include "bench.h"
#include "driver/experiment.h"
#include "inputs.h"
#include "spans.h"

namespace perfbench {

namespace {

using namespace phloem;

/**
 * Native inputs: small enough for well over a hundred rounds in a 15 s
 * block, so the round p90 has ten beyond it. The native speedups are
 * flat from 256 to 4096 vertices (0.09-0.10x gmean), so the size does
 * not flatter them.
 */
constexpr SuiteScale kNativeScale{256, 1536, 289, 0.70, 24, 8.0};
/**
 * Simulator inputs: larger than the scaled caches (SysConfig::scaledEval)
 * so the pipelines hide real memory latency. Simulated times repeat
 * exactly, so no percentile needs a round count here.
 */
constexpr SuiteScale kSimScale{2048, 12000, 2025, 0.70, 64, 8.0};

/** The round tail: the highest percentile with ten rounds beyond it. */
constexpr double kRoundTail = 90.0;

/**
 * Time blocks a run is cut into; the round metrics come from the
 * quietest. Native blocks hold over a hundred rounds (for the p90).
 * Simulated times do not vary and the simulator's rounds turn through
 * every CPU, so its host throughput is taken over the whole run.
 */
constexpr size_t kNativeBlocks = 2;
constexpr size_t kSimBlocks = 1;

/** Everything set-up builds: inputs with goldens, compiled pipelines. */
struct Prepared
{
    std::shared_ptr<Gate> gate = std::make_shared<Gate>();
    Suite suite;
    std::vector<std::unique_ptr<driver::Experiment>> exps;
    std::vector<ir::PipelinePtr> pipelines;
    /** One entry per (kernel, input): indices into exps / cases. */
    struct Pair
    {
        size_t kernel;
        size_t input;
        std::string name;  ///< "<kernel>.<input>"
    };
    std::vector<Pair> pairs;
};


/**
 * One set-up: generate the inputs and goldens (workloads), lower each
 * kernel (frontend, inside the Experiment constructor) and compile its
 * pipeline with the static flow (compiler). Layer times accumulate
 * into `layer_ms`.
 */
std::unique_ptr<Prepared>
prepare(uint64_t seed, const SuiteScale& scale, const sim::SysConfig& cfg,
        std::map<std::string, std::vector<double>>* layer_ms, Outcome* out)
{
    auto p = std::make_unique<Prepared>();
    int64_t t0 = nowNs();
    {
        auto s = spans().span("workloads", "make_suite");
        p->suite = makeSuite(seed, scale, p->gate);
    }
    (*layer_ms)["workloads.gen_ms"].push_back(msSince(t0));

    double fe_ms = 0.0, comp_ms = 0.0;
    for (size_t k = 0; k < p->suite.workloads.size(); ++k) {
        const wl::Workload& w = p->suite.workloads[k];
        t0 = nowNs();
        {
            auto s = spans().span("frontend", w.name + ".compile_kernel");
            p->exps.push_back(std::make_unique<driver::Experiment>(w, cfg));
        }
        fe_ms += msSince(t0);
        t0 = nowNs();
        comp::CompileResult cr;
        {
            auto s = spans().span("compiler", w.name + ".compile_static");
            cr = p->exps.back()->compileStatic();
        }
        comp_ms += msSince(t0);
        if (!cr.ok()) {
            out->fail(w.name + ": static compile failed");
            return nullptr;
        }
        p->pipelines.push_back(std::move(cr.pipeline));
        for (size_t c = 0; c < w.cases.size(); ++c)
            p->pairs.push_back({k, c, w.name + "." + w.cases[c].inputName});
    }
    (*layer_ms)["frontend.compile_kernel_ms"].push_back(fe_ms);
    (*layer_ms)["compiler.compile_ms"].push_back(comp_ms);
    return p;
}

/** Set up kSetups times; keep the last, report the median time. */
std::unique_ptr<Prepared>
setUp(const Options& opt, const SuiteScale& scale, const sim::SysConfig& cfg,
      Outcome* out)
{
    std::map<std::string, std::vector<double>> layer_ms;
    std::vector<double> setup_s;
    std::unique_ptr<Prepared> p;
    for (int i = 0; i < kSetups; ++i) {
        CpuTurn turn(static_cast<size_t>(i));
        int64_t t0 = nowNs();
        p = prepare(opt.seed, scale, cfg, &layer_ms, out);
        setup_s.push_back(msSince(t0) / 1e3);
        if (p == nullptr)
            return nullptr;
    }
    out->e2e["setup_s"] = median(setup_s);
    for (const auto& [name, v] : layer_ms)
        out->layer[name] = median(v);
    out->inputDigest = p->suite.inputDigest;
    for (const auto& pl : p->pipelines) {
        out->layer["compiler.stages"] += static_cast<double>(pl->stages.size());
        out->layer["compiler.queues"] += pl->numQueues();
        out->layer["compiler.ras"] += static_cast<double>(pl->ras.size());
    }
    return p;
}

/** One pair's serial and pipelined run, as `run_pair` reports it. */
struct PairResult
{
    double serialMs = 0.0;
    double pipelineMs = 0.0;
    /** Instructions the two runs executed (interpreted or simulated). */
    double instructions = 0.0;
};

/** One timed round. */
struct Round
{
    int64_t endNs = 0;
    double hostMs = 0.0;
    bool traced = false;
    std::vector<PairResult> pairs;
};

/**
 * The measured closed loop shared by both backends: rounds of
 * `run_pair(i, timed)` over every pair until the deadline, each on the
 * next CPU in turn when `turn_cpus` (thread-free work only). A warm-up
 * round runs untimed first; in the traced mode rounds alternate traced
 * and untraced.
 */
template <typename RunPair>
std::vector<Round>
measureRounds(const Options& opt, Prepared& p, bool turn_cpus, int64_t* t0,
              int64_t* t1, RunPair run_pair)
{
    std::vector<Round> rounds;
    auto round = [&](bool timed, bool traced) {
        std::optional<CpuTurn> turn;
        if (turn_cpus)
            turn.emplace(rounds.size());
        Spans::setThreadRecording(traced);
        Round r;
        r.traced = traced;
        int64_t start = nowNs();
        for (size_t i = 0; i < p.pairs.size(); ++i)
            r.pairs.push_back(run_pair(i, timed));
        r.endNs = nowNs();
        r.hostMs = static_cast<double>(r.endNs - start) / 1e6;
        Spans::setThreadRecording(true);
        if (timed)
            rounds.push_back(std::move(r));
    };

    round(/*timed=*/false, /*traced=*/false);
    if (opt.injectFault)
        p.gate->corruptNext = true;
    *t0 = nowNs();
    int64_t deadline = *t0 + static_cast<int64_t>(opt.seconds * 1e9);
    for (size_t r = 0; nowNs() < deadline; ++r)
        round(/*timed=*/true, opt.trace && r % 2 == 0);
    *t1 = nowNs();
    return rounds;
}

/**
 * The round metrics, from the quietest of `blocks` equal time blocks of
 * the run (the one whose rounds took the least host time): co-tenants
 * on a shared host slow whole stretches of a run, and the quietest
 * block is what repeats from run to run. Speedups are serial median
 * over pipeline median per pair, then gmean and minimum over pairs,
 * from every round: each pair's serial and pipelined runs alternate, so
 * a slow stretch shifts both sides of the ratio.
 */
void
reportRounds(const Options& opt, const std::vector<Round>& rounds, int64_t t0,
             int64_t t1, size_t blocks, Outcome* out)
{
    if (rounds.empty()) {
        out->fail("no timed round");
        return;
    }
    std::vector<std::vector<const Round*>> by_block(blocks);
    for (const Round& r : rounds)
        by_block[blockOf(r.endNs, t0, t1, blocks)].push_back(&r);
    size_t quiet = 0;
    double quiet_ms = 0.0;
    for (size_t b = 0; b < blocks; ++b) {
        std::vector<double> host;
        for (const Round* r : by_block[b])
            host.push_back(r->hostMs);
        if (!host.empty() && (quiet_ms == 0.0 || median(host) < quiet_ms)) {
            quiet = b;
            quiet_ms = median(host);
        }
    }
    const auto& block = by_block[quiet];
    size_t npairs = rounds.front().pairs.size();
    std::vector<double> fast, base;
    double instructions = 0.0, host_s = 0.0;
    for (const Round* r : block) {
        host_s += r->hostMs / 1e3;
        double f = 0.0, s = 0.0;
        for (const PairResult& pr : r->pairs) {
            f += pr.pipelineMs;
            s += pr.serialMs;
            instructions += pr.instructions;
        }
        fast.push_back(f);
        base.push_back(s);
    }
    std::vector<std::vector<double>> serial(npairs), pipeline(npairs);
    for (const Round& r : rounds) {
        for (size_t i = 0; i < npairs; ++i) {
            serial[i].push_back(r.pairs[i].serialMs);
            pipeline[i].push_back(r.pairs[i].pipelineMs);
        }
    }
    std::vector<double> speedups;
    for (size_t i = 0; i < npairs; ++i)
        speedups.push_back(median(serial[i]) / median(pipeline[i]));

    out->e2e["fast_ms_p50"] = median(fast);
    out->e2e["fast_ms_tail"] = percentile(fast, kRoundTail);
    out->e2e["base_ms_p50"] = median(base);
    out->e2e["speedup_gmean"] = gmean(speedups);
    out->e2e["worst_speedup"] =
        *std::min_element(speedups.begin(), speedups.end());
    out->e2e["ops_per_s"] = static_cast<double>(block.size()) / host_s;
    out->e2e["minst_per_s"] = instructions / 1e6 / host_s;
    out->layer["samples.fast"] = static_cast<double>(fast.size());
    out->layer["samples.base"] = static_cast<double>(base.size());

    std::vector<double> traced, untraced;
    for (const Round& r : rounds)
        (r.traced ? traced : untraced).push_back(r.hostMs);
    if (opt.trace && !traced.empty() && !untraced.empty())
        out->layer["trace.overhead"] = median(traced) / median(untraced);
}

/** Shared by both backends: count the run and record any failure. */
template <typename O>
void
account(Outcome* out, const std::string& what, const O& o)
{
    ++out->attempted;
    if (!o.correct)
        out->fail(what + ": " + o.error);
}

} // namespace

Outcome
runSuiteNative(const Options& opt)
{
    Outcome out;
    auto p = setUp(opt, kNativeScale, sim::SysConfig{}, &out);
    if (p == nullptr)
        return out;

    // Per-round exact counts (instructions, queue ops, RA elements) come
    // from the first timed round; the scheduling counters are summed
    // over every timed pipeline run and reported per round.
    double exact_ins = 0, exact_qops = 0, exact_ra = 0;
    double qops = 0, enq_blocks = 0, deq_blocks = 0, parks = 0, unparks = 0,
           steals = 0, vol_cs = 0, invol_cs = 0;
    double pop_batches = 0, pop_elems = 0, push_batches = 0, push_elems = 0;
    size_t timed_runs = 0;
    std::vector<std::vector<double>> serial_wall(p->pairs.size()),
        pipe_wall(p->pairs.size());

    int64_t t0 = 0, t1 = 0;
    // The runtime starts its task pool on the first native run, so the
    // native rounds stay unpinned.
    auto rounds = measureRounds(opt, *p, /*turn_cpus=*/false, &t0, &t1,
                                [&](size_t i, bool timed) {
        const auto& pair = p->pairs[i];
        driver::Experiment& ex = *p->exps[pair.kernel];
        const wl::Case& c = ex.workload().cases[pair.input];
        PairResult res;
        int64_t start = nowNs();
        driver::NativeOutcome ser;
        {
            auto s = spans().span("runtime", pair.name + ".serial");
            ser = ex.runNativeSerial(c);
        }
        res.serialMs = msSince(start);
        start = nowNs();
        driver::NativeOutcome pipe;
        {
            auto s = spans().span("runtime", pair.name + ".pipeline");
            pipe = ex.runNative(c, *p->pipelines[pair.kernel]);
        }
        res.pipelineMs = msSince(start);
        account(&out, pair.name + ".serial", ser);
        account(&out, pair.name + ".pipeline", pipe);
        res.instructions = static_cast<double>(
            ser.stats.totalInstructions() + pipe.stats.totalInstructions());
        if (!timed)
            return res;
        serial_wall[i].push_back(ser.stats.wallMs());
        pipe_wall[i].push_back(pipe.stats.wallMs());
        const rt::NativeStats& st = pipe.stats;
        double run_qops = 0, run_ra = 0;
        for (const auto& w : st.workers) {
            run_qops += static_cast<double>(w.queueOps);
            run_ra += static_cast<double>(w.raElements);
        }
        if (timed_runs++ < p->pairs.size()) {
            exact_ins += static_cast<double>(st.totalInstructions());
            exact_qops += run_qops;
            exact_ra += run_ra;
        }
        qops += run_qops;
        enq_blocks += static_cast<double>(st.totalEnqBlocks());
        deq_blocks += static_cast<double>(st.totalDeqBlocks());
        parks += static_cast<double>(st.sched.parks);
        unparks += static_cast<double>(st.sched.unparks);
        steals += static_cast<double>(st.sched.steals);
        vol_cs += static_cast<double>(st.rusage.voluntaryCtxSw);
        invol_cs += static_cast<double>(st.rusage.involuntaryCtxSw);
        for (const auto& q : st.queues) {
            pop_batches += static_cast<double>(q.popBatches);
            pop_elems += static_cast<double>(q.popBatchElems);
            push_batches += static_cast<double>(q.pushBatches);
            push_elems += static_cast<double>(q.pushBatchElems);
        }
        return res;
    });
    reportRounds(opt, rounds, t0, t1, kNativeBlocks, &out);

    for (size_t i = 0; i < p->pairs.size(); ++i) {
        const std::string& name = p->pairs[i].name;
        out.layer["runtime." + name + ".serial_ms"] = median(serial_wall[i]);
        out.layer["runtime." + name + ".pipeline_ms"] = median(pipe_wall[i]);
    }
    double n = static_cast<double>(rounds.size());
    out.layer["runtime.instructions"] = exact_ins;
    out.layer["runtime.queue_ops"] = exact_qops;
    out.layer["runtime.ra_elements"] = exact_ra;
    out.layer["runtime.enq_blocks"] = enq_blocks / n;
    out.layer["runtime.deq_blocks"] = deq_blocks / n;
    out.layer["runtime.blocks_per_kqop"] =
        qops > 0 ? 1000.0 * (enq_blocks + deq_blocks) / qops : 0.0;
    out.layer["runtime.parks"] = parks / n;
    out.layer["runtime.unparks"] = unparks / n;
    out.layer["runtime.steals"] = steals / n;
    out.layer["runtime.vol_ctx_switches"] = vol_cs / n;
    out.layer["runtime.invol_ctx_switches"] = invol_cs / n;
    out.layer["runtime.pop_batch_mean"] =
        pop_batches > 0 ? pop_elems / pop_batches : 0.0;
    out.layer["runtime.push_batch_mean"] =
        push_batches > 0 ? push_elems / push_batches : 0.0;
    return out;
}

Outcome
runSimSuite(const Options& opt)
{
    Outcome out;
    sim::SysConfig cfg = sim::SysConfig::scaledEval();
    auto p = setUp(opt, kSimScale, cfg, &out);
    if (p == nullptr)
        return out;

    // The reported times are simulated (cycles at the modeled clock),
    // so they and the speedups repeat exactly for one seed; the host's
    // cost of simulating shows in ops_per_s, minst_per_s and sim.host_ms.
    auto sim_ms = [&cfg](uint64_t cycles) {
        return static_cast<double>(cycles) / (cfg.freqGHz * 1e6);
    };
    double serial_cycles = 0, pipe_cycles = 0, instructions = 0,
           thread_cycles = 0, queue_stall = 0, frontend = 0, dram = 0,
           l1 = 0, accesses = 0;
    size_t timed_runs = 0;

    int64_t t0 = 0, t1 = 0;
    auto rounds = measureRounds(opt, *p, /*turn_cpus=*/true, &t0, &t1,
                                [&](size_t i, bool timed) {
        const auto& pair = p->pairs[i];
        driver::Experiment& ex = *p->exps[pair.kernel];
        const wl::Case& c = ex.workload().cases[pair.input];
        driver::RunOutcome ser, pipe;
        {
            auto s = spans().span("sim", pair.name + ".serial");
            ser = ex.runSerial(c);
        }
        {
            auto s = spans().span("sim", pair.name + ".pipeline");
            pipe = ex.runPipeline(c, *p->pipelines[pair.kernel]);
        }
        account(&out, pair.name + ".serial", ser);
        account(&out, pair.name + ".pipeline", pipe);
        PairResult res;
        res.serialMs = sim_ms(ser.stats.cycles);
        res.pipelineMs = sim_ms(pipe.stats.cycles);
        res.instructions = static_cast<double>(
            ser.stats.totalInstructions() + pipe.stats.totalInstructions());
        if (!timed || timed_runs++ >= p->pairs.size())
            return res;
        // Simulated counts repeat exactly; take them from the first round.
        const sim::RunStats& st = pipe.stats;
        serial_cycles += static_cast<double>(ser.stats.cycles);
        pipe_cycles += static_cast<double>(st.cycles);
        instructions += static_cast<double>(ser.stats.totalInstructions() +
                                            st.totalInstructions());
        thread_cycles += st.totalThreadCycles();
        queue_stall += st.totalQueueStallCycles();
        frontend += st.totalFrontendCycles();
        dram += static_cast<double>(st.mem.dramAccesses);
        l1 += static_cast<double>(st.mem.l1Hits);
        accesses += static_cast<double>(st.mem.totalAccesses());
        return res;
    });
    reportRounds(opt, rounds, t0, t1, kSimBlocks, &out);

    out.layer["sim.serial_cycles"] = serial_cycles;
    out.layer["sim.pipeline_cycles"] = pipe_cycles;
    out.layer["sim.instructions"] = instructions;
    out.layer["sim.queue_stall_frac"] =
        thread_cycles > 0 ? queue_stall / thread_cycles : 0.0;
    out.layer["sim.frontend_stall_frac"] =
        thread_cycles > 0 ? frontend / thread_cycles : 0.0;
    out.layer["sim.dram_accesses"] = dram;
    out.layer["sim.l1_hit_ratio"] = accesses > 0 ? l1 / accesses : 0.0;
    std::vector<double> host;
    for (const Round& r : rounds)
        host.push_back(r.hostMs);
    out.layer["sim.host_ms"] = median(host);
    return out;
}

} // namespace perfbench
