#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "driver/compile_service.h"
#include "workloads/graph.h"
#include "workloads/kernels.h"
#include "workloads/matrix.h"

namespace perfbench {

namespace {

using namespace phloem;

constexpr int64_t kIntMax = 2147483647;

// Sub-seeds per generated input, so the inputs of one workload seed are
// independent of each other.
constexpr uint64_t kRmatSalt = 0x524d4154;
constexpr uint64_t kRoadSalt = 0x524f4144;
constexpr uint64_t kMatSalt = 0x4d415452;

// PageRank-Delta parameters, as in the kernel registry.
constexpr double kAlpha = 0.85;
constexpr double kEps = 0.02;
constexpr int kMaxIters = 8;

template <typename T>
void
digestInto(uint64_t* h, const std::vector<T>& v)
{
    std::string bytes(v.size() * sizeof(T), '\0');
    if (!v.empty())
        std::memcpy(bytes.data(), v.data(), bytes.size());
    *h = (*h * 1099511628211ull) ^ driver::fnv1a(bytes);
}

/** The expected contents of one output array. */
struct Golden
{
    std::string array;
    std::vector<int64_t> ints;
    std::vector<double> doubles;
};

/**
 * Compare the bound output against the golden (relative tolerance
 * 1e-12 on doubles, as the registry's checks use), after corrupting one
 * element when the gate is armed.
 */
bool
checkGolden(sim::Binding& b, const Golden& g, Gate& gate, std::string* err)
{
    auto* buf = b.array(g.array);
    if (gate.takeCorruption()) {
        if (g.doubles.empty())
            buf->setInt(0, buf->atInt(0) + 1);
        else
            buf->setDouble(0, buf->atDouble(0) + 1.0);
    }
    auto fail = [&](size_t i, const std::string& got,
                    const std::string& want) {
        if (err != nullptr)
            *err = g.array + "[" + std::to_string(i) + "] = " + got +
                   ", expected " + want;
        return false;
    };
    for (size_t i = 0; i < g.ints.size(); ++i) {
        int64_t got = buf->atInt(static_cast<int64_t>(i));
        if (got != g.ints[i])
            return fail(i, std::to_string(got), std::to_string(g.ints[i]));
    }
    for (size_t i = 0; i < g.doubles.size(); ++i) {
        double got = buf->atDouble(static_cast<int64_t>(i));
        double want = g.doubles[i];
        if (std::fabs(got - want) > 1e-12 * std::max(1.0, std::fabs(want)))
            return fail(i, std::to_string(got), std::to_string(want));
    }
    return true;
}

void
bindGraph(sim::Binding& b, const wl::CSRGraph& g)
{
    auto* nodes = b.makeArray("nodes", ir::ElemType::kI32,
                              static_cast<size_t>(g.n) + 1);
    for (int32_t v = 0; v <= g.n; ++v)
        nodes->setInt(v, g.nodes[static_cast<size_t>(v)]);
    auto* edges = b.makeArray("edges", ir::ElemType::kI32,
                              std::max<size_t>(1, g.edges.size()));
    for (size_t e = 0; e < g.edges.size(); ++e)
        edges->setInt(static_cast<int64_t>(e), g.edges[e]);
    b.setScalarInt("n", g.n);
}

using Graph = std::shared_ptr<const wl::CSRGraph>;
using BindFn = std::function<void(sim::Binding&, int)>;

BindFn
bindBfs(Graph g, int32_t root)
{
    return [g, root](sim::Binding& b, int) {
        bindGraph(b, *g);
        b.makeArray("dist", ir::ElemType::kI32, static_cast<size_t>(g->n))
            ->fillInt(kIntMax);
        b.makeArray("cur_fringe", ir::ElemType::kI32,
                    g->edges.size() + 1);
        b.makeArray("next_fringe", ir::ElemType::kI32,
                    g->edges.size() + 1);
        b.setScalarInt("root", root);
    };
}

BindFn
bindCc(Graph g)
{
    return [g](sim::Binding& b, int) {
        bindGraph(b, *g);
        size_t fringe = g->edges.size() + static_cast<size_t>(g->n) + 1;
        auto* labels = b.makeArray("labels", ir::ElemType::kI32,
                                   static_cast<size_t>(g->n));
        auto* cur = b.makeArray("cur_fringe", ir::ElemType::kI32, fringe);
        b.makeArray("next_fringe", ir::ElemType::kI32, fringe);
        for (int32_t v = 0; v < g->n; ++v) {
            labels->setInt(v, v);
            cur->setInt(v, v);
        }
    };
}

BindFn
bindPrd(Graph g)
{
    return [g](sim::Binding& b, int) {
        bindGraph(b, *g);
        size_t n = static_cast<size_t>(g->n);
        auto* rank = b.makeArray("rank", ir::ElemType::kF64, n);
        auto* delta = b.makeArray("delta", ir::ElemType::kF64, n);
        b.makeArray("accum", ir::ElemType::kF64, n);
        b.makeArray("receivers", ir::ElemType::kI32, n + 1);
        auto* cur = b.makeArray("cur_fringe", ir::ElemType::kI32, n + 1);
        b.makeArray("next_fringe", ir::ElemType::kI32, n + 1);
        for (int32_t v = 0; v < g->n; ++v) {
            rank->setDouble(v, 1.0 - kAlpha);
            delta->setDouble(v, 1.0 - kAlpha);
            cur->setInt(v, v);
        }
        b.setScalarInt("max_iters", kMaxIters);
        b.setScalar("alpha", ir::Value::fromDouble(kAlpha));
        b.setScalar("eps", ir::Value::fromDouble(kEps));
    };
}

BindFn
bindRadii(Graph g)
{
    return [g](sim::Binding& b, int) {
        bindGraph(b, *g);
        size_t fringe = g->edges.size() + static_cast<size_t>(g->n) + 65;
        auto* visited = b.makeArray("visited", ir::ElemType::kI64,
                                    static_cast<size_t>(g->n));
        auto* radii_out = b.makeArray("radii_out", ir::ElemType::kI32,
                                      static_cast<size_t>(g->n));
        auto* cur = b.makeArray("cur_fringe", ir::ElemType::kI32, fringe);
        b.makeArray("next_fringe", ir::ElemType::kI32, fringe);
        radii_out->fillInt(-1);
        auto samples = wl::radiiSamples(*g);
        for (size_t i = 0; i < samples.size(); ++i) {
            visited->setInt(samples[i],
                            static_cast<int64_t>(uint64_t{1} << i));
            radii_out->setInt(samples[i], 0);
            cur->setInt(static_cast<int64_t>(i), samples[i]);
        }
        b.setScalarInt("init_size", static_cast<int64_t>(samples.size()));
    };
}

BindFn
bindSpmm(std::shared_ptr<const wl::CSRMatrix> a,
         std::shared_ptr<const wl::CSRMatrix> bt)
{
    return [a, bt](sim::Binding& b, int) {
        auto bind_csr = [&b](const std::string& prefix,
                             const wl::CSRMatrix& m) {
            auto* pos = b.makeArray(prefix + "_pos", ir::ElemType::kI32,
                                    static_cast<size_t>(m.rows) + 1);
            for (int32_t i = 0; i <= m.rows; ++i)
                pos->setInt(i, m.pos[static_cast<size_t>(i)]);
            auto* crd = b.makeArray(prefix + "_crd", ir::ElemType::kI32,
                                    std::max<size_t>(1, m.crd.size()));
            auto* val = b.makeArray(prefix + "_val", ir::ElemType::kF64,
                                    std::max<size_t>(1, m.val.size()));
            for (size_t p = 0; p < m.crd.size(); ++p) {
                crd->setInt(static_cast<int64_t>(p), m.crd[p]);
                val->setDouble(static_cast<int64_t>(p), m.val[p]);
            }
        };
        bind_csr("a", *a);
        bind_csr("bt", *bt);
        b.makeArray("c", ir::ElemType::kF64,
                    static_cast<size_t>(a->rows) *
                        static_cast<size_t>(bt->rows));
        b.setScalarInt("n", a->rows);
        b.setScalarInt("m", bt->rows);
    };
}

wl::Case
makeCase(const std::string& input, BindFn bind,
         std::shared_ptr<const Golden> golden, std::shared_ptr<Gate> gate)
{
    wl::Case c;
    c.inputName = input;
    c.bind = std::move(bind);
    c.check = [golden, gate](sim::Binding& b, wl::Variant,
                             std::string* err) {
        return checkGolden(b, *golden, *gate, err);
    };
    return c;
}

template <typename T>
std::shared_ptr<const Golden>
golden(const std::string& array, const std::vector<T>& values)
{
    auto g = std::make_shared<Golden>();
    g->array = array;
    if constexpr (std::is_floating_point_v<T>)
        g->doubles = values;
    else
        g->ints.assign(values.begin(), values.end());
    return g;
}

wl::Workload
kernel(const std::string& name, const char* src)
{
    wl::Workload w;
    w.name = name;
    w.serialSrc = src;
    return w;
}

/** Highest-degree vertex, the registry's BFS root choice. */
int32_t
hubVertex(const wl::CSRGraph& g)
{
    int32_t best = 0;
    for (int32_t v = 0; v < g.n; ++v)
        if (g.degree(v) > g.degree(best))
            best = v;
    return best;
}

} // namespace

Suite
makeSuite(uint64_t seed, const SuiteScale& scale, std::shared_ptr<Gate> gate)
{
    Suite s;
    std::vector<std::pair<std::string, Graph>> graphs = {
        {"rmat", std::make_shared<const wl::CSRGraph>(wl::makeRMat(
                     scale.rmatN, scale.rmatEdges, seed ^ kRmatSalt))},
        {"road", std::make_shared<const wl::CSRGraph>(wl::makeRoadNetwork(
                     scale.roadN, scale.roadKeep, seed ^ kRoadSalt))},
    };
    auto a = std::make_shared<const wl::CSRMatrix>(wl::makeRandomMatrix(
        scale.matN, scale.matNnzPerRow, seed ^ kMatSalt));
    auto bt = std::make_shared<const wl::CSRMatrix>(wl::transpose(*a));

    uint64_t h = 14695981039346656037ull;
    for (const auto& [name, g] : graphs) {
        digestInto(&h, g->nodes);
        digestInto(&h, g->edges);
    }
    digestInto(&h, a->pos);
    digestInto(&h, a->crd);
    digestInto(&h, a->val);
    s.inputDigest = h;

    wl::Workload bfs = kernel("bfs", wl::kBfsSerial);
    wl::Workload cc = kernel("cc", wl::kCcSerial);
    wl::Workload prd = kernel("prd", wl::kPrdSerial);
    wl::Workload radii = kernel("radii", wl::kRadiiSerial);
    for (const auto& [name, g] : graphs) {
        int32_t root = hubVertex(*g);
        bfs.cases.push_back(makeCase(
            name, bindBfs(g, root), golden("dist", wl::bfsGolden(*g, root)),
            gate));
        cc.cases.push_back(makeCase(name, bindCc(g),
                                    golden("labels", wl::ccGolden(*g)),
                                    gate));
        prd.cases.push_back(makeCase(
            name, bindPrd(g),
            golden("rank", wl::prdGolden(*g, kAlpha, kEps, kMaxIters)),
            gate));
        radii.cases.push_back(makeCase(
            name, bindRadii(g), golden("radii_out", wl::radiiGolden(*g)),
            gate));
    }
    wl::Workload spmm = kernel("spmm", wl::kSpmmSerial);
    spmm.cases.push_back(makeCase("rand", bindSpmm(a, bt),
                                  golden("c", wl::spmmGolden(*a, *bt)),
                                  gate));
    s.workloads = {std::move(bfs), std::move(cc), std::move(prd),
                   std::move(radii), std::move(spmm)};
    return s;
}

} // namespace perfbench
