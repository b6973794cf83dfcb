/**
 * @file
 * The traced run: per-layer metrics, each timed from outside through
 * the library's public functions.
 *
 *  - net.*       encodeInfer / encodeResponse / FrameDecoder on the
 *                workload's frames, and Client round trips minus the
 *                server's ResponseTimed breakdown;
 *  - server.*    the ResponseTimed split and ServerStats deltas over
 *                an open-loop phase at the serve workload's rate;
 *  - setup.*, layer.*, quant.*
 *                ConvBackend::prepare and ::run per layer of the
 *                chain, on steady-state inputs in the backend's own
 *                layout (NCHWc8 for the blocked engines), with the
 *                session's weights and calibration;
 *  - layout.*    nchwToBlocked / blockedToNchw at the network's
 *                ingress and egress shapes;
 *  - stage.*     the Winograd stage spans the library already emits
 *                (winoc8.* / winoc8i.*), rolled up over traced
 *                Session::run forwards, with analytic FLOPs and bytes
 *                (harness/flops.hh);
 *  - trace.*     the tracing overhead (traced minus untraced forward)
 *                and the share of the untraced forward that the
 *                per-layer sums leave unaccounted.
 *
 * The benchmark's own spans (bench.*) bracket every call above and
 * stay in the in-memory trace rings until the end of the run. A
 * metric that the workload does not exercise (server metrics of the
 * in-process workloads, a stage the engine does not have, a ResNet
 * stage the network lacks) reads 0.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "harness/flops.hh"
#include "harness/openloop.hh"
#include "harness/stats.hh"
#include "layout/layout.hh"
#include "net/protocol.hh"
#include "obs/trace.hh"
#include "runtime/engine.hh"
#include "tensor/im2col.hh"

namespace twqbench
{

using Clock = std::chrono::steady_clock;

namespace
{

/** Per-thread trace ring: holds a whole traced serve phase. */
constexpr std::size_t kRingSlots = std::size_t{1} << 19;

const char *const kGroups[] = {"stem", "layer1", "layer2", "layer3",
                               "layer4"};
const char *const kStages[] = {"quantize", "gather",  "bkron",
                               "requant",  "tapgemm", "rescale",
                               "akron",    "untile"};

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** "layer3.rest.4" -> "layer3"; anything else is the stem. */
std::string
groupOf(const std::string &layerName)
{
    if (layerName.rfind("layer", 0) == 0)
        return layerName.substr(0, layerName.find('.'));
    return "stem";
}

/** The Session's weight draw (He-normal, seeded per layer index). */
twq::TensorD
heWeights(const twq::ConvLayerDesc &d, std::uint64_t seed)
{
    twq::TensorD w({d.cout, d.cin, d.kernel, d.kernel});
    twq::Rng rng(seed);
    rng.fillNormal(w.storage(), 0.0,
                   std::sqrt(2.0 / static_cast<double>(
                                       d.cin * d.kernel * d.kernel)));
    return w;
}

twq::ConvParams
paramsOf(const twq::ConvLayerDesc &d)
{
    return twq::ConvParams{d.kernel, d.stride, (d.kernel - 1) / 2};
}

twq::TensorD
toBlocked(const twq::TensorD &x)
{
    twq::TensorD b(twq::blockedShape(x.shape()));
    twq::nchwToBlocked(x, b);
    return b;
}

/** One layer profiled through its backend. */
struct LayerRow
{
    std::string name;
    std::string group;
    bool strided = false;
    double prepareS = 0.0;
    double runMs = 0.0;
    double errRel = -1.0; ///< measured on one layer per group
};

/** A prepared backend for one layer. */
struct PreparedConv
{
    std::shared_ptr<const twq::ConvBackend> backend;
    std::shared_ptr<const twq::PreparedLayer> prep;
    double prepareS = 0.0;
};

/** Prepare `d` on `engine`, calibrating int8 engines on `cal`. */
PreparedConv
prepareConv(const twq::ConvLayerDesc &d, twq::ConvEngine engine,
            const twq::TensorD &weights, const twq::SessionConfig &cfg,
            const twq::TensorD &cal)
{
    PreparedConv pc;
    pc.backend = twq::EngineRegistry::instance().get(engine);
    twq_assert(pc.backend->supports(d), "engine cannot run layer ", d.name);
    twq::LayerBuild build;
    build.params = paramsOf(d);
    build.variant = cfg.variant;
    build.quant = cfg.quant;
    const std::vector<twq::TensorD> calSet{cal};
    if (engine == twq::ConvEngine::WinogradBlockedInt8 ||
        engine == twq::ConvEngine::Im2colInt8)
        build.calibration = &calSet;
    const Clock::time_point t0 = Clock::now();
    twq::obs::Span span("bench.prepare");
    pc.prep = pc.backend->prepare(d, weights, build);
    pc.prepareS = msSince(t0) * 1e-3;
    return pc;
}

/**
 * Run a prepared layer on `x` (logical NCHW) in the backend's own
 * layout, `reps` timed times after one warm-up; returns the NCHW
 * output and the median time in `ms`.
 */
twq::TensorD
runConv(const twq::ConvLayerDesc &d, const PreparedConv &pc,
        const twq::TensorD &x, int reps, double *ms)
{
    const twq::ConvBackend &b = *pc.backend;
    const twq::TensorD in =
        b.inputLayout() == twq::ActLayout::NCHWc8 ? toBlocked(x) : x;
    twq::TensorD out(b.outputShape(*pc.prep, in.shape()));
    twq::ScratchArena arena;
    b.run(*pc.prep, in, arena, out); // warm the arena
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
        const Clock::time_point t0 = Clock::now();
        twq::obs::Span span("bench.run");
        b.run(*pc.prep, in, arena, out);
        t.push_back(msSince(t0));
    }
    if (ms)
        *ms = median(t);
    if (b.outputLayout() != twq::ActLayout::NCHWc8)
        return out;
    twq::TensorD y({x.dim(0), d.cout, d.outHeight(), d.outWidth()});
    twq::blockedToNchw(out, y);
    return y;
}

/**
 * quant.err_rel of one layer: its tap-wise int8 F4 build (the
 * im2col-int8 fallback for strided layers), calibrated like the
 * Session, against fp64 conv2dDirect on the same input. Measured for
 * every workload, so the FP run reports the int8 error of its
 * network as its out_err_rel does.
 */
double
int8LayerError(const twq::ConvLayerDesc &d, const twq::TensorD &weights,
               const twq::SessionConfig &cfg, const twq::TensorD &x,
               const twq::TensorD &cal, Result &res)
{
    const PreparedConv pc = prepareConv(
        d,
        d.winogradEligible() ? twq::ConvEngine::WinogradBlockedInt8
                             : twq::ConvEngine::Im2colInt8,
        weights, cfg, cal);
    const double err = relRmsError(
        runConv(d, pc, x, 0, nullptr),
        twq::conv2dDirect(x, weights, paramsOf(d)));
    ++res.attempted;
    if (!std::isfinite(err))
        ++res.failed;
    return err;
}

/**
 * Prepare and time `d` on `engine` with input `act` (logical NCHW),
 * leaving the layer's output in `act` and advancing the calibration
 * set `cal` through the layer in fp64 like the Session does. With
 * `measureErr`, also the layer's int8 error.
 */
LayerRow
profileLayer(const twq::ConvLayerDesc &d, twq::ConvEngine engine,
             const twq::TensorD &weights, const twq::SessionConfig &cfg,
             twq::TensorD &act, twq::TensorD &cal, int reps,
             bool measureErr, Result &res)
{
    LayerRow row;
    row.name = d.name;
    row.group = groupOf(d.name);
    row.strided = d.stride != 1;
    const PreparedConv pc = prepareConv(d, engine, weights, cfg, cal);
    row.prepareS = pc.prepareS;
    twq::TensorD y = runConv(d, pc, act, reps, &row.runMs);
    if (measureErr)
        row.errRel = int8LayerError(d, weights, cfg, act, cal, res);
    cal = twq::conv2dIm2col(cal, weights, paramsOf(d));
    act = std::move(y);
    return row;
}

/**
 * Every layer of the chain (plus ResNet-34's dropped stem, on its
 * own) through its backend, in chain order on propagated activations.
 */
std::vector<LayerRow>
profileLayers(const Workload &w, const twq::SessionConfig &cfg,
              std::uint64_t seed, int reps, Result &res)
{
    const twq::NetworkDesc net = chainNetwork(w);
    const std::vector<twq::ConvLayerDesc> descs = net.expandedLayers();
    const twq::ConvEngine fallback =
        w.int8 ? twq::ConvEngine::Im2colInt8 : twq::ConvEngine::Im2col;
    std::vector<LayerRow> rows;
    std::map<std::string, bool> errDone;

    const twq::ConvLayerDesc stem = droppedStem(w);
    if (!stem.name.empty()) {
        twq::TensorD x = seededTensor(
            {w.batch, stem.cin, stem.height, stem.width}, subSeed(seed, 5));
        twq::TensorD cal = seededTensor(
            {cfg.calibrationSamples, stem.cin, stem.height, stem.width},
            subSeed(seed, 6));
        rows.push_back(profileLayer(stem, fallback,
                                    heWeights(stem, cfg.weightSeed), cfg,
                                    x, cal, reps, true, res));
        errDone["stem"] = true;
    }

    const twq::ConvLayerDesc &d0 = descs.front();
    twq::TensorD act = seededTensor({w.batch, d0.cin, d0.height, d0.width},
                                    subSeed(seed, 2));
    // The Session's calibration draw, advanced layer by layer.
    twq::TensorD cal = seededTensor(
        {cfg.calibrationSamples, d0.cin, d0.height, d0.width},
        cfg.calibrationSeed);
    for (std::size_t i = 0; i < descs.size(); ++i) {
        const twq::ConvLayerDesc &d = descs[i];
        const std::string group = groupOf(d.name);
        const bool err = d.stride == 1 && !errDone[group];
        if (err)
            errDone[group] = true;
        rows.push_back(profileLayer(
            d, d.winogradEligible() ? cfg.defaultEngine : fallback,
            heWeights(d, cfg.weightSeed + i), cfg, act, cal, reps, err,
            res));
    }
    return rows;
}

/** Median microseconds of one request + response encode/decode. */
double
codecMicros(const twq::TensorD &in, const twq::TensorD &out, int reps,
            Result &res)
{
    std::vector<double> us;
    std::vector<std::uint8_t> bytes;
    for (int r = 0; r < reps; ++r) {
        twq::net::FrameDecoder dec;
        twq::net::Frame req, resp;
        const Clock::time_point t0 = Clock::now();
        {
            twq::obs::TraceContext ctx(twq::obs::mintTraceId());
            twq::obs::Span span("bench.codec");
            bytes.clear();
            twq::net::encodeInfer(r + 1, in, bytes);
            dec.feed(bytes.data(), bytes.size());
            const bool gotReq =
                dec.next(&req) == twq::net::FrameDecoder::Result::Frame;
            bytes.clear();
            twq::net::encodeResponse(r + 1, twq::net::Status::Ok, &out,
                                     bytes);
            dec.feed(bytes.data(), bytes.size());
            const bool gotResp =
                dec.next(&resp) == twq::net::FrameDecoder::Result::Frame;
            us.push_back(msSince(t0) * 1e3);
            ++res.attempted;
            if (!gotReq || !gotResp || !sameBits(req.shape, req.data, in) ||
                !sameBits(resp.shape, resp.data, out))
                ++res.failed;
        }
    }
    return median(us);
}

/** Named per-layer metrics, all present, in a fixed order. */
class MetricTable
{
  public:
    MetricTable()
    {
        def("net.codec_us", "us");
        def("net.wire_ms", "ms");
        def("server.queue_ms_p50", "ms");
        def("server.queue_ms_p99", "ms");
        def("server.compute_ms_p50", "ms");
        def("server.batch_size_mean", "req");
        def("setup.prepare_s", "s");
        for (const char *g : kGroups)
            def(std::string("layer.") + g + ".ms", "ms");
        def("layer.strided.ms", "ms");
        def("layout.convert_ms", "ms");
        for (const char *s : kStages) {
            def(std::string("stage.") + s + ".ms", "ms");
            def(std::string("stage.") + s + ".gflops", "GFLOP/s");
            def(std::string("stage.") + s + ".gbps", "GB/s");
        }
        for (const char *g : kGroups)
            def(std::string("quant.err_rel.") + g, "ratio");
        def("trace.overhead_pct", "%");
        def("trace.unaccounted_pct", "%");
    }

    double &
    operator[](const std::string &name)
    {
        for (Metric &m : metrics_)
            if (m.name == name)
                return m.value;
        twq_fatal("undeclared per-layer metric ", name);
    }

    std::vector<Metric> metrics() const { return metrics_; }

  private:
    void def(std::string name, const char *unit)
    {
        metrics_.push_back({std::move(name), 0.0, unit});
    }

    std::vector<Metric> metrics_;
};

/** Server breakdown over one traced open-loop phase. */
void
serveBreakdown(const Workload &w, std::shared_ptr<const twq::Session> s,
               const Args &a, MetricTable &m, Result &res)
{
    std::vector<twq::TensorD> inputs, expected;
    requestPool(*s, a.seed, inputs, expected);
    auto stack = startServing(s, inputs[0]);
    const twq::ServerStats before = stack->server->stats();
    Phase open{"open", kServeRateRps, 0, a.seconds * kServeOpenShare,
               /*timed=*/true, /*traced=*/true};
    const PhaseResult p = runPhase(stack->client, open, inputs, expected);
    const twq::ServerStats after = stack->server->stats();
    res.attempted += p.sent;
    res.failed += p.failed;

    std::vector<double> wire;
    for (std::size_t i = 0; i < p.rttMs.size(); ++i)
        wire.push_back(p.rttMs[i] - p.queueMs[i] - p.batchMs[i] -
                       p.computeMs[i]);
    m["net.wire_ms"] = median(wire);
    m["server.queue_ms_p50"] = median(p.queueMs);
    m["server.queue_ms_p99"] = pct(p.queueMs, 99.0);
    m["server.compute_ms_p50"] = median(p.computeMs);
    const double batches =
        static_cast<double>(after.batches - before.batches);
    m["server.batch_size_mean"] =
        batches > 0 ? static_cast<double>(after.completed -
                                          before.completed) /
                          batches
                    : 0.0;
    std::printf("# traced open phase: sent=%zu ok=%zu failed=%zu, "
                "%s at batch %zu\n",
                p.sent, p.ok, p.failed, w.name, w.batch);
}

} // namespace

Result
runTraced(const Workload &w, const Args &a)
{
    Result res;
    MetricTable m;
    twq::obs::TraceCollector &tc = twq::obs::TraceCollector::global();
    tc.reset();
    tc.enable(kRingSlots);
    twq::obs::setThreadLane("bench main");

    const twq::SessionConfig cfg =
        sessionConfig(w.int8, calibrationSeed(a.seed, 0));
    std::shared_ptr<const twq::Session> session;
    {
        twq::obs::Span span("bench.session_build");
        session = std::make_shared<const twq::Session>(chainNetwork(w), cfg);
    }
    const twq::TensorD x1 =
        seededTensor(batchShape(*session, 1), subSeed(a.seed, 3));
    const twq::TensorD xb =
        seededTensor(batchShape(*session, w.batch), subSeed(a.seed, 2));
    twq::ScratchArena arena;
    const twq::TensorD y1 = session->run(x1, arena);
    const twq::TensorD yb = session->run(xb, arena);

    m["net.codec_us"] = codecMicros(x1, y1, 200, res);
    if (w.serve)
        serveBreakdown(w, session, a, m, res);

    // Whole forwards, alternating untraced and traced: the tracing
    // overhead, the unaccounted remainder, and the stage roll-up.
    const std::map<std::string, twq::obs::StageTotal> before =
        tc.aggregate();
    std::vector<double> plainMs, tracedMs;
    const int fwd = w.resnet34 ? 6 : 60;
    for (int r = 0; r < fwd; ++r) {
        for (bool traced : {false, true}) {
            if (traced)
                tc.enable(kRingSlots);
            const Clock::time_point t0 = Clock::now();
            const twq::TensorD y = [&] {
                twq::obs::TraceContext ctx(
                    traced ? twq::obs::mintTraceId() : 0);
                twq::obs::Span span("bench.forward");
                return session->run(xb, arena);
            }();
            (traced ? tracedMs : plainMs).push_back(msSince(t0));
            tc.disable();
            ++res.attempted;
            if (!sameBits(y.shape(), y.storage(), yb))
                ++res.failed;
        }
    }
    const std::map<std::string, twq::obs::StageTotal> after =
        tc.aggregate();
    const double plain = median(plainMs);
    m["trace.overhead_pct"] = 100.0 * (median(tracedMs) - plain) / plain;
    const twq::Shape outShape{w.batch, session->outputShape()[1],
                              session->outputShape()[2],
                              session->outputShape()[3]};
    tc.enable(kRingSlots);

    // Per layer, through the backends.
    const int reps = w.resnet34 ? 5 : 20;
    const std::vector<LayerRow> rows =
        profileLayers(w, cfg, a.seed, reps, res);
    double chainMs = 0.0;
    for (const LayerRow &r : rows) {
        const bool inChain = !(w.resnet34 && r.group == "stem");
        if (inChain) {
            m["setup.prepare_s"] += r.prepareS;
            chainMs += r.runMs;
        }
        if (r.strided && inChain)
            m["layer.strided.ms"] += r.runMs;
        else
            m["layer." + r.group + ".ms"] += r.runMs;
        if (r.errRel >= 0.0)
            m["quant.err_rel." + r.group] = r.errRel;
        std::printf("# layer %-16s %-7s %s prepare %.4f s run %.4f ms%s\n",
                    r.name.c_str(), r.group.c_str(),
                    r.strided ? "s2" : "s1", r.prepareS, r.runMs,
                    r.errRel >= 0.0
                        ? (" err_rel " + std::to_string(r.errRel)).c_str()
                        : "");
    }

    // Ingress / egress conversion at the workload batch.
    {
        const twq::TensorD yo = seededTensor(outShape, subSeed(a.seed, 7));
        twq::TensorD xin(twq::blockedShape(xb.shape()));
        twq::TensorD yblk = toBlocked(yo);
        twq::TensorD yout(outShape);
        std::vector<double> ms;
        for (int r = 0; r < 5 * reps; ++r) {
            const Clock::time_point t0 = Clock::now();
            twq::obs::Span span("bench.convert");
            twq::nchwToBlocked(xb, xin);
            twq::blockedToNchw(yblk, yout);
            ms.push_back(msSince(t0));
        }
        ++res.attempted;
        if (!sameBits(yout.shape(), yout.storage(), yo))
            ++res.failed;
        m["layout.convert_ms"] = median(ms);
    }

    m["trace.unaccounted_pct"] =
        100.0 * (plain - chainMs - m["layout.convert_ms"]) / plain;

    std::map<std::string, StageCost> cost;
    for (const twq::ConvLayerDesc &d : chainNetwork(w).expandedLayers()) {
        if (!d.winogradEligible())
            continue;
        const LayerShape s{w.batch, d.cin, d.cout, d.height, d.width};
        for (const auto &[stage, c] :
             blockedStageCosts(s, cfg.variant, w.int8)) {
            cost[stage].flops += c.flops;
            cost[stage].bytes += c.bytes;
        }
    }
    const std::string prefix = w.int8 ? "winoc8i." : "winoc8.";
    for (const char *stage : kStages) {
        const std::string span = prefix + stage;
        const auto hi = after.find(span);
        if (hi == after.end())
            continue;
        const auto lo = before.find(span);
        const double ns = static_cast<double>(
            hi->second.totalNs -
            (lo == before.end() ? 0 : lo->second.totalNs));
        const double ms = ns * 1e-6 / fwd;
        const std::string key = std::string("stage.") + stage;
        m[key + ".ms"] = ms;
        m[key + ".gflops"] = cost[stage].flops / (ms * 1e6);
        m[key + ".gbps"] = cost[stage].bytes / (ms * 1e6);
    }

    for (const auto &[name, t] : tc.aggregate())
        if (name.rfind("bench.", 0) == 0)
            std::printf("# span %-20s count=%llu total=%.3f ms\n",
                        name.c_str(),
                        static_cast<unsigned long long>(t.count),
                        t.totalNs * 1e-6);
    std::printf("# untraced forward %.3f ms, traced %.3f ms, per-layer "
                "sum %.3f ms + convert %.3f ms; trace events dropped: "
                "%llu\n",
                plain, median(tracedMs), chainMs, m["layout.convert_ms"],
                static_cast<unsigned long long>(tc.droppedEvents()));
    // Layer span names point into the session: drop the trace before
    // the session goes.
    tc.reset();
    res.metrics = m.metrics();
    return res;
}

} // namespace twqbench
