/**
 * @file
 * The untraced end-to-end runs of the three workloads.
 *
 *   serve-r20-int8   ResNet-20, tap-wise int8 F4, served over TWQ1
 *                    loopback by NetServer + InferenceServer (2
 *                    workers, batches up to 8): an open-loop phase at
 *                    a fixed arrival rate, then a saturating phase.
 *   batch-r34-int8   ResNet-34's 3x3 chain at 64 px, tap-wise int8
 *                    F4, Session::run at batch 8 from one caller.
 *   batch-r34-fp     the same network and inputs on the FP F4
 *                    blocked engine.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "harness/openloop.hh"
#include "harness/stats.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "runtime/server.hh"

namespace twqbench
{

using Clock = std::chrono::steady_clock;

namespace
{

const Workload kWorkloads[] = {
    {"serve-r20-int8", false, true, true, 1},
    {"batch-r34-int8", true, true, false, 8},
    {"batch-r34-fp", true, false, false, 8},
};

/**
 * Session builds per run. setup_s is their median; each int8 build
 * calibrates on its own draw, and out_err_rel is the median error
 * over the draws.
 */
constexpr int kServeSetups = 15;
/** Open-loop + saturating rounds of a serve run. */
constexpr int kServeRounds = 5;
constexpr int kBatchSetups = 3;
/** int8 builds of the FP workload's network for its out_err_rel. */
constexpr int kFpErrDraws = 2;
/** Distinct batches the batch workloads alternate between. */
constexpr std::size_t kBatchPool = 2;
/** Forwards per trial; a trial's latency is its fastest forward. */
constexpr std::size_t kTrialForwards = 5;
/** Images in the out_err_rel probe batch. */
constexpr std::size_t kProbeImages = 16;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Image `i` of an NCHW batch as a [1, C, H, W] tensor. */
twq::TensorD
imageOf(const twq::TensorD &batch, std::size_t i)
{
    twq::Shape shape = batch.shape();
    shape[0] = 1;
    twq::TensorD x(shape);
    const auto begin = batch.storage().begin() +
                       static_cast<std::ptrdiff_t>(i * x.numel());
    std::copy(begin, begin + static_cast<std::ptrdiff_t>(x.numel()),
              x.storage().begin());
    return x;
}

/** The session's output for each image of `batch` run alone, stacked. */
twq::TensorD
sequentialOutput(const twq::Session &s, const twq::TensorD &batch,
                 twq::ScratchArena &arena)
{
    const std::size_t n = batch.dim(0);
    twq::TensorD out;
    for (std::size_t i = 0; i < n; ++i) {
        const twq::TensorD y = s.run(imageOf(batch, i), arena);
        if (i == 0) {
            twq::Shape shape = y.shape();
            shape[0] = n;
            out = twq::TensorD(shape);
        }
        std::copy(y.storage().begin(), y.storage().end(),
                  out.storage().begin() +
                      static_cast<std::ptrdiff_t>(i * y.numel()));
    }
    return out;
}

/** The seeded probe batch out_err_rel is measured on. */
twq::TensorD
probeBatch(const twq::NetworkDesc &net, std::uint64_t seed)
{
    const twq::ConvLayerDesc &d = net.layers.front();
    return seededTensor({kProbeImages, d.cin, d.height, d.width},
                        subSeed(seed, 99));
}

/** The fp64 reference: every layer on the im2col engine. */
twq::SessionConfig
referenceConfig()
{
    twq::SessionConfig c;
    c.defaultEngine = twq::ConvEngine::Im2col;
    return c;
}

/** The fp64 im2col session's output on `probe`. */
twq::TensorD
referenceOutput(const twq::NetworkDesc &net, const twq::TensorD &probe)
{
    return twq::Session(net, referenceConfig()).run(probe);
}

/** Median relative RMS error of `outs` against `ref`. */
double
medianError(const std::vector<twq::TensorD> &outs, const twq::TensorD &ref)
{
    std::vector<double> errs;
    for (const twq::TensorD &y : outs)
        errs.push_back(relRmsError(y, ref));
    std::printf("# out_err_rel per calibration draw:");
    for (double e : errs)
        std::printf(" %.4f", e);
    std::printf("\n");
    return median(errs);
}

void
printSetups(const std::vector<double> &s)
{
    std::printf("# setup s per build:");
    for (double v : s)
        std::printf(" %.4f", v);
    std::printf("\n");
}

void
printPhase(const PhaseResult &p)
{
    std::printf("# phase %-6s rate=%s sent=%zu ok=%zu failed=%zu "
                "(mismatched=%zu) fail_frac=%.6f wall=%.3fs "
                "throughput=%.1f/s\n",
                p.name.c_str(),
                p.rateRps > 0 ? std::to_string(p.rateRps).c_str()
                              : "saturating",
                p.sent, p.ok, p.failed, p.mismatched,
                p.sent ? static_cast<double>(p.failed) / p.sent : 0.0,
                p.wallS, p.throughput());
    const double tail = tailPercentile(p.latMs.size());
    std::printf("#   latency ms: p50=%.3f p90=%.3f p99=%.3f max=%.3f; "
                "n=%zu, deepest tail with >=10 samples beyond: "
                "p%g=%.3f\n",
                median(p.latMs), pct(p.latMs, 90.0), pct(p.latMs, 99.0),
                pct(p.latMs, 100.0), p.latMs.size(), tail,
                pct(p.latMs, tail));
    std::printf("#   generator lag ms: p50=%.4f p99=%.4f max=%.4f\n",
                median(p.lagMs), pct(p.lagMs, 99.0),
                pct(p.lagMs, 100.0));
}

Result
runServe(const Workload &w, const Args &a)
{
    Result res;
    const twq::NetworkDesc net = chainNetwork(w);
    const twq::Shape one{1, net.layers[0].cin, net.layers[0].height,
                         net.layers[0].width};
    const twq::TensorD first = seededTensor(one, subSeed(a.seed, 3));
    const twq::TensorD probe = probeBatch(net, a.seed);

    std::vector<double> setupS;
    std::vector<twq::TensorD> probeOut;
    std::unique_ptr<ServeStack> stack;
    for (int k = 0; k < kServeSetups; ++k) {
        stack.reset();
        const twq::SessionConfig cfg =
            sessionConfig(w.int8, calibrationSeed(a.seed, k));
        const Clock::time_point t0 = Clock::now();
        stack = startServing(
            std::make_shared<const twq::Session>(net, cfg), first);
        setupS.push_back(secondsSince(t0));
        probeOut.push_back(stack->session->run(probe));
    }
    printSetups(setupS);
    const twq::Session &session = *stack->session;
    std::vector<twq::TensorD> inputs, expected;
    requestPool(session, a.seed, inputs, expected);

    // The run alternates open-loop and saturating rounds, so each
    // metric samples the whole run rather than one stretch of it.
    const PhaseResult warm = runPhase(
        stack->client, Phase{"warm", 0.0, 32, std::min(0.5, a.seconds * 0.05)},
        inputs, expected);
    PhaseResult open, sat;
    open.name = "open";
    open.rateRps = kServeRateRps;
    sat.name = "sat";
    std::vector<double> roundP50, roundIps;
    for (int r = 0; r < kServeRounds; ++r) {
        const PhaseResult o = runPhase(
            stack->client,
            Phase{"open", kServeRateRps, 0,
                  a.seconds * kServeOpenShare / kServeRounds},
            inputs, expected);
        const PhaseResult t = runPhase(
            stack->client,
            Phase{"sat", 0.0, 32,
                  a.seconds * (1.0 - kServeOpenShare) / kServeRounds},
            inputs, expected);
        roundP50.push_back(median(o.latMs));
        roundIps.push_back(t.throughput());
        append(open, o);
        append(sat, t);
    }
    const PhaseResult *phases[] = {&warm, &open, &sat};
    for (const PhaseResult *p : phases) {
        printPhase(*p);
        res.attempted += p->sent;
        res.failed += p->failed;
    }
    std::printf("# rounds: open p50 ms");
    for (double v : roundP50)
        std::printf(" %.3f", v);
    std::printf("; saturating img/s");
    for (double v : roundIps)
        std::printf(" %.1f", v);
    std::printf("\n");
    if (open.latMs.size() < 1000)
        std::printf("# warning: the open-loop rounds have fewer than 1000 "
                    "requests, so fewer than 10 lie beyond p99\n");
    const twq::ServerStats st = stack->server->stats();
    std::printf("# server: completed=%llu batches=%llu mean batch=%.3f "
                "shed=%llu\n",
                static_cast<unsigned long long>(st.completed),
                static_cast<unsigned long long>(st.batches),
                st.avgBatchSize(),
                static_cast<unsigned long long>(st.shed));
    stack.reset();

    res.add("throughput_ips", median(roundIps), "img/s");
    res.add("lat_p50_ms", median(roundP50), "ms");
    res.add("setup_s", median(setupS), "s");
    res.add("out_err_rel", medianError(probeOut, referenceOutput(net, probe)),
            "ratio");
    return res;
}

Result
runBatch(const Workload &w, const Args &a)
{
    Result res;
    const twq::NetworkDesc net = chainNetwork(w);
    const twq::Shape shape{w.batch, net.layers[0].cin,
                           net.layers[0].height, net.layers[0].width};
    std::vector<twq::TensorD> pool;
    for (std::size_t p = 0; p < kBatchPool; ++p)
        pool.push_back(seededTensor(shape, subSeed(a.seed, 2 + p)));
    const twq::TensorD probe = probeBatch(net, a.seed);

    // Sessions are large (an int8 ResNet-34 holds ~1.5 GB), so each
    // one is released before the next is built.
    std::vector<double> setupS;
    std::vector<twq::TensorD> probeOut;
    std::unique_ptr<twq::Session> session;
    twq::ScratchArena arena;
    for (int k = 0; k < kBatchSetups; ++k) {
        session.reset();
        arena = twq::ScratchArena();
        const twq::SessionConfig cfg =
            sessionConfig(w.int8, calibrationSeed(a.seed, k));
        const Clock::time_point t0 = Clock::now();
        session = std::make_unique<twq::Session>(net, cfg);
        (void)session->run(pool[0], arena);
        setupS.push_back(secondsSince(t0));
        probeOut.push_back(session->run(probe));
    }

    printSetups(setupS);

    // Reference answers: each image run alone (batched == sequential).
    std::vector<twq::TensorD> expected;
    for (const twq::TensorD &x : pool)
        expected.push_back(sequentialOutput(*session, x, arena));

    // Forwards run in trials; a trial's latency is its fastest
    // forward, which filters out the slow spells of a shared host.
    std::vector<double> latMs, trialMs;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0;
         secondsSince(start) < a.seconds || trialMs.size() < 3; ++i) {
        const twq::TensorD &x = pool[i % kBatchPool];
        const Clock::time_point t0 = Clock::now();
        const twq::TensorD y = session->run(x, arena);
        latMs.push_back(secondsSince(t0) * 1e3);
        ++res.attempted;
        if (!sameBits(y.shape(), y.storage(), expected[i % kBatchPool]))
            ++res.failed;
        if (latMs.size() % kTrialForwards == 0)
            trialMs.push_back(*std::min_element(
                latMs.end() - kTrialForwards, latMs.end()));
    }
    session.reset();
    std::printf("# forwards=%zu failed=%zu fail_frac=%.6f latency ms: "
                "p10=%.3f p50=%.3f p90=%.3f max=%.3f; %zu trials of %zu, "
                "trial-best p50=%.3f\n",
                latMs.size(), res.failed,
                static_cast<double>(res.failed) / latMs.size(),
                pct(latMs, 10.0), median(latMs), pct(latMs, 90.0),
                pct(latMs, 100.0), trialMs.size(), kTrialForwards,
                median(trialMs));

    const twq::TensorD yRef = referenceOutput(net, probe);
    if (!w.int8) {
        // The FP output is checked against fp64 within its budget;
        // out_err_rel reports the int8 F4 build of the same network,
        // the quantity the FP run is the baseline for.
        const double fpErr = relRmsError(probeOut.back(), yRef);
        ++res.attempted;
        const bool ok = fpErr <= kFpErrBudget;
        if (!ok)
            ++res.failed;
        std::printf("# fp F4 output vs fp64: rel rms %.3e (budget %.0e) "
                    "%s\n",
                    fpErr, kFpErrBudget, ok ? "ok" : "FAILED");
        probeOut.clear();
        for (int k = 0; k < kFpErrDraws; ++k)
            probeOut.push_back(
                twq::Session(net, sessionConfig(true,
                                                calibrationSeed(a.seed, k)))
                    .run(probe));
    }

    // Throughput at the same trial-best forward time, so both metrics
    // read one steady statistic.
    const double p50 = median(trialMs);
    res.add("throughput_ips", 1e3 * static_cast<double>(w.batch) / p50,
            "img/s");
    res.add("lat_p50_ms", p50, "ms");
    res.add("setup_s", median(setupS), "s");
    res.add("out_err_rel", medianError(probeOut, yRef), "ratio");
    return res;
}

} // namespace

ServeStack::~ServeStack()
{
    client.close();
    if (front)
        front->shutdown();
    if (server)
        server->shutdown();
}

std::unique_ptr<ServeStack>
startServing(std::shared_ptr<const twq::Session> session,
             const twq::TensorD &probe)
{
    auto stack = std::make_unique<ServeStack>();
    stack->session = std::move(session);
    twq::RuntimeConfig rc;
    rc.threads = 2;
    rc.batch.maxBatch = 8;
    stack->server =
        std::make_unique<twq::InferenceServer>(stack->session, rc);
    stack->front = std::make_unique<twq::net::NetServer>(
        *stack->server, twq::net::NetConfig{});
    const std::uint16_t port = stack->front->start();
    stack->client.connect("127.0.0.1", port);
    const twq::net::Frame f = stack->client.infer(probe);
    twq_assert(f.status == twq::net::Status::Ok,
               "first request failed with status ",
               twq::net::statusName(f.status));
    return stack;
}

void
requestPool(const twq::Session &s, std::uint64_t seed,
            std::vector<twq::TensorD> &inputs,
            std::vector<twq::TensorD> &expected)
{
    twq::ScratchArena arena;
    for (std::size_t i = 0; i < kServePool; ++i) {
        inputs.push_back(
            seededTensor(batchShape(s, 1), subSeed(seed, 1000 + i)));
        expected.push_back(s.run(inputs.back(), arena));
    }
}

twq::Shape
batchShape(const twq::Session &s, std::size_t n)
{
    const twq::Shape &in = s.inputShape();
    return {n, in[1], in[2], in[3]};
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

std::string
workloadNames()
{
    std::string s;
    for (const Workload &w : kWorkloads)
        s += std::string(s.empty() ? "" : ", ") + w.name;
    return s;
}

twq::NetworkDesc
chainNetwork(const Workload &w)
{
    const twq::NetworkDesc full =
        w.resnet34 ? twq::resnet34(64) : twq::resnet20();
    twq::NetworkDesc net;
    net.name = full.name;
    net.inputRes = full.inputRes;
    for (const twq::ConvLayerDesc &l : full.layers)
        if (l.kernel == 3)
            net.layers.push_back(l);
    return net;
}

twq::ConvLayerDesc
droppedStem(const Workload &w)
{
    if (!w.resnet34)
        return {};
    const twq::NetworkDesc full = twq::resnet34(64);
    twq_assert(full.layers[0].kernel == 7, "ResNet-34 stem is not 7x7");
    return full.layers[0];
}

twq::SessionConfig
sessionConfig(bool int8, std::uint64_t calSeed)
{
    twq::SessionConfig c;
    c.variant = twq::WinoVariant::F4;
    c.quant.variant = twq::WinoVariant::F4;
    c.defaultEngine = int8 ? twq::ConvEngine::WinogradBlockedInt8
                           : twq::ConvEngine::WinogradBlocked;
    c.autoSelect = false;
    c.calibrationSeed = calSeed;
    return c;
}

std::uint64_t
calibrationSeed(std::uint64_t seed, int draw)
{
    return subSeed(seed, 100 + static_cast<std::uint64_t>(draw));
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t tag)
{
    // splitmix64 finalizer over the pair.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + tag + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

twq::TensorD
seededTensor(const twq::Shape &shape, std::uint64_t seed)
{
    twq::TensorD t(shape);
    twq::Rng rng(seed);
    rng.fillNormal(t.storage(), 0.0, 1.0);
    return t;
}

double
relRmsError(const twq::TensorD &y, const twq::TensorD &ref)
{
    twq_assert(y.shape() == ref.shape(), "error of mismatched shapes");
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < y.numel(); ++i) {
        const double d = y[i] - ref[i];
        num += d * d;
        den += ref[i] * ref[i];
    }
    return std::sqrt(num / den);
}

Result
runEndToEnd(const Workload &w, const Args &a)
{
    return w.serve ? runServe(w, a) : runBatch(w, a);
}

} // namespace twqbench
