/**
 * @file
 * Shared pieces of the benchmark: the workloads, their networks and
 * session configurations, seeded inputs, and the result record that
 * main() prints.
 */

#ifndef TWQBENCH_BENCH_HH
#define TWQBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include <memory>

#include "models/zoo.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "runtime/server.hh"
#include "runtime/session.hh"

namespace twqbench
{

/** Command line. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string commit = "unknown";
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one run reports. */
struct Result
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/** One benchmark workload. */
struct Workload
{
    const char *name;
    /** ResNet-20 (CIFAR) or ResNet-34's 3x3 chain at 64 px. */
    bool resnet34;
    /** Tap-wise int8 F4 (WinogradBlockedInt8) or FP F4 (WinogradBlocked). */
    bool int8;
    /** Served over TWQ1 loopback, or Session::run in process. */
    bool serve;
    /** Images per forward (batch workloads) or per request (serve). */
    std::size_t batch;
};

/** The workload called `name`, or null. */
const Workload *findWorkload(const std::string &name);

/** Names of all workloads, for usage messages. */
std::string workloadNames();

/**
 * The paper's network as a chain the Session can run: ResNet-20 or
 * ResNet-34 (64 px input) from models/zoo with the 1x1 `.down`
 * projections dropped (the residual topology is elided), and for
 * ResNet-34 also the 7x7 stem, so layer1 starts the chain at 16x16.
 */
twq::NetworkDesc chainNetwork(const Workload &w);

/**
 * ResNet-34's 7x7 stride-2 stem, which the chain drops; timed on its
 * own in the traced run. Empty name for ResNet-20, whose 3x3 stem
 * stays in the chain.
 */
twq::ConvLayerDesc droppedStem(const Workload &w);

/**
 * A workload session: the engine pinned (no autoSelect race) at F4,
 * strided layers on the im2col fallback of the same precision, int8
 * scales calibrated on a draw from `calSeed`. The weights are fixed:
 * every seed runs the same model on different inputs.
 */
twq::SessionConfig sessionConfig(bool int8, std::uint64_t calSeed);

/** Calibration seed of the run's `draw`-th session build. */
std::uint64_t calibrationSeed(std::uint64_t seed, int draw);

/** Independent sub-seed `tag` of `seed`. */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t tag);

/** An N(0, 1) tensor of `shape` drawn from `seed`. */
twq::TensorD seededTensor(const twq::Shape &shape, std::uint64_t seed);

/** Relative RMS error of `y` against `ref`. */
double relRmsError(const twq::TensorD &y, const twq::TensorD &ref);

/** Relative RMS error budget of the FP F4 output against fp64. */
inline constexpr double kFpErrBudget = 1e-4;

/** Arrival rate of the serve workload's open-loop phase. */
inline constexpr double kServeRateRps = 150.0;
/** Share of --seconds the serve workload spends open-loop. */
inline constexpr double kServeOpenShare = 0.7;
/** Distinct request inputs the serve phases cycle through. */
inline constexpr std::size_t kServePool = 64;

/**
 * A live serving stack on an ephemeral loopback port: the serve
 * workload's InferenceServer (2 workers, batches up to 8) behind a
 * NetServer, and one connected client.
 */
struct ServeStack
{
    std::shared_ptr<const twq::Session> session;
    std::unique_ptr<twq::InferenceServer> server;
    std::unique_ptr<twq::net::NetServer> front;
    twq::net::Client client;

    ~ServeStack();
};

/** Serve `session` and answer one request (`probe`) through it. */
std::unique_ptr<ServeStack>
startServing(std::shared_ptr<const twq::Session> session,
             const twq::TensorD &probe);

/**
 * The serve workload's request pool drawn from `seed`, and each
 * input's batch-1 in-process answer, which every served response
 * must match bit for bit.
 */
void requestPool(const twq::Session &s, std::uint64_t seed,
                 std::vector<twq::TensorD> &inputs,
                 std::vector<twq::TensorD> &expected);

/** The session's input shape at batch `n`. */
twq::Shape batchShape(const twq::Session &s, std::size_t n);

/** The untraced run: end-to-end metrics. */
Result runEndToEnd(const Workload &w, const Args &a);

/** The traced run: per-layer metrics. */
Result runTraced(const Workload &w, const Args &a);

} // namespace twqbench

#endif // TWQBENCH_BENCH_HH
