/**
 * @file
 * Open-loop and saturating load generation over one TWQ1 connection.
 *
 * One net::Client carries the whole phase: a sender thread writes
 * Infer frames on a fixed arrival schedule (or as fast as a bounded
 * in-flight window allows), and a receiver thread reads responses as
 * they come back, in whatever order the server's workers finish
 * them. Every response is keyed to its request by the id that
 * Client::send returned for it (IdIndex), never by arrival order, and
 * checked bit for bit against the expected output of its input.
 */

#ifndef TWQBENCH_HARNESS_OPENLOOP_HH
#define TWQBENCH_HARNESS_OPENLOOP_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/client.hh"

namespace twqbench
{

/**
 * Request index <- wire id, for ids handed out by Client::send.
 *
 * The sender binds request i to the id send() returned for it, in
 * order; the client assigns consecutive ids, which bind() asserts.
 * The receiver looks a response's id up. An id below the first bound
 * id or past the last one is reported as absent instead of wrapping
 * around into a huge index.
 */
class IdIndex
{
  public:
    explicit IdIndex(std::size_t capacity) : capacity_(capacity) {}

    /** Request `index` (0, 1, 2, ... in order) went out as `id`. */
    void bind(std::size_t index, std::uint64_t id);

    /** Index of the request sent as `id`, if it has been bound. */
    std::optional<std::size_t> lookup(std::uint64_t id) const;

    /**
     * lookup() that waits for a bind still in flight: the response
     * to a request can arrive before its sender has recorded the id.
     * Gives up after `timeoutMs`, or at once for an id that can never
     * be bound (below the first id, or past the capacity).
     */
    std::optional<std::size_t> waitLookup(std::uint64_t id,
                                          double timeoutMs = 1000.0) const;

  private:
    std::size_t capacity_;
    std::atomic<std::uint64_t> first_{0};
    std::atomic<std::size_t> bound_{0};
};

/** One load phase. */
struct Phase
{
    std::string name;
    /** Arrival rate of the open-loop schedule; 0 = saturating. */
    double rateRps = 0.0;
    /** Saturating phase: most requests in flight at once. */
    std::size_t window = 32;
    /** How long the sender keeps sending. */
    double seconds = 1.0;
    /** Send InferTimed frames and collect the server breakdown. */
    bool timed = false;
    /** Record client spans with one trace id per request. */
    bool traced = false;
};

/** Per-phase tallies and latency samples (milliseconds). */
struct PhaseResult
{
    std::string name;
    double rateRps = 0.0;
    std::size_t sent = 0;
    std::size_t ok = 0;
    /** Non-Ok statuses, wrong shapes and output mismatches. */
    std::size_t failed = 0;
    /** Of `failed`: Ok responses whose output differs from expected. */
    std::size_t mismatched = 0;
    /** Ok requests: receive time minus SCHEDULED send time. */
    std::vector<double> latMs;
    /** Ok requests: receive time minus actual send time. */
    std::vector<double> rttMs;
    /** Every request: actual minus scheduled send time. */
    std::vector<double> lagMs;
    /** Timed phases: the server's queue / batch / compute split. */
    std::vector<double> queueMs, batchMs, computeMs;
    /** First send to last receive. */
    double wallS = 0.0;

    double
    throughput() const
    {
        return wallS > 0.0 ? static_cast<double>(ok) / wallS : 0.0;
    }
};

/**
 * Drive `client` through one phase. Request i sends
 * `inputs[i % inputs.size()]` and must come back bit-identical to
 * `expected[i % inputs.size()]`.
 */
PhaseResult runPhase(twq::net::Client &client, const Phase &phase,
                     const std::vector<twq::TensorD> &inputs,
                     const std::vector<twq::TensorD> &expected);

/** Add `from`'s tallies and samples to `into`. */
void append(PhaseResult &into, const PhaseResult &from);

/** Bitwise equality of shape and payload. */
bool sameBits(const twq::Shape &shape, const std::vector<double> &data,
              const twq::TensorD &want);

} // namespace twqbench

#endif // TWQBENCH_HARNESS_OPENLOOP_HH
