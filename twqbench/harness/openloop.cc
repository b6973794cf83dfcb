#include "harness/openloop.hh"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "obs/trace.hh"

namespace twqbench
{

using Clock = std::chrono::steady_clock;

void
IdIndex::bind(std::size_t index, std::uint64_t id)
{
    const std::size_t n = bound_.load(std::memory_order_relaxed);
    twq_assert(index == n, "requests must be bound in send order");
    twq_assert(index < capacity_, "request index ", index,
               " past the phase capacity ", capacity_);
    if (index == 0)
        first_.store(id, std::memory_order_relaxed);
    else
        twq_assert(id == first_.load(std::memory_order_relaxed) + index,
                   "client ids are not consecutive: request ", index,
                   " went out as id ", id);
    bound_.store(n + 1, std::memory_order_release);
}

std::optional<std::size_t>
IdIndex::lookup(std::uint64_t id) const
{
    const std::size_t n = bound_.load(std::memory_order_acquire);
    if (n == 0)
        return std::nullopt;
    const std::uint64_t first = first_.load(std::memory_order_relaxed);
    if (id < first || id - first >= n)
        return std::nullopt;
    return static_cast<std::size_t>(id - first);
}

std::optional<std::size_t>
IdIndex::waitLookup(std::uint64_t id, double timeoutMs) const
{
    const auto deadline =
        Clock::now() + std::chrono::duration<double, std::milli>(timeoutMs);
    for (;;) {
        if (auto idx = lookup(id))
            return idx;
        if (bound_.load(std::memory_order_acquire) > 0) {
            const std::uint64_t first =
                first_.load(std::memory_order_relaxed);
            if (id < first || id - first >= capacity_)
                return std::nullopt;
        }
        if (Clock::now() > deadline)
            return std::nullopt;
        std::this_thread::yield();
    }
}

void
append(PhaseResult &into, const PhaseResult &from)
{
    into.sent += from.sent;
    into.ok += from.ok;
    into.failed += from.failed;
    into.mismatched += from.mismatched;
    into.wallS += from.wallS;
    for (auto [dst, src] :
         {std::pair{&into.latMs, &from.latMs}, {&into.rttMs, &from.rttMs},
          {&into.lagMs, &from.lagMs}, {&into.queueMs, &from.queueMs},
          {&into.batchMs, &from.batchMs}, {&into.computeMs, &from.computeMs}})
        dst->insert(dst->end(), src->begin(), src->end());
}

bool
sameBits(const twq::Shape &shape, const std::vector<double> &data,
         const twq::TensorD &want)
{
    return shape == want.shape() && data.size() == want.numel() &&
           std::memcmp(data.data(), want.data(),
                       data.size() * sizeof(double)) == 0;
}

namespace
{

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

} // namespace

PhaseResult
runPhase(twq::net::Client &client, const Phase &phase,
         const std::vector<twq::TensorD> &inputs,
         const std::vector<twq::TensorD> &expected)
{
    twq_assert(!inputs.empty() && inputs.size() == expected.size(),
               "phase needs one expected output per input");
    const bool open = phase.rateRps > 0.0;
    const std::size_t capacity =
        open ? static_cast<std::size_t>(
                   std::ceil(phase.rateRps * phase.seconds))
             : static_cast<std::size_t>(phase.seconds * 50000.0) + 1;

    IdIndex index(capacity);
    std::vector<Clock::time_point> sched(capacity), sentAt(capacity);
    std::vector<std::uint64_t> traceIds(capacity, 0);
    std::atomic<std::size_t> sent{0}, received{0};
    // The receiver sleeps while nothing is in flight and the sender
    // while its window is full; neither spins on a core the server
    // under test needs.
    std::mutex mu;
    std::condition_variable wake;
    bool senderDone = false;

    PhaseResult r;
    r.name = phase.name;
    r.rateRps = phase.rateRps;
    r.latMs.reserve(capacity);
    r.rttMs.reserve(capacity);
    Clock::time_point lastRecv;

    std::thread receiver([&] {
        twq::obs::setThreadLane("bench receiver");
        twq::net::Frame f;
        for (;;) {
            const std::size_t got = received.load(std::memory_order_relaxed);
            {
                std::unique_lock<std::mutex> lock(mu);
                wake.wait(lock, [&] {
                    return sent.load(std::memory_order_acquire) > got ||
                           senderDone;
                });
                if (sent.load(std::memory_order_acquire) == got)
                    break; // sender done, everything answered
            }
            bool live;
            {
                twq::obs::Span span("bench.recv");
                live = client.recv(&f);
            }
            const Clock::time_point now = Clock::now();
            if (!live)
                twq_fatal("server closed the connection mid-phase ",
                          phase.name);
            const std::optional<std::size_t> idx = index.waitLookup(f.id);
            if (!idx)
                twq_fatal("response id ", f.id,
                          " matches no request sent in phase ",
                          phase.name);
            const std::size_t i = *idx;
            twq::obs::TraceContext ctx(traceIds[i]);
            twq::obs::Span span("bench.check");
            const twq::TensorD &want = expected[i % expected.size()];
            if (f.status != twq::net::Status::Ok) {
                ++r.failed;
            } else if (!sameBits(f.shape, f.data, want)) {
                ++r.failed;
                ++r.mismatched;
            } else {
                ++r.ok;
                r.latMs.push_back(msBetween(sched[i], now));
                r.rttMs.push_back(msBetween(sentAt[i], now));
                if (phase.timed) {
                    r.queueMs.push_back(f.queueNs * 1e-6);
                    r.batchMs.push_back(f.batchNs * 1e-6);
                    r.computeMs.push_back(f.computeNs * 1e-6);
                }
            }
            lastRecv = now;
            received.store(got + 1, std::memory_order_release);
            received.notify_one();
        }
    });

    twq::obs::setThreadLane("bench sender");
    const Clock::time_point t0 =
        Clock::now() + std::chrono::milliseconds(2);
    const Clock::time_point stop =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(phase.seconds));
    for (std::size_t i = 0; i < capacity; ++i) {
        Clock::time_point when;
        if (open) {
            when = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                static_cast<double>(i) / phase.rateRps));
            // Sleep to just short of the slot, then spin onto it.
            const auto early = when - std::chrono::microseconds(150);
            if (Clock::now() < early)
                std::this_thread::sleep_until(early);
            while (Clock::now() < when) {
            }
        } else {
            for (std::size_t got = received.load(std::memory_order_acquire);
                 i - got >= phase.window;
                 got = received.load(std::memory_order_acquire))
                received.wait(got, std::memory_order_acquire);
            when = Clock::now();
            if (i > 0 && when >= stop)
                break;
        }
        const std::uint64_t traceId =
            phase.traced ? twq::obs::mintTraceId() : 0;
        twq::obs::TraceContext ctx(traceId);
        twq::obs::Span span("bench.send");
        sched[i] = when;
        traceIds[i] = traceId;
        sentAt[i] = Clock::now();
        const std::uint64_t id =
            client.send(inputs[i % inputs.size()], phase.timed);
        index.bind(i, id);
        r.lagMs.push_back(msBetween(when, sentAt[i]));
        {
            std::lock_guard<std::mutex> lock(mu);
            sent.store(i + 1, std::memory_order_release);
        }
        wake.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        senderDone = true;
    }
    wake.notify_one();
    receiver.join();

    r.sent = sent.load();
    if (r.sent > 0)
        r.wallS = std::chrono::duration<double>(lastRecv - sentAt[0])
                      .count();
    return r;
}

} // namespace twqbench
