/**
 * @file
 * The loopback front-door trial of fleet-churn's traced run: SpotServe
 * served in-process on a WallClockExecutor behind SocketIngress, driven
 * over loopback by an open-loop generator.
 *
 * One generator thread opens the client connections and sends `gen` lines
 * on a seeded Poisson schedule, reading the streamed replies between
 * sends.  The generator's own lateness is measured, and a trial whose
 * lateness p99 exceeds the stated bound is invalid and not scored.
 */

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "core/spotserve_system.h"
#include "serving/socket_ingress.h"
#include "simcore/rng.h"
#include "simcore/wallclock_executor.h"
#include "tracing_executor.h"
#include "workloads.h"

namespace perfbench {

using namespace spotserve;

namespace {

struct WallParams
{
    int instances = 0;
    double timeScale = 0.0;
    double ratePerSec = 0.0; ///< wall-clock arrivals per second
    int connections = 0;
    double warmupSec = 0.0;
    double drainSec = 0.0;
    int inputTokens = 0;
    int outputTokens = 0;
    double lateBoundMs = 0.0;
    int maxTrials = 1;
    double firstNotice = 0.0, period = 0.0, rejoinAfter = 0.0;
    int wave = 0;
    double volumeBand = 0.0;
};

WallParams
readParams(const RunArgs &args)
{
    WallParams p;
    p.instances = static_cast<int>(args.param("instances"));
    p.timeScale = args.param("time_scale");
    p.ratePerSec = args.param("rate_per_s");
    p.connections = static_cast<int>(args.param("connections"));
    p.warmupSec = args.param("warmup_s");
    p.drainSec = args.param("drain_wall_s");
    p.inputTokens = static_cast<int>(args.param("input_tokens"));
    p.outputTokens = static_cast<int>(args.param("output_tokens"));
    p.lateBoundMs = args.param("late_bound_ms");
    p.maxTrials = static_cast<int>(args.param("max_trials"));
    p.firstNotice = args.param("first_notice_s");
    p.period = args.param("period_s");
    p.rejoinAfter = args.param("rejoin_after_s");
    p.wave = static_cast<int>(args.param("wave"));
    p.volumeBand = args.param("volume_band");
    return p;
}

/** The in-process server: wall clock, fleet, SpotServe, socket front door.
 *  Components see the clock through a TracingExecutor, which also keeps a
 *  throwing callback from ending the process. */
class Server
{
  public:
    Server(const WallParams &p, const cluster::AvailabilityTrace &trace)
        : clock_(sim::WallClockExecutor::Options{p.timeScale}),
          tracer_(clock_, p.timeScale), fleet_(tracer_, params_),
          requests_(tracer_)
    {
        core::SpotServeOptions options;
        options.designArrivalRate = p.ratePerSec / p.timeScale;
        system_ = std::make_unique<core::SpotServeSystem>(
            tracer_, fleet_, requests_, spec_, params_, cost::SeqSpec{},
            options);
        fleet_.setListener(system_.get());
        fleet_.loadTrace(trace);
        ingress_ = std::make_unique<serving::SocketIngress>(tracer_, *system_,
                                                            requests_);
        ingress_->start();
        clock_.start();
    }

    ~Server() { shutdown(); }
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Front door first (no new arrivals), then the driver thread. */
    void shutdown()
    {
        if (ingress_)
            ingress_->stop();
        clock_.stop();
    }

    int port() const { return ingress_->boundPort(); }
    const serving::SocketIngress &ingress() const { return *ingress_; }
    const serving::RequestManager &requests() const { return requests_; }
    const core::SpotServeSystem &system() const { return *system_; }
    const TracingExecutor &tracer() const { return tracer_; }

  private:
    model::ModelSpec spec_ = model::ModelSpec::gpt20b();
    cost::CostParams params_ = cost::CostParams::awsG4dn();
    sim::WallClockExecutor clock_;
    TracingExecutor tracer_;
    cluster::InstanceManager fleet_;
    serving::RequestManager requests_;
    std::unique_ptr<core::SpotServeSystem> system_;
    std::unique_ptr<serving::SocketIngress> ingress_;
};

/** One request as the client saw it (seconds since the load started). */
struct ClientRequest
{
    double due = 0.0;
    double sent = -1.0;
    double ack = -1.0;
    bool done = false;
    bool rejected = false;
};

struct Connection
{
    int fd = -1;
    std::string inbox;
    std::deque<std::size_t> awaitingAck;
};

/** What a generator pass produced. */
struct LoadResult
{
    std::vector<ClientRequest> requests;
    long protocolErrors = 0;
    std::string error;
};

int
connectLoopback(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        throw std::runtime_error("connect: " + std::string(std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

/** The open-loop generator: sends on schedule, reads replies in between. */
class Generator
{
  public:
    /** @p server_failed turning true ends the run early. */
    Generator(const std::vector<double> &dues, int port, int connections,
              std::string line, double drain_sec,
              std::function<bool()> server_failed)
        : line_(std::move(line)), drainSec_(drain_sec),
          serverFailed_(std::move(server_failed))
    {
        result_.requests.resize(dues.size());
        for (std::size_t i = 0; i < dues.size(); ++i)
            result_.requests[i].due = dues[i];
        try {
            for (int c = 0; c < connections; ++c)
                conns_.push_back(Connection{connectLoopback(port), {}, {}});
        } catch (...) {
            for (auto &c : conns_)
                ::close(c.fd);
            throw;
        }
    }
    ~Generator()
    {
        for (auto &c : conns_)
            ::close(c.fd);
    }
    Generator(const Generator &) = delete;
    Generator &operator=(const Generator &) = delete;

    /** Run the schedule to completion (caller's thread). */
    LoadResult run()
    {
        start_ = Clock::now();
        try {
            loop();
        } catch (const std::exception &e) {
            result_.error = e.what();
        }
        return std::move(result_);
    }

  private:
    double now() const { return secondsSince(start_); }

    void loop()
    {
        auto &reqs = result_.requests;
        std::size_t next = 0;
        const double lastDue = reqs.empty() ? 0.0 : reqs.back().due;
        std::vector<pollfd> fds;
        for (auto &c : conns_)
            fds.push_back(pollfd{c.fd, POLLIN, 0});
        while (!serverFailed_()) {
            double t = now();
            while (next < reqs.size() && reqs[next].due <= t) {
                send(next);
                ++next;
                t = now();
            }
            if (next == reqs.size() &&
                (answered_ == reqs.size() || t > lastDue + drainSec_))
                break;
            const double wait =
                next < reqs.size() ? std::max(0.0, reqs[next].due - t) : 0.01;
            timespec ts{static_cast<time_t>(wait),
                        static_cast<long>((wait - std::floor(wait)) * 1e9)};
            const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
            if (ready < 0 && errno != EINTR)
                throw std::runtime_error("ppoll: " +
                                         std::string(std::strerror(errno)));
            for (std::size_t c = 0; ready > 0 && c < fds.size(); ++c) {
                if (fds[c].revents & (POLLIN | POLLHUP | POLLERR))
                    drain(conns_[c]);
            }
        }
    }

    void send(std::size_t i)
    {
        auto &conn = conns_[i % conns_.size()];
        std::size_t off = 0;
        while (off < line_.size()) {
            const ssize_t n = ::send(conn.fd, line_.data() + off,
                                     line_.size() - off, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                throw std::runtime_error("send: " +
                                         std::string(std::strerror(errno)));
            }
            off += static_cast<std::size_t>(n);
        }
        result_.requests[i].sent = now();
        conn.awaitingAck.push_back(i);
    }

    void drain(Connection &conn)
    {
        char buf[65536];
        while (true) {
            const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
            if (n > 0) {
                conn.inbox.append(buf, static_cast<std::size_t>(n));
                continue;
            }
            if (n == 0)
                throw std::runtime_error("server closed a connection");
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            throw std::runtime_error("recv: " + std::string(std::strerror(errno)));
        }
        const double t = now();
        const std::string_view inbox(conn.inbox);
        std::size_t pos = 0;
        for (std::size_t nl; (nl = inbox.find('\n', pos)) != std::string::npos;
             pos = nl + 1)
            handle(conn, inbox.substr(pos, nl - pos), t);
        conn.inbox.erase(0, pos);
    }

    /** One reply line: `<verb> <id> ...`. */
    void handle(Connection &conn, std::string_view line, double t)
    {
        const auto space = line.find(' ');
        const std::string_view verb = line.substr(0, space);
        long id = -1;
        if (space != std::string_view::npos) {
            const auto rest = line.substr(space + 1);
            std::from_chars(rest.data(), rest.data() + rest.size(), id);
        }
        if (verb == "queued") {
            if (conn.awaitingAck.empty())
                throw std::runtime_error("unexpected queued reply");
            const std::size_t idx = conn.awaitingAck.front();
            conn.awaitingAck.pop_front();
            result_.requests[idx].ack = t;
            byId_[id] = idx;
            // Replies that overtook their `queued` line.
            for (const char kind : early_[id])
                answer(idx, kind);
            early_.erase(id);
        } else if (verb == "done" || verb == "rejected") {
            const auto it = byId_.find(id);
            if (it == byId_.end())
                early_[id].push_back(verb[0]);
            else
                answer(it->second, verb[0]);
        } else if (verb != "token") {
            ++result_.protocolErrors;
        }
    }

    void answer(std::size_t idx, char kind)
    {
        auto &r = result_.requests[idx];
        if (r.done || r.rejected)
            return;
        (kind == 'd' ? r.done : r.rejected) = true;
        ++answered_;
    }

    std::string line_;
    double drainSec_;
    std::function<bool()> serverFailed_;
    std::vector<Connection> conns_;
    Clock::time_point start_;
    LoadResult result_;
    std::size_t answered_ = 0;
    std::unordered_map<long, std::size_t> byId_;
    std::unordered_map<long, std::vector<char>> early_;
};

/**
 * Seeded Poisson send schedule over [0, window), redrawn from the seed's
 * stream until its request count lies within @p band of rate * window (as
 * the simulated workloads condition their samples on volume).
 */
std::vector<double>
poissonSchedule(double rate, double window, double band, std::uint64_t seed)
{
    sim::Rng rng(seed);
    const double nominal = rate * window;
    for (int attempt = 0; attempt < 10000; ++attempt) {
        std::vector<double> dues;
        for (double t = rng.exponential(rate); t < window;
             t += rng.exponential(rate))
            dues.push_back(t);
        if (std::abs(static_cast<double>(dues.size()) - nominal) <=
            band * nominal)
            return dues;
    }
    throw std::runtime_error("no send schedule within the volume band");
}

/** One trial: a fresh server, warm-up, the load, the drain, the checks. */
struct Trial
{
    LoadResult load;
    std::string serverError; ///< what a server callback threw, if anything
    // Server-side figures, read after shutdown.
    long arrived = 0, completed = 0, rejected = 0, unfinished = 0;
    long liveKvRefs = 0;
    long connections = 0, protocolErrors = 0, droppedSlow = 0;
    std::vector<float> callbackSec, lateSec;
};

Trial
runTrial(const WallParams &p, const std::vector<double> &dues, double window)
{
    Trial trial;
    const double horizon = p.warmupSec + window + p.drainSec + 5.0;
    const auto trace = waveChurnTrace(p.instances, p.firstNotice, p.period,
                                      p.wave, p.rejoinAfter,
                                      horizon * p.timeScale);
    const std::string line = "gen " + std::to_string(p.inputTokens) + " " +
                             std::to_string(p.outputTokens) + "\n";
    Server server(p, trace);
    {
        Generator gen(dues, server.port(), p.connections, line, p.drainSec,
                      [&server] { return server.tracer().failed(); });
        std::this_thread::sleep_for(std::chrono::duration<double>(p.warmupSec));
        // The calling thread is the generator thread.
        trial.load = gen.run();
    }
    server.shutdown();
    trial.serverError = server.tracer().error();

    const auto &req = server.requests();
    trial.arrived = req.arrivedCount();
    trial.completed = req.completedCount();
    trial.rejected = req.rejectedCount();
    trial.unfinished = req.unfinishedCount();
    trial.liveKvRefs = server.system().liveKvRefs();
    const auto &ing = server.ingress();
    trial.connections = ing.connectionsAccepted();
    trial.protocolErrors = ing.protocolErrors();
    trial.droppedSlow = ing.clientsDroppedSlow();
    trial.callbackSec = server.tracer().callbackSeconds();
    trial.lateSec = server.tracer().lateSeconds();
    return trial;
}

/** Generator lateness p99 in ms (sent - due). */
double
latenessP99Ms(const LoadResult &load)
{
    std::vector<double> late;
    for (const auto &r : load.requests) {
        if (r.sent >= 0.0)
            late.push_back(r.sent - r.due);
    }
    return 1e3 * percentile(late, 99.0);
}

/**
 * Run trials until the generator kept to its schedule or out of tries.  A
 * trial whose generator ran late past the bound is invalid and not scored;
 * such trials are counted.
 */
Trial
validTrial(const WallParams &p, const std::vector<double> &dues, double window,
           long &late_trials)
{
    for (int k = 1;; ++k) {
        Trial t = runTrial(p, dues, window);
        if (latenessP99Ms(t.load) <= p.lateBoundMs || k >= p.maxTrials)
            return t;
        ++late_trials;
        std::printf("  trial %d invalid (generator lateness past the bound); "
                    "retrying\n",
                    k);
    }
}

void
checkTrial(const WallParams &p, const Trial &t, Ledger &ledger)
{
    const long sent = static_cast<long>(t.load.requests.size());
    long answered = 0, done = 0;
    for (const auto &r : t.load.requests) {
        answered += (r.done || r.rejected) ? 1 : 0;
        done += r.done ? 1 : 0;
    }
    ledger.attempted += sent;
    ledger.failed += sent - done;
    ledger.check(t.load.error.empty(), "load generator: " + t.load.error);
    ledger.check(t.serverError.empty(), "server callback threw: " + t.serverError);
    ledger.check(answered == sent, std::to_string(sent - answered) +
                                       " gen lines got no done/rejected reply");
    ledger.check(t.arrived == sent, "server saw " + std::to_string(t.arrived) +
                                        " arrivals for " +
                                        std::to_string(sent) + " sent");
    ledger.check(t.arrived == t.completed + t.rejected + t.unfinished,
                 "conservation: arrived != completed + rejected + unfinished");
    ledger.check(t.unfinished != 0 || t.liveKvRefs == 0,
                 std::to_string(t.liveKvRefs) +
                     " KV refs leaked with nothing unfinished");
    ledger.check(t.protocolErrors == 0 && t.load.protocolErrors == 0,
                 "protocol errors on the loopback stream");
    const double late = latenessP99Ms(t.load);
    ledger.check(late <= p.lateBoundMs,
                 "run invalid: generator lateness p99 " + std::to_string(late) +
                     " ms exceeds the " + std::to_string(p.lateBoundMs) +
                     " ms bound");
}

} // namespace

void
measureIngressLayer(const RunArgs &args, Ledger &ledger, Metrics &metrics)
{
    const WallParams p = readParams(args);
    const double window = args.param("ingress_window_s");
    const auto dues =
        poissonSchedule(p.ratePerSec, window, p.volumeBand, args.seed);
    long invalid = 0;
    const Trial t = validTrial(p, dues, window, invalid);
    checkTrial(p, t, ledger);

    std::vector<double> ack, late(t.lateSec.begin(), t.lateSec.end());
    for (const auto &r : t.load.requests) {
        if (r.ack >= 0.0)
            ack.push_back(r.ack - r.sent);
    }
    const double cbMax =
        t.callbackSec.empty()
            ? 0.0
            : *std::max_element(t.callbackSec.begin(), t.callbackSec.end());
    metrics.set("wallclock.fire_late_p99_ms", 1e3 * percentile(late, 99.0), "ms");
    metrics.set("wallclock.callback_ms_max", 1e3 * cbMax, "ms");
    metrics.set("ingress.ack_p99_ms", 1e3 * percentile(ack, 99.0), "ms");
    metrics.set("ingress.connections", static_cast<double>(t.connections), "count");
    metrics.set("ingress.protocol_errors", static_cast<double>(t.protocolErrors),
                "count");
    metrics.set("ingress.dropped_slow", static_cast<double>(t.droppedSlow),
                "count");
    metrics.set("loadgen.sent", static_cast<double>(t.load.requests.size()),
                "count");
    metrics.set("loadgen.late_p99_ms", latenessP99Ms(t.load), "ms");
    metrics.set("loadgen.invalid_trials", static_cast<double>(invalid), "count");
}

} // namespace perfbench
