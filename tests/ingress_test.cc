/**
 * @file
 * Loopback smoke tests for the socket ingress front door: a real TCP
 * client talks to a SpotServe system driven by the WallClockExecutor at
 * a high time scale, so whole generations complete in milliseconds of
 * real time while crossing the full admission/batching/engine path.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/availability_trace.h"
#include "costmodel/memory_model.h"
#include "serving/experiment.h"
#include "serving/presets.h"
#include "serving/socket_ingress.h"
#include "simcore/wallclock_executor.h"

namespace spotserve {
namespace {

/** Blocking line-oriented loopback client with send and receive
 *  timeouts, so no socket call of a test can block forever. */
class LineClient
{
  public:
    /** @param rcvbufBytes shrink the receive window (slow-reader tests). */
    explicit LineClient(int port, int rcvbufBytes = 0)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        timeval tv{};
        tv.tv_sec = 20; // generous: CI machines stall
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        if (rcvbufBytes > 0)
            ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbufBytes,
                         sizeof(rcvbufBytes));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
    }

    ~LineClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    void sendLine(const std::string &line)
    {
        std::string wire = line + "\n";
        ASSERT_EQ(::send(fd_, wire.data(), wire.size(), 0),
                  static_cast<ssize_t>(wire.size()));
    }

    /** Next full line, or empty string on timeout/close. */
    std::string readLine()
    {
        for (;;) {
            const std::size_t nl = buffer_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buffer_.substr(0, nl);
                buffer_.erase(0, nl + 1);
                return line;
            }
            char buf[512];
            const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n <= 0)
                return "";
            buffer_.append(buf, static_cast<std::size_t>(n));
        }
    }

    /** Read lines until one starts with @p prefix (inclusive). */
    std::vector<std::string> readUntil(const std::string &prefix)
    {
        std::vector<std::string> lines;
        for (;;) {
            std::string line = readLine();
            if (line.empty())
                return lines; // timeout — let the caller's asserts fail
            lines.push_back(line);
            if (line.compare(0, prefix.size(), prefix) == 0)
                return lines;
        }
    }

    int fd() const { return fd_; }

  private:
    int fd_ = -1;
    std::string buffer_;
};

/** A live server on an ephemeral loopback port, torn down in order. */
class IngressFixture : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const auto spec = model::ModelSpec::opt6_7b();
        const cost::CostParams params = cost::CostParams::awsG4dn();
        const cost::SeqSpec seq{};

        sim::WallClockExecutor::Options execOptions;
        execOptions.timeScale = 1000.0;
        executor_ = std::make_unique<sim::WallClockExecutor>(execOptions);
        fleet_ = std::make_unique<cluster::InstanceManager>(*executor_,
                                                            params);
        requests_ = std::make_unique<serving::RequestManager>(*executor_);

        cluster::AvailabilityTrace trace(
            "stable-4", 3600.0,
            {{0.0, cluster::TraceEventKind::Join,
              cluster::InstanceType::Spot, 4}});

        core::SpotServeOptions options;
        options.designArrivalRate = presets::stableRate(spec);
        system_ = presets::spotServeFactory(spec, params, seq, options)(
            *executor_, *fleet_, *requests_);
        fleet_->setListener(system_.get());
        fleet_->loadTrace(trace);

        ingress_ = std::make_unique<serving::SocketIngress>(
            *executor_, *system_, *requests_, ingressOptions());
        ingress_->start();
        ASSERT_GT(ingress_->boundPort(), 0);
        executor_->start();
    }

    virtual serving::SocketIngress::Options ingressOptions() const
    {
        return {};
    }

    void TearDown() override
    {
        // Front door first (no new arrivals), then the driver; the
        // ingress object (observer owner) is destroyed after both.
        if (ingress_)
            ingress_->stop();
        executor_->stop();
    }

    std::unique_ptr<sim::WallClockExecutor> executor_;
    std::unique_ptr<cluster::InstanceManager> fleet_;
    std::unique_ptr<serving::RequestManager> requests_;
    std::unique_ptr<serving::ServingSystem> system_;
    std::unique_ptr<serving::SocketIngress> ingress_;
};

TEST_F(IngressFixture, SingleRequestStreamsTokensThenCompletes)
{
    LineClient client(ingress_->boundPort());
    client.sendLine("gen 512 4");

    const auto lines = client.readUntil("done");
    ASSERT_FALSE(lines.empty());

    // queued precedes everything else this client observes, tokens
    // arrive in order 1..4, and done carries id + latency + restarts.
    EXPECT_EQ(lines.front(), "queued 0");
    std::vector<int> tokens;
    for (const auto &line : lines) {
        std::istringstream in(line);
        std::string verb;
        in >> verb;
        if (verb == "token") {
            long id = -1;
            int n = 0;
            in >> id >> n;
            EXPECT_EQ(id, 0);
            tokens.push_back(n);
        }
    }
    EXPECT_EQ(tokens, (std::vector<int>{1, 2, 3, 4}));

    std::istringstream done(lines.back());
    std::string verb;
    long id = -1;
    double latency = -1.0;
    int restarts = -1;
    done >> verb >> id >> latency >> restarts;
    EXPECT_EQ(verb, "done");
    EXPECT_EQ(id, 0);
    EXPECT_GT(latency, 0.0);
    EXPECT_EQ(restarts, 0);

    EXPECT_EQ(ingress_->requestsInjected(), 1);
    EXPECT_EQ(requests_->completedCount(), 1);
    EXPECT_EQ(requests_->tokensGenerated(), 4.0);
}

TEST_F(IngressFixture, MalformedLinesGetErrorsWithoutKillingTheSession)
{
    LineClient client(ingress_->boundPort());

    client.sendLine("gen -5 4");
    EXPECT_EQ(client.readLine().substr(0, 5), "error");
    client.sendLine("frobnicate 1 2");
    EXPECT_EQ(client.readLine().substr(0, 5), "error");
    client.sendLine("gen 128 2 1"); // cap below output length
    EXPECT_EQ(client.readLine().substr(0, 5), "error");

    // The connection survives protocol errors: a valid request still
    // runs to completion.
    client.sendLine("gen 128 2");
    const auto lines = client.readUntil("done");
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(lines.back().substr(0, 4), "done");
    EXPECT_GE(ingress_->protocolErrors(), 3);
    EXPECT_EQ(ingress_->requestsInjected(), 1);
}

TEST_F(IngressFixture, PrefixDeclarationsFlowThroughAndBadOnesAreNonFatal)
{
    LineClient client(ingress_->boundPort());

    // Malformed prefix declarations are protocol errors, not
    // disconnects: the session keeps serving afterwards.
    client.sendLine("gen 64 2 prefix=x");
    EXPECT_EQ(client.readLine().substr(0, 5), "error");
    client.sendLine("gen 64 2 prefix=0:-3");
    EXPECT_EQ(client.readLine().substr(0, 5), "error");
    client.sendLine("gen 64 2 prefix=-1:16");
    EXPECT_EQ(client.readLine().substr(0, 5), "error");
    client.sendLine("gen 64 2 prefix=0:16trailing");
    EXPECT_EQ(client.readLine().substr(0, 5), "error");
    EXPECT_GE(ingress_->protocolErrors(), 4);

    // Two classmates declaring the same 32-token prefix: both complete,
    // and the second one's prefill hits the first one's published blocks
    // — proving the declaration crossed the wire into the engine.
    client.sendLine("gen 64 2 prefix=0:32");
    EXPECT_EQ(client.readUntil("done").back().substr(0, 4), "done");
    client.sendLine("gen 64 2 prefix=0:32");
    EXPECT_EQ(client.readUntil("done").back().substr(0, 4), "done");
    // The stats counters are plain fields owned by the executor thread
    // (boundary commits keep writing them after `done` reaches the
    // wire), so read them on that thread instead of racing it from the
    // test thread — TSan flags the direct read.
    std::promise<long> hitsOnDriver;
    executor_->scheduleAfter(0.0, [&] {
        serving::ExperimentResult stats;
        system_->report(stats);
        hitsOnDriver.set_value(stats.prefixHits);
    });
    EXPECT_GE(hitsOnDriver.get_future().get(), 1);

    // Bare prefix=<id> declares the whole prompt as the class prefix.
    client.sendLine("gen 64 2 prefix=1");
    EXPECT_EQ(client.readUntil("done").back().substr(0, 4), "done");
    EXPECT_EQ(ingress_->requestsInjected(), 3);
}

TEST_F(IngressFixture, UnservableRequestIsRejectedAndTheSessionGoesOn)
{
    // No replica on the fixture's 4-instance fleet holds more KV blocks
    // than one replica spread over all of its GPUs would, so an input one
    // block past that can never be served.
    const auto params = cost::CostParams::awsG4dn();
    const cost::MemoryModel memory(model::ModelSpec::opt6_7b(), params);
    const int gpus = 4 * params.gpusPerInstance;
    long most = 0;
    for (int pp = 1; pp <= gpus; ++pp) {
        for (int tp = 1; pp * tp <= gpus; tp *= 2) {
            for (const bool mem_opt : {true, false})
                most = std::max(most, memory.kvBudgetBlocks(
                                          {1, pp, tp, 1}, mem_opt));
        }
    }
    ASSERT_GT(most, 0);
    const long input = (most + 1) * engine::kKvBlockTokens;

    LineClient client(ingress_->boundPort());
    // A first request runs to completion, so the deployment is serving
    // and the oversized one is rejected the moment it arrives.
    client.sendLine("gen 128 2");
    EXPECT_EQ(client.readUntil("done").back().substr(0, 7), "done 0 ");

    client.sendLine("gen " + std::to_string(input) + " 4");
    // Acknowledged first, then bounced: `rejected` is its final line.
    const auto bounced = client.readUntil("rejected");
    EXPECT_EQ(bounced, (std::vector<std::string>{"queued 1", "rejected 1"}));

    // The same connection still streams a servable request to the end,
    // and nothing more arrives about the rejected one.
    client.sendLine("gen 128 2");
    const auto served = client.readUntil("done");
    ASSERT_EQ(served.size(), 4u);
    EXPECT_EQ(served[0], "queued 2");
    EXPECT_EQ(served[1], "token 2 1");
    EXPECT_EQ(served[2], "token 2 2");
    EXPECT_EQ(served[3].substr(0, 7), "done 2 ");

    std::promise<long> rejectedOnDriver;
    executor_->scheduleAfter(0.0, [&] {
        rejectedOnDriver.set_value(requests_->rejectedCount());
    });
    EXPECT_EQ(rejectedOnDriver.get_future().get(), 1);
    EXPECT_EQ(ingress_->requestsInjected(), 3);
}

TEST_F(IngressFixture, ConcurrentClientsGetTheirOwnStreams)
{
    LineClient a(ingress_->boundPort());
    LineClient b(ingress_->boundPort());
    a.sendLine("gen 512 3");
    b.sendLine("gen 512 3");

    const auto aLines = a.readUntil("done");
    const auto bLines = b.readUntil("done");
    ASSERT_FALSE(aLines.empty());
    ASSERT_FALSE(bLines.empty());

    auto idsSeen = [](const std::vector<std::string> &lines) {
        std::set<long> ids;
        for (const auto &line : lines) {
            std::istringstream in(line);
            std::string verb;
            long id = -1;
            in >> verb >> id;
            ids.insert(id);
        }
        return ids;
    };
    // Every line a client sees is about its own (single) request.
    EXPECT_EQ(idsSeen(aLines).size(), 1u);
    EXPECT_EQ(idsSeen(bLines).size(), 1u);
    EXPECT_NE(*idsSeen(aLines).begin(), *idsSeen(bLines).begin());

    EXPECT_EQ(ingress_->connectionsAccepted(), 2);
    EXPECT_EQ(ingress_->requestsInjected(), 2);
    EXPECT_EQ(requests_->completedCount(), 2);
}

TEST_F(IngressFixture, StopAndDestroyWhileGenerationsDrain)
{
    LineClient client(ingress_->boundPort());
    client.sendLine("gen 512 200");
    EXPECT_EQ(client.readLine().substr(0, 6), "queued");

    // Tear the front door down mid-generation and destroy it.  The
    // executor keeps committing tokens and finally the completion: the
    // observers the ingress registered must by then be detached (or
    // no-op'd by the alive flag), not left dangling into freed memory —
    // the CI sanitizer jobs run this under TSan.
    ingress_->stop();
    ingress_.reset();

    auto completedOnDriver = [this] {
        std::promise<long> done;
        executor_->schedule(executor_->now(), [this, &done] {
            done.set_value(requests_->completedCount());
        });
        return done.get_future().get();
    };
    for (int i = 0; i < 800 && completedOnDriver() < 1; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    EXPECT_EQ(completedOnDriver(), 1);
}

/** Same server, but with a deliberately tiny per-client outbox bound. */
class SlowReaderFixture : public IngressFixture
{
  protected:
    serving::SocketIngress::Options ingressOptions() const override
    {
        serving::SocketIngress::Options options;
        options.maxOutboxBytes = 512;
        return options;
    }
};

TEST_F(SlowReaderFixture, SlowReaderIsDisconnectedWithoutStallingTheEngine)
{
    // A client that issues work and then never reads its result stream.
    // The small receive window makes the kernel-side buffering run out
    // quickly; once the bounded outbox overflows too, the ingress must
    // disconnect the client rather than block the executor's driver
    // thread inside send() (the regression this test pins).
    LineClient slow(ingress_->boundPort(), /*rcvbufBytes=*/2048);
    slow.sendLine("gen 512 50");

    // Junk lines each draw an error response, inflating the outbound
    // stream without the test having to wait for generated tokens.
    const std::string wire = std::string(63, 'x') + "\n";
    bool peer_closed = false;
    for (int batch = 0;
         batch < 4000 && !peer_closed && ingress_->clientsDroppedSlow() == 0;
         ++batch) {
        for (int i = 0; i < 100; ++i) {
            if (::send(slow.fd(), wire.data(), wire.size(), MSG_NOSIGNAL) <
                0) {
                peer_closed = true; // already reaped — also a pass
                break;
            }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (int i = 0; i < 200 && ingress_->clientsDroppedSlow() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    EXPECT_EQ(ingress_->clientsDroppedSlow(), 1);

    // The driver thread never parked on the stalled socket: a healthy
    // client still gets served end to end.
    LineClient healthy(ingress_->boundPort());
    healthy.sendLine("gen 128 2");
    const auto lines = healthy.readUntil("done");
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(lines.back().substr(0, 4), "done");
}

/** Same server, but with a short per-client idle timeout. */
class IdleTimeoutFixture : public IngressFixture
{
  protected:
    serving::SocketIngress::Options ingressOptions() const override
    {
        serving::SocketIngress::Options options;
        options.idleTimeoutMs = 200;
        return options;
    }
};

TEST_F(IdleTimeoutFixture, SilentClientIsReapedAndActiveOneIsNot)
{
    // A connection that never sends a byte must not pin a poll slot
    // forever: after idleTimeoutMs of silence the ingress reaps it and
    // counts it under clientsDroppedIdle().
    LineClient silent(ingress_->boundPort());
    for (int i = 0; i < 200 && ingress_->clientsDroppedIdle() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    EXPECT_EQ(ingress_->clientsDroppedIdle(), 1);

    // Activity resets the clock: a client that keeps talking (well past
    // the timeout in wall time) stays connected through to completion.
    LineClient chatty(ingress_->boundPort());
    chatty.sendLine("gen 128 2");
    const auto lines = chatty.readUntil("done");
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(lines.back().substr(0, 4), "done");
    EXPECT_EQ(ingress_->clientsDroppedIdle(), 1);
}

} // namespace
} // namespace spotserve
