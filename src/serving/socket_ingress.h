/**
 * @file
 * Socket front door for the wall-clock execution mode.
 *
 * A poll()-multiplexed TCP ingress: one background thread accepts
 * connections and reads line-delimited requests, injects them through the
 * regular RequestManager admission path (so live traffic crosses the
 * identical KV-budget/continuous-batching/reconfiguration machinery the
 * simulated experiments exercise), and streams per-token completions back
 * to the issuing client as the engine commits them.
 *
 * Wire protocol (newline-delimited ASCII, one message per line):
 *
 *   client -> server
 *     gen <input_tokens> <output_tokens> [<output_cap>]
 *         One generation request: prefill <input_tokens>, decode
 *         <output_tokens> (the EOS point), optionally declaring a larger
 *         max-tokens cap for admission.  Lengths are token counts — the
 *         engine is the paper's cost-model reproduction, so requests are
 *         shaped, not tokenized.
 *
 *   server -> client
 *     queued <id>                      request injected, server-assigned id
 *     token <id> <n>                   the id-th request committed its n-th
 *                                      output token (streamed per token)
 *     done <id> <latency_s> <restarts> request finished
 *     rejected <id>                    unservable under the KV budget
 *     error <text>                     malformed request line
 *
 * Threading: the poll thread owns accept/read/parse and only talks to the
 * executor through the thread-safe schedule() path; engine callbacks
 * (token/completion observers) run on the executor's driver thread and
 * enqueue result lines under the ingress's client lock.  Client sockets
 * are non-blocking: the driver thread never waits on a peer — lines the
 * kernel will not take immediately park in a bounded per-client outbox
 * the poll thread drains on POLLOUT, and a client that stops reading
 * past Options::maxOutboxBytes is disconnected.  The executor must be a
 * thread-safe implementation (WallClockExecutor) — the deterministic
 * Simulation is single-threaded and cannot take concurrent injections.
 *
 * Lifetime: stop() (or the destructor) joins the poll thread, closes
 * every socket, and detaches the three observers start() registered —
 * an alive flag flipped before teardown makes any in-flight driver
 * callback a no-op, and the detachment itself runs as an executor event
 * so it serializes with the driver thread.  The RequestManager, system
 * and executor must outlive the ingress only until that event has run
 * (they are caller-owned; in practice they outlive the executor).
 */

#ifndef SPOTSERVE_SERVING_SOCKET_INGRESS_H
#define SPOTSERVE_SERVING_SOCKET_INGRESS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serving/request_manager.h"
#include "serving/serving_system.h"
#include "simcore/executor.h"
#include "simcore/thread_annotations.h"

namespace spotserve {
namespace serving {

class SocketIngress
{
  public:
    struct Options
    {
        /** Address to bind (loopback by default; servers opt into 0.0.0.0). */
        std::string bindAddress = "127.0.0.1";
        /** TCP port; 0 picks an ephemeral port (see boundPort()). */
        int port = 0;
        /**
         * Per-client outbound buffer cap.  Completion/token lines are
         * queued here when the client's socket buffer is full and
         * drained by the poll thread on POLLOUT; a client that stops
         * reading past this bound is disconnected rather than allowed
         * to block the executor's driver thread (see
         * clientsDroppedSlow()).
         */
        std::size_t maxOutboxBytes = 256 * 1024;
        /**
         * Disconnect a client that has not sent a complete byte of
         * input for this long (milliseconds).  0 disables the reaper —
         * the default, since interactive clients legitimately idle
         * between requests; servers exposed beyond loopback opt in so
         * abandoned connections cannot pin fds and outbox memory
         * forever (see clientsDroppedIdle()).
         */
        long idleTimeoutMs = 0;
    };

    /**
     * @param system   the serving system arrivals are injected into; the
     *                 ingress registers its per-token observer to stream
     *                 token lines.
     */
    SocketIngress(sim::Executor &executor, ServingSystem &system,
                  RequestManager &requests, Options options);
    SocketIngress(sim::Executor &executor, ServingSystem &system,
                  RequestManager &requests);

    ~SocketIngress();

    SocketIngress(const SocketIngress &) = delete;
    SocketIngress &operator=(const SocketIngress &) = delete;

    /** Bind, listen, register observers and spawn the poll thread. */
    void start();

    /** Join the poll thread and close every socket.  Idempotent. */
    void stop() SPOTSERVE_EXCLUDES(clientsMutex_);

    /** The port the listener bound (after start()). */
    int boundPort() const { return boundPort_.load(); }

    bool running() const { return running_.load(); }

    long connectionsAccepted() const { return connectionsAccepted_.load(); }
    long requestsInjected() const { return requestsInjected_.load(); }
    long protocolErrors() const { return protocolErrors_.load(); }
    /** Clients disconnected for not draining their result stream. */
    long clientsDroppedSlow() const { return clientsDroppedSlow_.load(); }
    /** Clients disconnected by the idle reaper (Options::idleTimeoutMs). */
    long clientsDroppedIdle() const { return clientsDroppedIdle_.load(); }

  private:
    /** listen() backlog. */
    static constexpr int kBacklog = 16;
    /** poll() timeout in milliseconds — bounds stop() latency. */
    static constexpr int kPollIntervalMs = 50;
    /** Protocol guard: longest accepted request line, in bytes. */
    static constexpr std::size_t kMaxLineBytes = 4096;

    struct Client
    {
        int fd = -1;
        std::string inbox;  ///< partial-line accumulation buffer
        std::string outbox; ///< result lines awaiting a writable socket
        /**
         * Set by whichever thread hit a fatal condition (write error,
         * outbox overflow); the poll thread — the only fd owner —
         * closes and reaps on its next iteration.
         */
        bool dead = false;
        /**
         * Last moment the peer delivered bytes (stamped on accept and
         * every successful read).  Poll-thread only; compared against
         * Options::idleTimeoutMs by the idle reaper.
         */
        std::chrono::steady_clock::time_point lastActivity;
    };

    void pollLoop() SPOTSERVE_EXCLUDES(clientsMutex_);
    void acceptClient() SPOTSERVE_EXCLUDES(clientsMutex_);
    /** Read what is available; returns false when the peer closed. */
    bool readClient(int fd) SPOTSERVE_EXCLUDES(clientsMutex_);
    /** Parse and act on one complete request line from @p fd. */
    void handleLine(int fd, const std::string &line)
        SPOTSERVE_EXCLUDES(clientsMutex_);
    /** Acknowledge (`queued <id>`) and inject one parsed request. */
    void injectRequest(int fd, int input_tokens, int output_tokens,
                       int output_cap, int prefix_id = -1,
                       int prefix_len = 0)
        SPOTSERVE_EXCLUDES(clientsMutex_);
    /**
     * Queue a line (newline appended) for @p fd and flush as much as the
     * socket accepts without blocking.  Never blocks: the caller may be
     * the executor's driver thread, and a stalled client must not stall
     * the engine.  Marks the client dead on write error or outbox
     * overflow.
     */
    void sendToFd(int fd, const std::string &line)
        SPOTSERVE_EXCLUDES(clientsMutex_);
    /** Drain @p client's outbox with non-blocking writes. */
    void flushClientLocked(Client &client)
        SPOTSERVE_REQUIRES(clientsMutex_);
    /** Route a line to whichever client issued request @p id. */
    void sendToRequest(wl::RequestId id, const std::string &line,
                       bool final_line) SPOTSERVE_EXCLUDES(clientsMutex_);
    void closeClientLocked(int fd) SPOTSERVE_REQUIRES(clientsMutex_);

    sim::Executor &executor_;
    ServingSystem &system_;
    RequestManager &requests_;
    Options options_;

    std::thread pollThread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopRequested_{false};
    int listenFd_ = -1;
    std::atomic<int> boundPort_{0};

    /** Guards clients_ and routes_ (poll thread vs driver thread). */
    sim::Mutex clientsMutex_;
    std::unordered_map<int, Client> clients_
        SPOTSERVE_GUARDED_BY(clientsMutex_);
    /** request id -> issuing client fd (dropped on done/disconnect). */
    std::unordered_map<wl::RequestId, int> routes_
        SPOTSERVE_GUARDED_BY(clientsMutex_);

    std::atomic<std::int64_t> nextRequestId_{0};
    std::atomic<long> connectionsAccepted_{0};
    std::atomic<long> requestsInjected_{0};
    std::atomic<long> protocolErrors_{0};
    std::atomic<long> clientsDroppedSlow_{0};
    std::atomic<long> clientsDroppedIdle_{0};

    /**
     * Kill switch captured (by shared_ptr) by the three observers
     * installed in start().  stop() flips it before anything else, so a
     * driver-thread callback racing the teardown degrades to a no-op
     * instead of dereferencing a dying ingress; the observers themselves
     * are then detached on the driver thread (see stop()).
     */
    std::shared_ptr<std::atomic<bool>> observersAlive_;
};

} // namespace serving
} // namespace spotserve

#endif // SPOTSERVE_SERVING_SOCKET_INGRESS_H
