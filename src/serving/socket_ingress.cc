#include "serving/socket_ingress.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "engine/active_request.h"

namespace spotserve {
namespace serving {

namespace {

void closeFd(int fd)
{
    if (fd >= 0)
        ::close(fd);
}

void setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/** strerror(errno) without strerror: the static-buffer API is not
 *  thread-safe (concurrency-mt-unsafe) and this file has two threads. */
std::string errnoMessage()
{
    return std::error_code(errno, std::generic_category()).message();
}

} // namespace

SocketIngress::SocketIngress(sim::Executor &executor, ServingSystem &system,
                             RequestManager &requests, Options options)
    : executor_(executor), system_(system), requests_(requests),
      options_(std::move(options))
{
}

SocketIngress::SocketIngress(sim::Executor &executor, ServingSystem &system,
                             RequestManager &requests)
    : SocketIngress(executor, system, requests, Options{})
{
}

SocketIngress::~SocketIngress()
{
    // noexcept destructor: teardown failure must not escape
    // (bugprone-exception-escape); the sockets die with the process.
    try {
        stop();
    } catch (...) {
    }
}

void SocketIngress::start()
{
    if (running_.load())
        throw std::logic_error("SocketIngress already started");

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        throw std::runtime_error("socket(): " + errnoMessage());

    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.bindAddress.c_str(), &addr.sin_addr) !=
        1) {
        closeFd(listenFd_);
        listenFd_ = -1;
        throw std::runtime_error("bad bind address: " + options_.bindAddress);
    }
    if (::bind(listenFd_, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd_, kBacklog) != 0) {
        const std::string what = errnoMessage();
        closeFd(listenFd_);
        listenFd_ = -1;
        throw std::runtime_error("bind/listen on " + options_.bindAddress +
                                 ": " + what);
    }

    sockaddr_in bound{};
    socklen_t boundLen = sizeof(bound);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&bound),
                      &boundLen) == 0)
        boundPort_.store(static_cast<int>(ntohs(bound.sin_port)));

    // Stream results back as the engine produces them.  The observers run
    // on the executor's driver thread; sendToRequest takes the client lock.
    // Each one checks the alive flag before touching `this`, so a callback
    // racing stop() degrades to a no-op instead of a use-after-free.
    observersAlive_ = std::make_shared<std::atomic<bool>>(true);
    const auto alive = observersAlive_;
    requests_.setCompletionObserver([this, alive](const CompletionRecord &rec) {
        if (!alive->load())
            return;
        std::ostringstream line;
        line << "done " << rec.id << ' ' << rec.latency << ' '
             << rec.restarts;
        sendToRequest(rec.id, line.str(), /*final_line=*/true);
    });
    requests_.setRejectionObserver([this, alive](wl::RequestId id) {
        if (!alive->load())
            return;
        sendToRequest(id, "rejected " + std::to_string(id),
                      /*final_line=*/true);
    });
    system_.setTokenObserver([this, alive](const engine::ActiveRequest &r) {
        if (!alive->load())
            return;
        std::ostringstream line;
        line << "token " << r.request.id << ' ' << r.committedTokens;
        sendToRequest(r.request.id, line.str(), /*final_line=*/false);
    });

    stopRequested_.store(false);
    running_.store(true);
    pollThread_ = std::thread([this] { pollLoop(); });
}

void SocketIngress::stop()
{
    if (!running_.load())
        return;
    stopRequested_.store(true);
    if (pollThread_.joinable())
        pollThread_.join();

    // The observers installed in start() capture `this`; leaving them
    // registered past stop() is a use-after-free once the ingress is
    // destroyed.  Flip the kill switch first (any in-flight driver
    // callback becomes a no-op), then detach them on the driver thread
    // itself so the assignment serializes with a concurrent invocation.
    // Raw pointers, not `this`: the detach event may run after this
    // ingress is gone, but the manager/system are caller-owned.
    if (observersAlive_)
        observersAlive_->store(false);
    RequestManager *req = &requests_;
    ServingSystem *sys = &system_;
    executor_.schedule(executor_.now(), [req, sys] {
        req->setCompletionObserver(nullptr);
        req->setRejectionObserver(nullptr);
        sys->setTokenObserver(nullptr);
    });
    {
        sim::MutexLock lk(clientsMutex_);
        for (auto &entry : clients_)
            closeFd(entry.second.fd);
        clients_.clear();
        routes_.clear();
    }
    closeFd(listenFd_);
    listenFd_ = -1;
    running_.store(false);
}

void SocketIngress::pollLoop()
{
    while (!stopRequested_.load()) {
        std::vector<pollfd> fds;
        fds.push_back(pollfd{listenFd_, POLLIN, 0});
        {
            sim::MutexLock lk(clientsMutex_);
            // Reap clients the driver thread marked dead (write error or
            // outbox overflow) — only the poll thread closes fds — and,
            // when configured, clients whose peer has gone silent past
            // the idle bound.
            const auto now = std::chrono::steady_clock::now();
            std::vector<int> dead;
            for (auto &entry : clients_) {
                if (!entry.second.dead && options_.idleTimeoutMs > 0 &&
                    now - entry.second.lastActivity >=
                        std::chrono::milliseconds(options_.idleTimeoutMs)) {
                    entry.second.dead = true;
                    clientsDroppedIdle_.fetch_add(1);
                }
                if (entry.second.dead)
                    dead.push_back(entry.first);
            }
            for (int fd : dead)
                closeClientLocked(fd);
            for (const auto &entry : clients_) {
                short events = POLLIN;
                if (!entry.second.outbox.empty())
                    events |= POLLOUT;
                fds.push_back(pollfd{entry.first, events, 0});
            }
        }

        const int ready =
            ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                   kPollIntervalMs);
        if (ready <= 0)
            continue; // timeout (stop re-checked) or EINTR

        if (fds[0].revents & POLLIN)
            acceptClient();
        for (std::size_t i = 1; i < fds.size(); ++i) {
            const short revents = fds[i].revents;
            if (revents == 0)
                continue;
            bool drop = (revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
            if (!drop && (revents & POLLIN))
                drop = !readClient(fds[i].fd);
            sim::MutexLock lk(clientsMutex_);
            auto it = clients_.find(fds[i].fd);
            if (it == clients_.end())
                continue;
            if (!drop && (revents & POLLOUT))
                flushClientLocked(it->second);
            if (drop || it->second.dead)
                closeClientLocked(fds[i].fd);
        }
    }
}

void SocketIngress::acceptClient()
{
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0)
        return;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Non-blocking: neither the poll thread nor the executor's driver
    // thread may ever park inside send()/recv() on a peer's behalf.
    setNonBlocking(fd);
    {
        sim::MutexLock lk(clientsMutex_);
        Client client;
        client.fd = fd;
        client.lastActivity = std::chrono::steady_clock::now();
        clients_.emplace(fd, std::move(client));
    }
    connectionsAccepted_.fetch_add(1);
}

bool SocketIngress::readClient(int fd)
{
    char buf[1024];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0)
        return false; // peer closed
    if (n < 0)
        return errno == EAGAIN || errno == EWOULDBLOCK; // spurious wakeup

    // Pull the accumulated buffer out under the lock, parse outside it:
    // handleLine() injects into the executor and must not hold the client
    // lock while doing so (the driver thread takes it to stream tokens).
    std::string inbox;
    {
        sim::MutexLock lk(clientsMutex_);
        auto it = clients_.find(fd);
        if (it == clients_.end())
            return false;
        it->second.lastActivity = std::chrono::steady_clock::now();
        it->second.inbox.append(buf, static_cast<std::size_t>(n));
        if (it->second.inbox.size() > kMaxLineBytes) {
            protocolErrors_.fetch_add(1);
            return false; // line too long: drop the connection
        }
        inbox.swap(it->second.inbox);
    }

    std::size_t start = 0;
    for (;;) {
        const std::size_t nl = inbox.find('\n', start);
        if (nl == std::string::npos)
            break;
        std::string line = inbox.substr(start, nl - start);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (!line.empty())
            handleLine(fd, line);
        start = nl + 1;
    }

    // Put any trailing partial line back for the next read.
    if (start < inbox.size()) {
        sim::MutexLock lk(clientsMutex_);
        auto it = clients_.find(fd);
        if (it != clients_.end())
            it->second.inbox.insert(0, inbox.substr(start));
    }
    return true;
}

void SocketIngress::handleLine(int fd, const std::string &line)
{
    std::istringstream in(line);
    std::string verb;
    in >> verb;

    if (verb == "gen") {
        int input = 0;
        int output = 0;
        int cap = 0;
        int prefix_id = -1;
        int prefix_len = 0;
        if (!(in >> input >> output) || input <= 0 || output <= 0) {
            protocolErrors_.fetch_add(1);
            sendToFd(fd, "error usage: gen <input_tokens> <output_tokens> "
                         "[<output_cap>] [prefix=<id>[:<len>]]");
            return;
        }
        // Remaining tokens in any order: a bare integer is the output
        // cap, `prefix=<id>[:<len>]` declares a shared prompt-prefix
        // class (bare id means the whole input is the class prefix).
        // Malformed fields are protocol errors but never fatal: the
        // connection stays up for the client's next line.
        std::string tok;
        while (in >> tok) {
            if (tok.rfind("prefix=", 0) == 0) {
                std::size_t consumed = 0;
                const std::string spec = tok.substr(7);
                const std::size_t colon = spec.find(':');
                try {
                    prefix_id = std::stoi(spec, &consumed);
                    if (colon == std::string::npos) {
                        prefix_len = input; // whole input is the prefix
                        if (consumed != spec.size())
                            throw std::invalid_argument(spec);
                    } else {
                        if (consumed != colon)
                            throw std::invalid_argument(spec);
                        prefix_len =
                            std::stoi(spec.substr(colon + 1), &consumed);
                        if (consumed != spec.size() - colon - 1)
                            throw std::invalid_argument(spec);
                    }
                } catch (const std::exception &) {
                    protocolErrors_.fetch_add(1);
                    sendToFd(fd, "error bad prefix field (want "
                                 "prefix=<id>[:<len>]): " +
                                     tok);
                    return;
                }
                if (prefix_id < 0 || prefix_len <= 0) {
                    protocolErrors_.fetch_add(1);
                    sendToFd(fd,
                             "error prefix id must be >= 0 and len >= 1");
                    return;
                }
                prefix_len = std::min(prefix_len, input);
            } else {
                try {
                    std::size_t consumed = 0;
                    cap = std::stoi(tok, &consumed);
                    if (consumed != tok.size())
                        throw std::invalid_argument(tok);
                } catch (const std::exception &) {
                    protocolErrors_.fetch_add(1);
                    sendToFd(fd, "error bad field: " + tok);
                    return;
                }
            }
        }
        if (cap != 0 && cap < output) {
            protocolErrors_.fetch_add(1);
            sendToFd(fd, "error output_cap must be >= output_tokens");
            return;
        }
        injectRequest(fd, input, output, cap, prefix_id, prefix_len);
        return;
    }

    protocolErrors_.fetch_add(1);
    sendToFd(fd, "error unknown command: " + verb);
}

void SocketIngress::injectRequest(int fd, int input_tokens,
                                  int output_tokens, int output_cap,
                                  int prefix_id, int prefix_len)
{
    const wl::RequestId id =
        static_cast<wl::RequestId>(nextRequestId_.fetch_add(1));
    {
        sim::MutexLock lk(clientsMutex_);
        routes_[id] = fd;
    }

    wl::Request request;
    request.id = id;
    request.inputLen = input_tokens;
    request.outputLen = output_tokens;
    request.outputCap = output_cap;
    request.prefixId = prefix_id;
    request.prefixLen = prefix_len;
    // Acknowledge before the arrival is scheduled: the driver thread may
    // reject the request as soon as it sees it, and `rejected <id>` must
    // not overtake `queued <id>` on the wire.
    sendToFd(fd, "queued " + std::to_string(id));

    // The arrival timestamp is stamped on the driver thread right before
    // the system sees the request, so latency is measured from the moment
    // the serving system could first have acted on it (not from socket
    // read, which would fold scheduling delay of this very event into
    // every latency sample).  Raw pointers, not `this`: queued injections
    // may outlive a stopped ingress.
    sim::Executor *exec = &executor_;
    ServingSystem *sys = &system_;
    executor_.schedule(executor_.now(), [exec, sys, request]() mutable {
        request.arrival = exec->now();
        sys->onRequestArrival(request);
    });
    requestsInjected_.fetch_add(1);
}

void SocketIngress::sendToFd(int fd, const std::string &line)
{
    sim::MutexLock lk(clientsMutex_);
    auto it = clients_.find(fd);
    if (it == clients_.end() || it->second.dead)
        return;
    Client &client = it->second;
    client.outbox.append(line);
    client.outbox.push_back('\n');
    flushClientLocked(client);
    if (!client.dead && client.outbox.size() > options_.maxOutboxBytes) {
        // The peer stopped reading and the backlog bound is blown:
        // disconnect it rather than buffer without limit.  The poll
        // thread reaps the fd; routes die with the client.
        client.dead = true;
        clientsDroppedSlow_.fetch_add(1);
    }
}

void SocketIngress::flushClientLocked(Client &client)
{
    while (!client.outbox.empty()) {
        const ssize_t n =
            ::send(client.fd, client.outbox.data(), client.outbox.size(),
                   MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
            client.outbox.erase(0, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return; // socket buffer full: POLLOUT drains the rest
        client.dead = true; // peer gone or hard error
        return;
    }
}

void SocketIngress::sendToRequest(wl::RequestId id, const std::string &line,
                                  bool final_line)
{
    int fd = -1;
    {
        sim::MutexLock lk(clientsMutex_);
        auto it = routes_.find(id);
        if (it == routes_.end())
            return; // client gone (or simulation-fed request): drop
        fd = it->second;
        if (final_line)
            routes_.erase(it);
    }
    sendToFd(fd, line);
}

void SocketIngress::closeClientLocked(int fd)
{
    auto it = clients_.find(fd);
    if (it == clients_.end())
        return;
    closeFd(it->second.fd);
    clients_.erase(it);
    for (auto rit = routes_.begin(); rit != routes_.end();) {
        if (rit->second == fd)
            rit = routes_.erase(rit);
        else
            ++rit;
    }
}

} // namespace serving
} // namespace spotserve
