#include "service/client.hh"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

namespace contutto::service
{

namespace
{

using Clock = std::chrono::steady_clock;

int
connectTo(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        ::close(fd);
        return -1;
    }
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr))
        != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
sendAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off,
                           data.size() - off, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && (errno == EINTR || errno == EAGAIN))
                continue;
            return false;
        }
        off += std::size_t(n);
    }
    return true;
}

/**
 * Incremental line reader over one connection: keeps the carry-over
 * between lines, so a streaming response (progress* then result)
 * can be consumed frame by frame. A line without its '\n'
 * terminator (truncated response) is *not* a line — the newline is
 * the protocol's integrity marker.
 */
class LineReader
{
  public:
    explicit LineReader(int fd) : fd_(fd) {}

    /** One line within @p timeout; empty on EOF/error/timeout. */
    std::string
    next(std::chrono::milliseconds timeout)
    {
        const auto deadline = Clock::now() + timeout;
        for (;;) {
            std::size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return line;
            }
            if (buf_.size() > (1u << 20))
                return {};
            auto left = std::chrono::duration_cast<
                std::chrono::milliseconds>(deadline
                                           - Clock::now());
            if (left.count() <= 0)
                return {};
            pollfd pfd{fd_, POLLIN, 0};
            int r = ::poll(
                &pfd, 1,
                int(std::min<std::int64_t>(left.count(), 100)));
            if (r < 0 && errno != EINTR)
                return {};
            if (r <= 0)
                continue;
            char chunk[4096];
            ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0) {
                if (n < 0
                    && (errno == EINTR || errno == EAGAIN))
                    continue;
                return {}; // EOF before the newline: truncated.
            }
            buf_.append(chunk, std::size_t(n));
        }
    }

  private:
    int fd_;
    std::string buf_;
};

} // namespace

CampaignClient::CampaignClient(const Params &params)
    : params_(params), rng_(params.jitterSeed)
{
}

std::string
CampaignClient::roundTrip(const std::string &line,
                          std::chrono::milliseconds timeout)
{
    int fd = connectTo(params_.socketPath);
    if (fd < 0)
        return {};
    std::string out;
    if (sendAll(fd, line + "\n")) {
        LineReader reader(fd);
        out = reader.next(timeout);
    }
    ::close(fd);
    return out;
}

std::string
CampaignClient::streamTrip(
    const std::string &line, std::chrono::milliseconds lineTimeout,
    std::chrono::steady_clock::time_point deadline)
{
    int fd = connectTo(params_.socketPath);
    if (fd < 0)
        return {};
    std::string out;
    if (sendAll(fd, line + "\n")) {
        LineReader reader(fd);
        for (;;) {
            auto left = std::chrono::duration_cast<
                std::chrono::milliseconds>(deadline
                                           - Clock::now());
            if (left.count() <= 0)
                break;
            // Each received frame re-arms the per-line wait, so a
            // long-running streamed campaign is bounded by frame
            // spacing, not by total runtime.
            std::string l =
                reader.next(std::min(left, lineTimeout));
            if (l.empty())
                break; // transport failure or silence: retry path
            try {
                Json j = Json::parse(l);
                if (j.isObject()
                    && j.getString("type", "") == "progress") {
                    if (progressFn_)
                        progressFn_(j);
                    continue;
                }
                out = l; // terminal (result / shed / error)
            } catch (const ProtocolError &) {
                // A torn progress frame glued to its successor
                // (injected truncation). Progress is best-effort:
                // skip the garbage and keep reading. If the tear
                // swallowed the terminal frame, the reader hits
                // EOF, out stays empty, and the caller's retry of
                // the same id replays the recorded verdict.
                continue;
            }
            break;
        }
    }
    ::close(fd);
    return out;
}

void
CampaignClient::backoff(unsigned attempt,
                        std::chrono::milliseconds atLeast)
{
    // Exponential window with full jitter, floored by the server's
    // retry-after hint when one was given.
    std::uint64_t base = std::uint64_t(params_.backoffBase.count());
    std::uint64_t cap = std::uint64_t(params_.backoffCap.count());
    std::uint64_t window = base << std::min(attempt, 20u);
    window = std::min(std::max(window, base), cap);
    std::uint64_t sleepMs = base + rng_.below(window + 1);
    sleepMs = std::max(sleepMs,
                       std::uint64_t(atLeast.count()));
    std::this_thread::sleep_for(
        std::chrono::milliseconds(sleepMs));
}

CampaignClient::Reply
CampaignClient::submit(const Request &request)
{
    Reply reply;
    const std::string line = request.toJson().dump();
    const auto deadline = Clock::now() + params_.callTimeout;

    for (unsigned attempt = 0; attempt < params_.maxAttempts;
         ++attempt) {
        if (Clock::now() >= deadline) {
            reply.outcome = Outcome::timedOut;
            reply.error = "call timeout exhausted";
            return reply;
        }
        ++reply.attempts;

        auto left = std::chrono::duration_cast<
            std::chrono::milliseconds>(deadline - Clock::now());
        std::string respLine =
            request.stream
                ? streamTrip(line, params_.responseTimeout,
                             deadline)
                : roundTrip(line,
                            std::min(left,
                                     params_.responseTimeout));
        if (respLine.empty()) {
            // Refused / dropped / truncated: same recovery — back
            // off and resubmit the identical id.
            backoff(attempt, std::chrono::milliseconds(0));
            continue;
        }

        Json resp;
        try {
            resp = Json::parse(respLine);
            const std::string type = resp.at("type").asString();
            if (type == "result") {
                reply.outcome = Outcome::ok;
                reply.response = resp;
                return reply;
            }
            if (type == "shed") {
                ++reply.shedRetries;
                reply.response = resp;
                backoff(attempt,
                        std::chrono::milliseconds(
                            resp.getU64("retryAfterMs", 0)));
                continue;
            }
            if (type == "error") {
                reply.outcome = Outcome::error;
                reply.response = resp;
                reply.error = resp.at("message").asString();
                return reply;
            }
            throw ProtocolError("unexpected response type '"
                                + type + "'");
        } catch (const ProtocolError &e) {
            // A garbled-but-newline-terminated response; treat it
            // like a lost one.
            reply.error = e.what();
            backoff(attempt, std::chrono::milliseconds(0));
            continue;
        }
    }

    if (reply.shedRetries == reply.attempts && reply.attempts > 0)
        reply.outcome = Outcome::shedGiveUp;
    else if (reply.error.empty()) {
        reply.outcome = Outcome::unreachable;
        reply.error = "no response within "
                      + std::to_string(params_.maxAttempts)
                      + " attempts";
    } else {
        reply.outcome = Outcome::error;
    }
    return reply;
}

CampaignClient::Reply
CampaignClient::oneShot(const Json &request)
{
    Reply reply;
    for (unsigned attempt = 0; attempt < params_.maxAttempts;
         ++attempt) {
        ++reply.attempts;
        std::string respLine =
            roundTrip(request.dump(), params_.responseTimeout);
        if (!respLine.empty()) {
            try {
                reply.response = Json::parse(respLine);
                reply.outcome = Outcome::ok;
                return reply;
            } catch (const ProtocolError &e) {
                reply.error = e.what();
            }
        }
        backoff(attempt, std::chrono::milliseconds(0));
    }
    reply.outcome = Outcome::unreachable;
    return reply;
}

CampaignClient::Reply
CampaignClient::health(const std::string &format)
{
    Json req = Json::object();
    req.set("type", Json::string("health"));
    if (!format.empty())
        req.set("format", Json::string(format));
    return oneShot(req);
}

bool
CampaignClient::waitReady(std::chrono::milliseconds timeout)
{
    Json ping = Json::object();
    ping.set("type", Json::string("ping"));
    const std::string line = ping.dump();
    const auto deadline = Clock::now() + timeout;
    while (Clock::now() < deadline) {
        std::string resp =
            roundTrip(line, std::chrono::milliseconds(500));
        if (!resp.empty())
            return true;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(20));
    }
    return false;
}

} // namespace contutto::service
