/**
 * @file
 * Shared helpers of the campaign-service tests: a self-cleaning
 * socket path, a raw line-level connection to a live server, and
 * reads of the server's one counter plane.
 */

#ifndef CONTUTTO_TESTS_SERVICE_HARNESS_HH
#define CONTUTTO_TESTS_SERVICE_HARNESS_HH

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "service/server.hh"

namespace
{

/** Self-cleaning socket/file path under the test temp dir. */
class TempPath
{
  public:
    explicit TempPath(const std::string &name)
        : path_(::testing::TempDir() + name)
    {
        std::remove(path_.c_str());
    }
    ~TempPath() { std::remove(path_.c_str()); }
    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

/**
 * Raw-socket observer: sends one request line and records every
 * response line verbatim, so frame ordering and "nothing after the
 * terminal result" can be asserted at the wire level (the client
 * library would hide both).
 */
class RawStream
{
    using Clock = std::chrono::steady_clock;

  public:
    explicit RawStream(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr))
            != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }
    ~RawStream()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool ok() const { return fd_ >= 0; }

    bool
    send(const std::string &line)
    {
        std::string out = line + "\n";
        return ::send(fd_, out.data(), out.size(), MSG_NOSIGNAL)
               == ssize_t(out.size());
    }

    /** One line within @p timeout; empty on timeout/EOF. */
    std::string
    nextLine(std::chrono::milliseconds timeout)
    {
        const auto deadline = Clock::now() + timeout;
        for (;;) {
            std::size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return line;
            }
            auto left = std::chrono::duration_cast<
                std::chrono::milliseconds>(deadline
                                           - Clock::now());
            if (left.count() <= 0)
                return {};
            pollfd pfd{fd_, POLLIN, 0};
            int r = ::poll(&pfd, 1, int(left.count()));
            if (r <= 0)
                continue;
            char chunk[4096];
            ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return {};
            buf_.append(chunk, std::size_t(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

/** A counter of @p server's metrics registry. */
inline std::uint64_t
counter(const contutto::service::CampaignServer &server,
        const std::string &name)
{
    return server.metricsSnapshot().counterValue(name);
}

/** A gauge of @p server's metrics registry (-1 when absent). */
inline std::int64_t
gauge(const contutto::service::CampaignServer &server,
      const std::string &name)
{
    const auto snap = server.metricsSnapshot();
    const auto *g = snap.gauge(name);
    EXPECT_NE(g, nullptr) << name;
    return g != nullptr ? g->value : -1;
}

} // namespace

#endif // CONTUTTO_TESTS_SERVICE_HARNESS_HH
