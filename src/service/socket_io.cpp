#include "service/socket_io.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>

#include <cerrno>

namespace lb::service::net {

namespace {

/// Waits for `events` (POLLIN/POLLOUT) on fd up to the deadline.
IoStatus waitReady(int fd, short events, const IoDeadline& deadline) {
  for (;;) {
    int timeout_ms = -1;
    if (deadline) {
      const auto remaining = *deadline - std::chrono::steady_clock::now();
      const auto ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
              .count();
      if (ms <= 0) return IoStatus::kTimeout;
      timeout_ms = static_cast<int>(
          ms > 0x7fffffff ? 0x7fffffff : ms);
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return IoStatus::kOk;
    if (rc == 0) return IoStatus::kTimeout;
    if (errno == EINTR) continue;
    return IoStatus::kError;
  }
}

}  // namespace

IoStatus sendAll(int fd, const std::string& data, const IoDeadline& deadline,
                 fault::FaultInjector* fault) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    std::size_t chunk = data.size() - sent;
    if (fault != nullptr) {
      switch (fault->onSocketWrite()) {
        case fault::SocketFault::kReset:
          return IoStatus::kError;
        case fault::SocketFault::kShort:
          chunk = 1;  // torn write: dribble one byte this call
          break;
        case fault::SocketFault::kNone:
          break;
      }
    }
    if (const IoStatus ready = waitReady(fd, POLLOUT, deadline);
        ready != IoStatus::kOk)
      return ready;
    const ssize_t n = ::send(fd, data.data() + sent, chunk, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return IoStatus::kError;
    }
    if (n == 0) return IoStatus::kError;
    sent += static_cast<std::size_t>(n);
  }
  return IoStatus::kOk;
}

IoStatus recvSome(int fd, std::string& buffer, std::size_t max_bytes,
                  const IoDeadline& deadline, fault::FaultInjector* fault) {
  if (max_bytes == 0) return IoStatus::kOk;
  std::size_t want = max_bytes;
  if (fault != nullptr) {
    switch (fault->onSocketRead()) {
      case fault::SocketFault::kReset:
        return IoStatus::kError;
      case fault::SocketFault::kShort:
        want = 1;  // torn read: deliver one byte this call
        break;
      case fault::SocketFault::kNone:
        break;
    }
  }
  char chunk[4096];
  if (want > sizeof chunk) want = sizeof chunk;
  for (;;) {
    if (const IoStatus ready = waitReady(fd, POLLIN, deadline);
        ready != IoStatus::kOk)
      return ready;
    const ssize_t n = ::recv(fd, chunk, want, 0);
    if (n > 0) {
      buffer.append(chunk, static_cast<std::size_t>(n));
      return IoStatus::kOk;
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return IoStatus::kError;
  }
}

bool setNonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

IoStatus sendNonblock(int fd, const std::string& data, std::size_t& offset,
                      fault::FaultInjector* fault) {
  bool progressed = false;
  while (offset < data.size()) {
    std::size_t chunk = data.size() - offset;
    if (fault != nullptr) {
      switch (fault->onSocketWrite()) {
        case fault::SocketFault::kReset:
          return IoStatus::kError;
        case fault::SocketFault::kShort:
          chunk = 1;  // torn write: dribble one byte this call
          break;
        case fault::SocketFault::kNone:
          break;
      }
    }
    const ssize_t n = ::send(fd, data.data() + offset, chunk, MSG_NOSIGNAL);
    if (n > 0) {
      offset += static_cast<std::size_t>(n);
      progressed = true;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return progressed ? IoStatus::kOk : IoStatus::kWouldBlock;
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

IoStatus recvNonblock(int fd, std::string& buffer, std::size_t max_bytes,
                      fault::FaultInjector* fault) {
  if (max_bytes == 0) return IoStatus::kOk;
  std::size_t want = max_bytes;
  if (fault != nullptr) {
    switch (fault->onSocketRead()) {
      case fault::SocketFault::kReset:
        return IoStatus::kError;
      case fault::SocketFault::kShort:
        want = 1;  // torn read: deliver one byte this call
        break;
      case fault::SocketFault::kNone:
        break;
    }
  }
  char chunk[4096];
  if (want > sizeof chunk) want = sizeof chunk;
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, want, 0);
    if (n > 0) {
      buffer.append(chunk, static_cast<std::size_t>(n));
      return IoStatus::kOk;
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kWouldBlock;
    return IoStatus::kError;
  }
}

}  // namespace lb::service::net
