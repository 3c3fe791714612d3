#pragma once
// Deadline- and fault-aware socket I/O shared by Client and Server.
//
// Both sides of the lbserve wire used to open-code send/recv loops; this
// module is the single implementation, adding three things the raw loops
// lacked:
//
//   - deadlines: every operation takes an optional absolute steady_clock
//     deadline, enforced with poll(), so a stuck peer can no longer wedge
//     a connection handler or a client call forever;
//   - fault hooks: an optional fault::FaultInjector shortens or resets
//     individual reads/writes (torn-frame chaos testing).  A null injector
//     costs one pointer test — the hooks are inert by default;
//   - MSG_NOSIGNAL on every send, so a peer that disappears mid-response
//     surfaces as an error return instead of a process-killing SIGPIPE.

#include <chrono>
#include <cstddef>
#include <optional>
#include <string>

#include "fault/fault.hpp"

namespace lb::service::net {

/// Absolute deadline for an I/O operation; nullopt = wait forever.
using IoDeadline = std::optional<std::chrono::steady_clock::time_point>;

enum class IoStatus {
  kOk,          ///< operation completed (possibly partially, nonblocking)
  kClosed,      ///< orderly EOF from the peer (reads only)
  kTimeout,     ///< deadline expired before the operation completed
  kError,       ///< transport error (including injected connection resets)
  kWouldBlock,  ///< nonblocking op made no progress; poll and retry
};

/// Sends all of `data`, honoring short-write/reset injections and the
/// deadline.  Returns kOk, kTimeout, or kError.
IoStatus sendAll(int fd, const std::string& data, const IoDeadline& deadline,
                 fault::FaultInjector* fault = nullptr);

/// Receives at least one byte, appending to `buffer` (up to `max_bytes` per
/// call).  Returns kOk on data, kClosed on EOF, kTimeout, or kError.
IoStatus recvSome(int fd, std::string& buffer, std::size_t max_bytes,
                  const IoDeadline& deadline,
                  fault::FaultInjector* fault = nullptr);

// ---------------------------------------------------------------------------
// Nonblocking primitives for the event-loop server (docs/service.md)
// ---------------------------------------------------------------------------
//
// Same fault semantics as the blocking calls — an injected reset surfaces
// as kError, an injected short read/write dribbles one byte — but these
// never sleep: when the kernel buffer is empty/full they return
// kWouldBlock and the caller's poll() loop decides when to retry.

/// Puts fd into O_NONBLOCK mode.  Returns false on fcntl failure.
bool setNonblocking(int fd);

/// Sends as much of data[offset..] as the socket accepts right now and
/// advances `offset`.  Returns kOk on any progress, kWouldBlock on none,
/// kError on transport error or injected reset.
IoStatus sendNonblock(int fd, const std::string& data, std::size_t& offset,
                      fault::FaultInjector* fault = nullptr);

/// Receives at most `max_bytes` (clamped to one internal chunk), appending
/// to `buffer`.  Returns kOk on data, kClosed on EOF, kWouldBlock when the
/// socket has nothing, kError on transport error or injected reset.
IoStatus recvNonblock(int fd, std::string& buffer, std::size_t max_bytes,
                      fault::FaultInjector* fault = nullptr);

}  // namespace lb::service::net
