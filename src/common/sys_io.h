#ifndef ASSET_COMMON_SYS_IO_H_
#define ASSET_COMMON_SYS_IO_H_

/// \file sys_io.h
/// The one fault-injection seam for data syscalls.
///
/// Every pread/pwrite/fsync the storage layer performs and every
/// recv/send/connect/poll the server and client perform goes through
/// this file, so a fault test can serve short transfers, EINTR, stalls,
/// resets and device errors deterministically — no signal storms, no
/// traffic shaping, no failing disk.
///
/// Installation is process-global (one atomic pointer) because the
/// interesting faults span threads — the WAL flusher, every server
/// worker, the client — inside one test binary. Hooks may be called
/// concurrently and must be thread-safe. Production code never installs
/// hooks, and the fast path is one acquire load per call.
///
/// A member left empty falls through to the real syscall, so tests
/// override only what they break. Hooks receive the fd, so a test can
/// target one file or socket and pass the rest to the real call.

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>

#include <cstddef>
#include <functional>
#include <string>

#include "common/status.h"

namespace asset {

/// Signature-compatible stand-ins for the syscalls. Each returns the
/// syscall's result and reports failure via errno, exactly like the
/// real thing.
struct IoHooks {
  std::function<ssize_t(int fd, void* buf, size_t len, off_t off)> pread;
  std::function<ssize_t(int fd, const void* buf, size_t len, off_t off)>
      pwrite;
  std::function<int(int fd)> fsync;
  std::function<ssize_t(int fd, void* buf, size_t len, int flags)> recv;
  std::function<ssize_t(int fd, const void* buf, size_t len, int flags)> send;
  std::function<int(int fd, const sockaddr* addr, socklen_t len)> connect;
  std::function<int(pollfd* fds, nfds_t nfds, int timeout_ms)> poll;
};

/// Installs `hooks` process-wide for the lifetime of the guard.
/// `hooks` must outlive the guard; in-flight calls may still be
/// executing a hook briefly after destruction, so a test must join its
/// traffic (stop servers, destroy clients and logs) before destroying
/// the hook object itself.
class ScopedIoHooks {
 public:
  explicit ScopedIoHooks(const IoHooks* hooks);
  ~ScopedIoHooks();

  ScopedIoHooks(const ScopedIoHooks&) = delete;
  ScopedIoHooks& operator=(const ScopedIoHooks&) = delete;

 private:
  const IoHooks* prev_;
};

// --- Storage: full transfers --------------------------------------------
//
// POSIX allows any read/write to be interrupted by a signal (EINTR) or
// to transfer fewer bytes than asked — neither is an error, but naive
// single-shot callers turn both into spurious I/O failures. Every
// storage-layer file touch (WAL and page file alike) goes through these
// wrappers so the retry discipline lives in one place.

/// Reads exactly `len` bytes at `offset`, retrying EINTR and short
/// reads. IOError (naming `what`) on a real failure or if end-of-file
/// arrives before `len` bytes.
Status PreadFully(int fd, void* buf, size_t len, off_t offset,
                  const std::string& what);

/// Writes exactly `len` bytes at `offset`, retrying EINTR and short
/// writes. IOError (naming `what`) on a real failure or a zero-byte
/// write.
Status PwriteFully(int fd, const void* buf, size_t len, off_t offset,
                   const std::string& what);

/// fsync retrying EINTR.
Status FsyncRetry(int fd);

// --- Sockets: single calls, the caller owns the retry policy ------------

/// ::recv unless a recv hook is installed.
ssize_t SockRecv(int fd, void* buf, size_t len, int flags);
/// ::send unless a send hook is installed.
ssize_t SockSend(int fd, const void* buf, size_t len, int flags);
/// ::connect unless a connect hook is installed.
int SockConnect(int fd, const sockaddr* addr, socklen_t len);
/// ::poll unless a poll hook is installed.
int SockPoll(pollfd* fds, nfds_t nfds, int timeout_ms);

}  // namespace asset

#endif  // ASSET_COMMON_SYS_IO_H_
