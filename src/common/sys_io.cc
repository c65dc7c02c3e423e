#include "common/sys_io.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>

namespace asset {

namespace {

std::atomic<const IoHooks*> installed{nullptr};

/// The hook `member` if one is installed, else the real syscall.
template <auto member, typename Real, typename... Args>
auto Call(Real real, Args... args) {
  const IoHooks* h = installed.load(std::memory_order_acquire);
  if (h != nullptr && h->*member) return (h->*member)(args...);
  return real(args...);
}

}  // namespace

ScopedIoHooks::ScopedIoHooks(const IoHooks* hooks)
    : prev_(installed.exchange(hooks, std::memory_order_release)) {}

ScopedIoHooks::~ScopedIoHooks() {
  installed.store(prev_, std::memory_order_release);
}

Status PreadFully(int fd, void* buf, size_t len, off_t offset,
                  const std::string& what) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  size_t done = 0;
  while (done < len) {
    ssize_t n = Call<&IoHooks::pread>(::pread, fd, p + done, len - done,
                                      offset + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread " + what + ": " +
                             std::string(std::strerror(errno)));
    }
    if (n == 0) {
      return Status::IOError("pread " + what + ": unexpected end of file");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status PwriteFully(int fd, const void* buf, size_t len, off_t offset,
                   const std::string& what) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  size_t done = 0;
  while (done < len) {
    ssize_t n = Call<&IoHooks::pwrite>(::pwrite, fd, p + done, len - done,
                                       offset + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pwrite " + what + ": " +
                             std::string(std::strerror(errno)));
    }
    if (n == 0) {
      return Status::IOError("pwrite " + what + ": wrote 0 bytes");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FsyncRetry(int fd) {
  while (Call<&IoHooks::fsync>(::fsync, fd) != 0) {
    if (errno == EINTR) continue;
    return Status::IOError("fsync: " + std::string(std::strerror(errno)));
  }
  return Status::OK();
}

ssize_t SockRecv(int fd, void* buf, size_t len, int flags) {
  return Call<&IoHooks::recv>(::recv, fd, buf, len, flags);
}

ssize_t SockSend(int fd, const void* buf, size_t len, int flags) {
  return Call<&IoHooks::send>(::send, fd, buf, len, flags);
}

int SockConnect(int fd, const sockaddr* addr, socklen_t len) {
  return Call<&IoHooks::connect>(::connect, fd, addr, len);
}

int SockPoll(pollfd* fds, nfds_t nfds, int timeout_ms) {
  return Call<&IoHooks::poll>(::poll, fds, nfds, timeout_ms);
}

}  // namespace asset
