#include "support/signal_safe.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace mfcp::support {

std::size_t format_u64_decimal(char* buf, std::size_t cap,
                               std::uint64_t value) noexcept {
  char digits[20];  // 2^64 - 1 has 20 decimal digits
  std::size_t n = 0;
  do {
    digits[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  if (n > cap) {
    return 0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    buf[i] = digits[n - 1 - i];
  }
  return n;
}

std::size_t append_literal(char* buf, std::size_t cap, std::size_t pos,
                           const char* text) noexcept {
  std::size_t len = 0;
  while (text[len] != '\0') {
    ++len;
  }
  if (pos > cap || len > cap - pos) {
    return pos;
  }
  for (std::size_t i = 0; i < len; ++i) {
    buf[pos + i] = text[i];
  }
  return pos + len;
}

bool write_all_fd(int fd, const void* data, std::size_t len) noexcept {
  if (fd < 0) {
    return false;
  }
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

int open_trunc_fd(const char* path) noexcept {
  int fd = -1;
  do {
    fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

void close_fd(int fd) noexcept {
  if (fd >= 0) {
    ::close(fd);
  }
}

}  // namespace mfcp::support
