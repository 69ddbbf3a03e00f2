#include "src/support/file_lock.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

namespace dynbcast {

namespace {

[[noreturn]] void throwErrno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void flockRetry(int fd, int op) {
  while (::flock(fd, op) != 0) {
    if (errno != EINTR) throwErrno("flock");
  }
}

void writeAllFd(int fd, const std::string& path, const std::string& data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throwErrno("write(" + path + ")");
    }
    written += static_cast<std::size_t>(n);
  }
}

}  // namespace

FileLock::FileLock(int fd, Mode mode) : fd_(fd) {
  flockRetry(fd_, mode == Mode::kExclusive ? LOCK_EX : LOCK_SH);
}

FileLock::~FileLock() { ::flock(fd_, LOCK_UN); }

void appendLineDurable(const std::string& path, const std::string& line) {
  appendLinesDurable(path, {line});
}

void appendLinesDurable(const std::string& path,
                        const std::vector<std::string>& lines) {
  if (lines.empty()) return;
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) throwErrno("open(" + path + ")");
  {
    FileLock lock(fd, FileLock::Mode::kExclusive);
    // A writer killed mid-append can leave a torn, unterminated tail
    // line. Appending straight after it would merge the first new record
    // into the garbage and lose BOTH; terminating the tail first confines
    // the damage to the torn line, which readers already skip.
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      throwErrno("fstat(" + path + ")");
    }
    std::string data;
    if (st.st_size > 0) {
      char tail = '\n';
      const ssize_t n = ::pread(fd, &tail, 1, st.st_size - 1);
      if (n < 0) {
        ::close(fd);
        throwErrno("pread(" + path + ")");
      }
      if (n == 1 && tail != '\n') data += '\n';
    }
    for (const std::string& line : lines) {
      data += line;
      data += '\n';
    }
    writeAllFd(fd, path, data);
    if (::fsync(fd) != 0) {
      ::close(fd);
      throwErrno("fsync(" + path + ")");
    }
  }
  ::close(fd);
}

void writeFileDurable(const std::string& path, const std::string& content) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throwErrno("open(" + path + ")");
  {
    FileLock lock(fd, FileLock::Mode::kExclusive);
    writeAllFd(fd, path, content);
    if (::fsync(fd) != 0) {
      ::close(fd);
      throwErrno("fsync(" + path + ")");
    }
  }
  ::close(fd);
}

std::optional<std::string> readFileIfExists(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    throwErrno("open(" + path + ")");
  }
  std::string content;
  {
    FileLock lock(fd, FileLock::Mode::kShared);
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        throwErrno("read(" + path + ")");
      }
      if (n == 0) break;
      content.append(chunk, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return content;
}

void makeDirectories(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    throw std::runtime_error("cannot create directory " + path + ": " +
                             ec.message());
  }
}

}  // namespace dynbcast
