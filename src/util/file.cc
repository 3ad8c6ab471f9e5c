#include "util/file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

namespace hoiho::util {

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return false;
  *out = buf.str();
  return true;
}

bool fd_write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool write_file_atomic(const std::string& path, std::string_view data, std::string* error) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  auto fail = [&](const std::string& what, bool unlink_tmp) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    if (unlink_tmp) ::unlink(tmp.c_str());
    return false;
  };
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return fail("open '" + tmp + "'", false);
  if (!fd_write_all(fd, data)) {
    ::close(fd);
    return fail("write '" + tmp + "'", true);
  }
  // fsync before rename: the rename must never become visible ahead of the
  // data it points at, or a crash could publish an empty or torn file.
  if (::fsync(fd) != 0) {
    ::close(fd);
    return fail("fsync '" + tmp + "'", true);
  }
  if (::close(fd) != 0) return fail("close '" + tmp + "'", true);
  if (::rename(tmp.c_str(), path.c_str()) != 0) return fail("rename to '" + path + "'", true);

  // Best-effort directory fsync so the rename itself is durable; some
  // filesystems reject O_DIRECTORY fsync, which is fine to ignore.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

}  // namespace hoiho::util
