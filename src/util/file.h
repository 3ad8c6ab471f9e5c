// Whole-file I/O shared by every durable artifact: model files, the serving
// generation archive, and the streaming-checkpoint manifest and WAL.
#pragma once

#include <string>
#include <string_view>

namespace hoiho::util {

// Reads the whole file at `path` into *out; false on open or read failure.
bool read_file(const std::string& path, std::string* out);

// Writes all of `data` to `fd`, retrying short writes and EINTR; false with
// errno set on any other failure. No failpoint: callers own their fault
// sites (the socket twin, util::write_all, carries "net.write").
bool fd_write_all(int fd, std::string_view data);

// Crash-safe whole-file replace: writes `path + ".tmp.<pid>"`, fsyncs it,
// rename()s it over `path`, and best-effort fsyncs the directory, so a
// reader sees either the old file or the new one, never a torn mix. False
// with *error ("<step> '<file>': <strerror>") on any I/O failure; the tmp
// file is removed.
bool write_file_atomic(const std::string& path, std::string_view data,
                       std::string* error = nullptr);

}  // namespace hoiho::util
