// Mirrors src/storage/env.cc: the one location exempt from raw-file-io.
#include <fcntl.h>
#include <unistd.h>
long EnvHome(const char* path, char* buf) {
  const int fd = ::open(path, O_RDONLY);
  return ::pread(fd, buf, 1, 0);
}
