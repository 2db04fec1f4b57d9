#include <fstream>
bool FileIoClean(const char* path) {
  std::ifstream in(path);  // NOLINT(hygraph-raw-file-io)
  return in.good();
}
