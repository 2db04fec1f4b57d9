#include <cstdio>
std::FILE* FileIoBad(const char* path) {
  return std::fopen(path, "rb");
}
