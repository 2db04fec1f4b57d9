// Mirrors src/core/serialize.cc: the text codec's home, exempt from
// double-format.
#include <cstdio>
void CodecHome(double d) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
}
