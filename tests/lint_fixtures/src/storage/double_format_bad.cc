#include <cstdio>
// A comment naming "%.17g" does not count; the formatter below does.
void DoubleFormatBad(double d) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
}
