// Standalone replay driver, linked into the fuzz_* executables when the
// toolchain has no libFuzzer (-fsanitize=fuzzer is Clang-only). Runs every
// file named on the command line through the harness once, so a corpus
// file or a crash reproducer can be replayed with any compiler:
//
//   ./fuzz_hgql_parse fuzz/corpus/hgql_parse/*
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

int main(int argc, char** argv) {
  int executed = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[i]);
      return 1;
    }
    const std::string file((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    // An exactly sized copy, as libFuzzer passes: the string's terminator
    // and spare capacity would hide a one-byte over-read from
    // AddressSanitizer.
    const std::vector<uint8_t> bytes(file.begin(), file.end());
    LLVMFuzzerTestOneInput(bytes.data(), bytes.size());
    ++executed;
  }
  std::printf("replayed %d input(s) without a crash\n", executed);
  return 0;
}
