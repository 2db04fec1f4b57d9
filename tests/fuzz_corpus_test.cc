// Deterministic replay of every checked-in fuzz corpus file through its
// harness. This is what keeps the fuzz/ subsystem honest in tier-1: the
// harnesses always compile, every seed (including regression reproducers
// for past findings, e.g. the parser stack overflow) runs on every build,
// and under -DHYGRAPH_SANITIZE the whole corpus executes under ASan+UBSan.
//
// HYGRAPH_FUZZ_CORPUS_DIR is injected by tests/CMakeLists.txt and points at
// <repo>/fuzz/corpus.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/harness.h"

namespace hygraph::fuzz {
namespace {

using Harness = void (*)(const uint8_t*, size_t);

std::vector<std::filesystem::path> CorpusFiles(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(HYGRAPH_FUZZ_CORPUS_DIR) / name;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

void ReplayCorpus(const std::string& name, Harness harness) {
  const auto files = CorpusFiles(name);
  // An empty corpus means the seeds were lost, not that there is nothing
  // to check.
  ASSERT_FALSE(files.empty()) << "no corpus files under fuzz/corpus/" << name;
  for (const auto& path : files) {
    SCOPED_TRACE(path.string());
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    const std::string file((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    // An exactly sized copy, as libFuzzer passes: the string's terminator
    // and spare capacity would hide a one-byte over-read from
    // AddressSanitizer.
    const std::vector<uint8_t> bytes(file.begin(), file.end());
    harness(bytes.data(), bytes.size());
  }
}

TEST(FuzzCorpusTest, WalReader) { ReplayCorpus("wal_reader", FuzzWalReader); }

TEST(FuzzCorpusTest, SerializeLoad) {
  ReplayCorpus("serialize_load", FuzzSerializeLoad);
}

TEST(FuzzCorpusTest, HgqlParse) { ReplayCorpus("hgql_parse", FuzzHgqlParse); }

TEST(FuzzCorpusTest, ChunkCodec) {
  ReplayCorpus("chunk_codec", FuzzChunkCodec);
}

TEST(FuzzCorpusTest, WireFrame) {
  ReplayCorpus("wire_frame", FuzzWireFrame);
}

TEST(FuzzCorpusTest, SegmentLoad) {
  ReplayCorpus("segment_load", FuzzSegmentLoad);
}

}  // namespace
}  // namespace hygraph::fuzz
