#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "storage/durable.h"
#include "storage/env.h"
#include "storage/polyglot.h"

namespace hygraph::storage {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/hygraph_wal_test_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    env_ = Env::Default();
  }
  void TearDown() override {
    std::system(("rm -rf " + dir_).c_str());
  }
  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
  Env* env_ = nullptr;
};

TEST_F(WalTest, Crc32KnownAnswer) {
  // The IEEE 802.3 check value: CRC-32 of "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
}

TEST_F(WalTest, Crc32IncrementalMatchesOneShot) {
  const std::string data = "hello, write-ahead world";
  uint32_t state = kCrc32Init;
  state = Crc32Update(state, data.data(), 5);
  state = Crc32Update(state, data.data() + 5, data.size() - 5);
  EXPECT_EQ(Crc32Finalize(state), Crc32(data));
}

TEST_F(WalTest, RoundTripsRecords) {
  const std::vector<std::string> payloads = {
      "1 NV 0 L 0 P 0", "2 AV 0 temp 100 3.5", std::string(10000, 'x'), ""};
  {
    auto writer = WalWriter::Create(env_, Path("wal.log"));
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const std::string& p : payloads) {
      ASSERT_TRUE((*writer)->Append(p, /*sync=*/false).ok());
    }
    ASSERT_TRUE((*writer)->Sync().ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto read = ReadWal(env_, Path("wal.log"));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->records, payloads);
  EXPECT_FALSE(read->torn_tail);
  EXPECT_EQ(read->dropped_bytes, 0u);
}

TEST_F(WalTest, MissingFileReadsAsEmptyLog) {
  auto read = ReadWal(env_, Path("absent.log"));
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
  EXPECT_FALSE(read->torn_tail);
}

std::string WriteFrames(const std::vector<std::string>& payloads) {
  std::string out;
  for (const std::string& p : payloads) out += EncodeWalFrame(p);
  return out;
}

void WriteRaw(Env* env, const std::string& path, const std::string& bytes) {
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile(path, &file).ok());
  ASSERT_TRUE(file->Append(bytes).ok());
  ASSERT_TRUE(file->Close().ok());
}

TEST_F(WalTest, TornTailIsSalvagedNotFatal) {
  const std::vector<std::string> payloads = {"first", "second", "third"};
  std::string bytes = WriteFrames(payloads);
  const std::string full = bytes;
  // Every truncation point after the intact prefix must salvage exactly the
  // complete records and report the rest as a torn tail.
  const size_t two = WriteFrames({"first", "second"}).size();
  for (size_t cut = two + 1; cut < full.size(); ++cut) {
    WriteRaw(env_, Path("wal.log"), full.substr(0, cut));
    auto read = ReadWal(env_, Path("wal.log"));
    ASSERT_TRUE(read.ok()) << "cut=" << cut << ": " << read.status().ToString();
    EXPECT_EQ(read->records,
              (std::vector<std::string>{"first", "second"}))
        << "cut=" << cut;
    EXPECT_TRUE(read->torn_tail) << "cut=" << cut;
    EXPECT_EQ(read->valid_bytes, two) << "cut=" << cut;
    EXPECT_EQ(read->dropped_bytes, cut - two) << "cut=" << cut;
  }
}

TEST_F(WalTest, CorruptCrcStopsAtLastGoodRecord) {
  std::string bytes = WriteFrames({"first", "second"});
  bytes.back() ^= 0x01;  // flip a bit in the last record's payload
  WriteRaw(env_, Path("wal.log"), bytes);
  auto read = ReadWal(env_, Path("wal.log"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records, std::vector<std::string>{"first"});
  EXPECT_TRUE(read->torn_tail);
}

TEST_F(WalTest, OversizedLengthFieldIsTreatedAsCorruption) {
  std::string bytes = WriteFrames({"ok"});
  // Append a frame header claiming a payload far beyond kWalMaxRecordSize.
  bytes += std::string("\xff\xff\xff\xff", 4) + std::string(8, 'z');
  WriteRaw(env_, Path("wal.log"), bytes);
  auto read = ReadWal(env_, Path("wal.log"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records, std::vector<std::string>{"ok"});
  EXPECT_TRUE(read->torn_tail);
}

TEST_F(WalTest, AppendRejectsOversizedPayload) {
  auto writer = WalWriter::Create(env_, Path("wal.log"));
  ASSERT_TRUE(writer.ok());
  std::string huge(kWalMaxRecordSize + 1, 'x');
  EXPECT_EQ((*writer)->Append(huge, false).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(WalTest, TruncateWalToValidPrefixDropsTornTail) {
  std::string bytes = WriteFrames({"first", "second"}) + "torn-garbage";
  WriteRaw(env_, Path("wal.log"), bytes);
  auto read = ReadWal(env_, Path("wal.log"));
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(read->torn_tail);
  ASSERT_TRUE(TruncateWalToValidPrefix(env_, Path("wal.log"), *read).ok());
  auto size = env_->GetFileSize(Path("wal.log"));
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, read->valid_bytes);
  auto reread = ReadWal(env_, Path("wal.log"));
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->records, read->records);
  EXPECT_FALSE(reread->torn_tail);
}

// Pins the WAL's text format: one record of each op, carrying strings and
// numbers the field codec must escape or spell exactly. Logs written before
// a change to any of these bytes would no longer replay.
TEST_F(WalTest, RecordPayloadsAreByteStable) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const double kDenormal = std::numeric_limits<double>::denorm_min();
  const double kLargest = 1.7976931348623157e308;
  const std::string kUtf8 = "Z\xC3\xBCrich";
  {
    DurableOptions options;
    options.sync_wal = false;
    DurableStore store(env_, dir_, std::make_unique<PolyglotStore>(),
                       options);
    ASSERT_TRUE(store.Open().ok());
    auto a = store.AddVertex(
        {"two words", "line\nbreak", "100%", "", kUtf8},
        {{"", Value("")},
         {"nan", Value(kNaN)},
         {"+inf", Value(kInf)},
         {"-inf", Value(-kInf)},
         {"-zero", Value(-0.0)},
         {"denormal", Value(kDenormal)},
         {"largest", Value(kLargest)},
         {"int_min", Value(std::numeric_limits<int64_t>::min())},
         {"int_max", Value(std::numeric_limits<int64_t>::max())},
         {"flag", Value(true)},
         {"none", Value()},
         {"text", Value("a b\n%" + kUtf8)}});
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    auto b = store.AddVertex({}, {});
    ASSERT_TRUE(b.ok());
    auto e = store.AddEdge(*a, *b, "rides to", {{"w", Value(false)}});
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    ASSERT_TRUE(store.SetVertexProperty(*b, "k ey%", Value(-kInf)).ok());
    ASSERT_TRUE(store.SetEdgeProperty(*e, kUtf8, Value("\n")).ok());
    ASSERT_TRUE(store.AppendSample({true, *a, "bikes %"}, -5, -0.0).ok());
    ASSERT_TRUE(
        store.AppendSample({false, *e, kUtf8}, 1700000000000, kDenormal)
            .ok());
    ASSERT_TRUE(store.RemoveEdge(*e).ok());
    ASSERT_TRUE(store.RemoveVertex(*b).ok());
  }
  auto read = ReadWal(env_, Path("wal.log"));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const std::vector<std::string> expected = {
      "1 NV 0 L 5 two%20words line%0Abreak 100%25 %00 Z\xC3\xBCrich P 12 "
      "%00 s:%00 +inf d:inf -inf d:-inf -zero d:-0 "
      "denormal d:4.9406564584124654e-324 flag b:1 "
      "int_max i:9223372036854775807 int_min i:-9223372036854775808 "
      "largest d:1.7976931348623157e+308 nan d:nan none n "
      "text s:a%20b%0A%25Z\xC3\xBCrich",
      "2 NV 1 L 0 P 0",
      "3 NE 0 0 1 rides%20to P 1 w b:0",
      "4 SV 1 k%20ey%25 d:-inf",
      "5 SE 0 Z\xC3\xBCrich s:%0A",
      "6 AV 0 bikes%20%25 -5 -0",
      "7 AE 0 Z\xC3\xBCrich 1700000000000 4.9406564584124654e-324",
      "8 RE 0",
      "9 RV 1",
  };
  EXPECT_EQ(read->records, expected);

  // And the log replays as written.
  DurableStore reopened(env_, dir_, std::make_unique<PolyglotStore>());
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.recovery().wal_records_replayed, expected.size());
  EXPECT_EQ(reopened.recovery().wal_replay_failures, 0u);
}

}  // namespace
}  // namespace hygraph::storage
