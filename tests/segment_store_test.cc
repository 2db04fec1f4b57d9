#include "storage/segment/segment_store.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "storage/durable.h"
#include "storage/env.h"
#include "storage/fault_injection_env.h"
#include "storage/polyglot.h"

namespace hygraph::storage {
namespace {

bool IsSegmentPath(const std::string& path) {
  return path.size() > 4 && path.compare(path.size() - 4, 4, ".seg") == 0;
}

/// Forwards to a base env and counts the I/O shape of the cold tier:
/// segment files created, segment-file fsyncs, and read handles opened.
/// FailRandomOpens makes opening a read handle fail as EMFILE does.
class CountingEnv final : public Env {
 public:
  explicit CountingEnv(Env* base) : base_(base) {}

  int segment_creates() const { return segment_creates_; }
  int segment_syncs() const { return segment_syncs_; }
  int random_opens() const { return random_opens_; }
  void FailRandomOpens(bool fail) { fail_random_opens_ = fail; }

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* file) override {
    std::unique_ptr<WritableFile> inner;
    HYGRAPH_RETURN_IF_ERROR(base_->NewWritableFile(path, &inner));
    const bool segment = IsSegmentPath(path);
    if (segment) ++segment_creates_;
    *file = std::make_unique<CountingFile>(
        std::move(inner), segment ? &segment_syncs_ : nullptr);
    return Status::OK();
  }
  Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<RandomAccessFile>* file) override {
    ++random_opens_;
    if (fail_random_opens_) {
      return Status::IOError("open " + path + ": Too many open files");
    }
    return base_->NewRandomAccessFile(path, file);
  }
  Status ReadFileToString(const std::string& path, std::string* out) override {
    return base_->ReadFileToString(path, out);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Result<uint64_t> GetFileSize(const std::string& path) override {
    return base_->GetFileSize(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  Status CreateDirIfMissing(const std::string& path) override {
    return base_->CreateDirIfMissing(path);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* out) override {
    return base_->GetChildren(dir, out);
  }

 private:
  class CountingFile final : public WritableFile {
   public:
    CountingFile(std::unique_ptr<WritableFile> inner, std::atomic<int>* syncs)
        : inner_(std::move(inner)), syncs_(syncs) {}
    Status Append(const std::string& data) override {
      return inner_->Append(data);
    }
    Status Sync() override {
      if (syncs_ != nullptr) ++*syncs_;
      return inner_->Sync();
    }
    Status Close() override { return inner_->Close(); }

   private:
    std::unique_ptr<WritableFile> inner_;
    std::atomic<int>* syncs_;
  };

  Env* base_;
  std::atomic<int> segment_creates_{0};
  std::atomic<int> segment_syncs_{0};
  std::atomic<int> random_opens_{0};
  std::atomic<bool> fail_random_opens_{false};
};

class SegmentStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/hygraph_segment_store_test_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    root_ = tmpl;
  }
  void TearDown() override { std::system(("rm -rf " + root_).c_str()); }

  std::vector<std::string> SegmentFiles(const std::string& cold_dir) {
    std::vector<std::string> children;
    EXPECT_TRUE(Env::Default()->GetChildren(cold_dir, &children).ok());
    std::vector<std::string> out;
    for (const auto& name : children) {
      if (IsSegmentPath(name)) out.push_back(name);
    }
    return out;
  }

  /// A tiered durable store whose series seal a chunk every 4 samples.
  std::unique_ptr<DurableStore> MakeTieredStore(Env* env,
                                                size_t cache_budget) {
    ts::HypertableOptions chunks;
    chunks.chunk_duration = 16;
    DurableOptions options;
    options.sync_wal = false;
    options.tiering.enabled = true;
    options.tiering.cache_budget_bytes = cache_budget;
    return std::make_unique<DurableStore>(
        env, root_ + "/store", std::make_unique<PolyglotStore>(chunks),
        options);
  }

  /// `series` vertices with 12 samples each: two sealed chunks apiece.
  static void IngestSeries(DurableStore* store, int series) {
    for (int v = 0; v < series; ++v) {
      auto id = store->AddVertex({"Station"}, {});
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      for (int i = 0; i < 12; ++i) {
        ASSERT_TRUE(
            store->AppendSample({true, *id, "temp"}, i * 4, v + 0.5 * i).ok());
      }
    }
  }

  /// Range-scans every series and checks it kept all its samples.
  static void ScanEverySeries(DurableStore* store, int series,
                              size_t samples = 12) {
    for (int v = 0; v < series; ++v) {
      auto range = store->SeriesRange(
          {true, static_cast<uint64_t>(v), "temp"}, Interval::All());
      ASSERT_TRUE(range.ok()) << "vertex " << v << ": "
                              << range.status().ToString();
      ASSERT_EQ(range->samples().size(), samples) << "vertex " << v;
    }
  }

  std::string root_;
};

// -- I/O shape -----------------------------------------------------------------

TEST_F(SegmentStoreTest, CheckpointWritesOneSegmentFileWithOneFsync) {
  CountingEnv env(Env::Default());
  auto store = MakeTieredStore(&env, 64u << 20);
  ASSERT_TRUE(store->Open().ok());
  IngestSeries(store.get(), 300);
  ASSERT_TRUE(store->Checkpoint().ok());
  // 600 sealed chunks from 300 series land in one file, made durable by
  // one fsync — not one file and one fsync per series.
  EXPECT_GE(store->cold_tier()->cache_stats().live_records, 600u);
  EXPECT_EQ(env.segment_creates(), 1);
  EXPECT_EQ(env.segment_syncs(), 1);
  EXPECT_EQ(SegmentFiles(root_ + "/store/cold").size(), 1u);
}

TEST_F(SegmentStoreTest, MissesOpenEachSegmentFileOnce) {
  CountingEnv env(Env::Default());
  SegmentStoreOptions options;
  options.env = &env;
  options.dir = root_ + "/cold";
  options.cache_budget_bytes = 1;  // holds nothing: every pin is a miss
  auto store = SegmentStore::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  std::vector<ts::ColdChunkId> ids;
  for (int i = 0; i < 50; ++i) {
    ts::ColdChunkMeta meta;
    auto id = (*store)->Put("v" + std::to_string(i) + ".temp", i * 16, meta,
                            "payload-" + std::to_string(i));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  ASSERT_TRUE((*store)->SyncSegments().ok());
  for (int i = 0; i < 50; ++i) {
    auto pinned = (*store)->Pin(ids[i]);
    ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
    EXPECT_EQ(**pinned, "payload-" + std::to_string(i));
  }
  EXPECT_EQ((*store)->cache_stats().misses, 50u);
  EXPECT_EQ(env.random_opens(), 1);
}

TEST_F(SegmentStoreTest, FailedOpenIsAnIOErrorNotCorruption) {
  CountingEnv env(Env::Default());
  SegmentStoreOptions options;
  options.env = &env;
  options.dir = root_ + "/cold";
  options.cache_budget_bytes = 1;
  auto store = SegmentStore::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto id = (*store)->Put("v0.temp", 0, {}, "payload");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE((*store)->SyncSegments().ok());
  // A descriptor shortage is no damage to the tier: the pin says so, names
  // the chunk, and the next pin after it passes serves the bytes.
  env.FailRandomOpens(true);
  auto pinned = (*store)->Pin(*id);
  ASSERT_FALSE(pinned.ok());
  EXPECT_EQ(pinned.status().code(), StatusCode::kIOError)
      << pinned.status().ToString();
  EXPECT_NE(pinned.status().message().find("cold chunk " +
                                           std::to_string(*id)),
            std::string::npos)
      << pinned.status().ToString();
  env.FailRandomOpens(false);
  pinned = (*store)->Pin(*id);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(**pinned, "payload");
}

TEST_F(SegmentStoreTest, ScanReturnsAFailedOpenUnwrapped) {
  CountingEnv env(Env::Default());
  auto store = MakeTieredStore(&env, /*cache_budget=*/1);
  ASSERT_TRUE(store->Open().ok());
  IngestSeries(store.get(), 2);
  ASSERT_TRUE(store->Checkpoint().ok());
  env.FailRandomOpens(true);
  auto range = store->SeriesRange({true, 0, "temp"}, Interval::All());
  ASSERT_FALSE(range.ok());
  EXPECT_EQ(range.status().code(), StatusCode::kIOError)
      << range.status().ToString();
  env.FailRandomOpens(false);
  ScanEverySeries(store.get(), 2);
}

TEST_F(SegmentStoreTest, ShortWriteRetiresTheSegmentFile) {
  FaultInjectionEnv env(Env::Default());
  SegmentStoreOptions options;
  options.env = &env;
  options.dir = root_ + "/cold";
  options.cache_budget_bytes = 1;
  {
    auto store = SegmentStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Put("v0.temp", 0, {}, "chunk-0").ok());
    ASSERT_TRUE((*store)->Put("v1.temp", 0, {}, "chunk-1").ok());
    // The next Append is torn: half its frame reaches the file and the Put
    // fails, as on ENOSPC. The device then heals and the spill's retry
    // puts the chunk again, followed by one more.
    env.SetCrashAfter(0);
    ASSERT_FALSE((*store)->Put("v2.temp", 0, {}, "chunk-2").ok());
    env.Revive();
    ASSERT_TRUE((*store)->Put("v2.temp", 0, {}, "chunk-2").ok());
    ASSERT_TRUE((*store)->Put("v3.temp", 0, {}, "chunk-3").ok());
    ASSERT_TRUE((*store)->SyncSegments().ok());
    ASSERT_TRUE((*store)->WriteCatalog(1).ok());
  }
  // The torn file keeps the two records before the tear; the retry and
  // the Put after it went to a new file, so every offset the catalog
  // publishes lands on its frame.
  EXPECT_EQ(SegmentFiles(options.dir).size(), 2u);
  auto reopened = SegmentStore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto entries = (*reopened)->LoadCatalog(1);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), 4u);
  for (const ColdCatalogEntry& e : *entries) {
    auto pinned = (*reopened)->Pin(e.id);
    ASSERT_TRUE(pinned.ok()) << e.series << ": " << pinned.status().ToString();
    EXPECT_EQ(**pinned, "chunk-" + e.series.substr(1, 1)) << e.series;
  }
}

TEST_F(SegmentStoreTest, HandleSeesBytesAppendedAfterItOpened) {
  SegmentStoreOptions options;
  options.dir = root_ + "/cold";
  options.cache_budget_bytes = 1;
  auto store = SegmentStore::Open(options);
  ASSERT_TRUE(store.ok());
  // A miss inside a checkpoint opens the file that is still being written;
  // the kept handle must then serve the chunks appended after it.
  auto first = (*store)->Put("v0.temp", 0, {}, "first");
  ASSERT_TRUE(first.ok());
  auto pinned = (*store)->Pin(*first);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  auto second = (*store)->Put("v1.temp", 0, {}, "second");
  ASSERT_TRUE(second.ok());
  pinned = (*store)->Pin(*second);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(**pinned, "second");
  ASSERT_TRUE((*store)->SyncSegments().ok());
  EXPECT_EQ(SegmentFiles(options.dir).size(), 1u);
}

// -- descriptor bound ------------------------------------------------------------

/// Lowers the soft RLIMIT_NOFILE for its lifetime.
class ScopedFileLimit {
 public:
  explicit ScopedFileLimit(rlim_t soft) {
    ok_ = ::getrlimit(RLIMIT_NOFILE, &saved_) == 0;
    if (!ok_) return;
    rlimit lowered = saved_;
    lowered.rlim_cur = std::min(soft, saved_.rlim_max);
    ok_ = ::setrlimit(RLIMIT_NOFILE, &lowered) == 0;
  }
  ~ScopedFileLimit() {
    if (ok_) ::setrlimit(RLIMIT_NOFILE, &saved_);
  }
  ScopedFileLimit(const ScopedFileLimit&) = delete;
  ScopedFileLimit& operator=(const ScopedFileLimit&) = delete;
  bool ok() const { return ok_; }

 private:
  rlimit saved_{};
  bool ok_ = false;
};

TEST_F(SegmentStoreTest, ManySeriesStayWithinALowDescriptorLimit) {
  ScopedFileLimit limit(256);
  ASSERT_TRUE(limit.ok());
  {
    auto store = MakeTieredStore(Env::Default(), /*cache_budget=*/1);
    ASSERT_TRUE(store->Open().ok());
    IngestSeries(store.get(), 400);
    const Status checkpoint = store->Checkpoint();
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.ToString();
    ScanEverySeries(store.get(), 400);
  }
  auto reopened = MakeTieredStore(Env::Default(), /*cache_budget=*/1);
  const Status open = reopened->Open();
  ASSERT_TRUE(open.ok()) << open.ToString();
  EXPECT_GE(reopened->recovery().cold_chunks_adopted, 800u);
  ScanEverySeries(reopened.get(), 400);
}

TEST_F(SegmentStoreTest, ManyCheckpointFilesStayWithinALowDescriptorLimit) {
  // Every checkpoint below spills into its own segment file, so a scan of
  // one series reads from all of them: the kept read handles must stay
  // bounded, not grow with the number of checkpoints.
  constexpr int kSeries = 3;
  constexpr int kRounds = 301;
  static_assert(kRounds > 256);
  ScopedFileLimit limit(256);
  ASSERT_TRUE(limit.ok());
  {
    auto store = MakeTieredStore(Env::Default(), /*cache_budget=*/1);
    ASSERT_TRUE(store->Open().ok());
    for (int v = 0; v < kSeries; ++v) {
      ASSERT_TRUE(store->AddVertex({"Station"}, {}).ok());
    }
    for (int round = 0; round < kRounds; ++round) {
      // Four samples fill chunk `round` and seal the one before it.
      for (int v = 0; v < kSeries; ++v) {
        for (int i = 0; i < 4; ++i) {
          ASSERT_TRUE(
              store
                  ->AppendSample({true, static_cast<uint64_t>(v), "temp"},
                                 round * 16 + i * 4, v + 0.5 * i)
                  .ok());
        }
      }
      const Status checkpoint = store->Checkpoint();
      ASSERT_TRUE(checkpoint.ok()) << "round " << round << ": "
                                   << checkpoint.ToString();
    }
    EXPECT_EQ(SegmentFiles(root_ + "/store/cold").size(),
              static_cast<size_t>(kRounds - 1));
    ScanEverySeries(store.get(), kSeries, 4 * kRounds);
  }
  auto reopened = MakeTieredStore(Env::Default(), /*cache_budget=*/1);
  const Status open = reopened->Open();
  ASSERT_TRUE(open.ok()) << open.ToString();
  ScanEverySeries(reopened.get(), kSeries, 4 * kRounds);
}

// -- binary catalog ----------------------------------------------------------------

std::vector<ColdCatalogEntry> SampleEntries() {
  std::vector<ColdCatalogEntry> entries;
  for (int i = 0; i < 3; ++i) {
    ColdCatalogEntry e;
    e.series = i == 2 ? "e7.load" : "v12.temp";
    e.chunk_start = i == 1 ? std::numeric_limits<Timestamp>::min() : 1024 * i;
    e.file = "seg-" + std::to_string(i % 2) + ".seg";
    e.offset = 8 + 100 * i;
    e.length = 40 + i;
    e.meta.count = 288;
    e.meta.min_t = e.chunk_start + 3;
    e.meta.max_t = std::numeric_limits<Timestamp>::max();
    e.meta.min_v = -0.0;
    e.meta.max_v = std::numeric_limits<double>::quiet_NaN();
    e.meta.all_finite = i == 0;
    e.meta.encoded_size = e.length;
    e.meta.agg.count = 288;
    e.meta.agg.sum = 1e300;
    e.meta.agg.sum_sq = std::numeric_limits<double>::infinity();
    e.meta.agg.min = -1.5;
    e.meta.agg.max = 2.25;
    // Deltas from the chunk start wrap at both ends of the timeline.
    e.meta.agg.first = {i == 1 ? std::numeric_limits<Timestamp>::max()
                               : e.chunk_start - 1,
                        0.1};
    e.meta.agg.last = {e.chunk_start + 1000, -0.1};
    entries.push_back(e);
  }
  return entries;
}

TEST(ColdCatalogCodecTest, RoundTripsBitExactly) {
  const auto entries = SampleEntries();
  const std::string bytes = EncodeColdCatalog(entries);
  auto parsed = ParseColdCatalog(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    const ColdCatalogEntry& a = entries[i];
    const ColdCatalogEntry& b = (*parsed)[i];
    EXPECT_EQ(a.series, b.series);
    EXPECT_EQ(a.file, b.file);
    EXPECT_EQ(a.chunk_start, b.chunk_start);
    EXPECT_EQ(a.offset, b.offset);
    EXPECT_EQ(a.length, b.length);
    EXPECT_EQ(a.meta.count, b.meta.count);
    EXPECT_EQ(a.meta.min_t, b.meta.min_t);
    EXPECT_EQ(a.meta.max_t, b.meta.max_t);
    EXPECT_EQ(a.meta.all_finite, b.meta.all_finite);
    EXPECT_EQ(a.meta.encoded_size, b.meta.encoded_size);
    EXPECT_EQ(a.meta.agg.count, b.meta.agg.count);
    EXPECT_EQ(a.meta.agg.first.t, b.meta.agg.first.t);
    EXPECT_EQ(a.meta.agg.last.t, b.meta.agg.last.t);
  }
  // Doubles travel as bit patterns (-0.0, NaN, inf included), so the
  // re-encoding is byte-identical.
  EXPECT_EQ(EncodeColdCatalog(*parsed), bytes);
  // Names are stored once: three entries over two series and two files.
  EXPECT_EQ(bytes.find("v12.temp"), bytes.rfind("v12.temp"));
}

TEST(ColdCatalogCodecTest, RejectsEveryTruncationAndTheTextFormat) {
  const std::string bytes = EncodeColdCatalog(SampleEntries());
  for (size_t n = 0; n < bytes.size(); ++n) {
    auto parsed = ParseColdCatalog(bytes.substr(0, n));
    ASSERT_FALSE(parsed.ok()) << "prefix of " << n << " bytes";
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
  }
  // A catalog in the text format an older build wrote is not read.
  const std::string body = "hygraph-coldcat v1\nchunks 0\n";
  char crc[9];
  std::snprintf(crc, sizeof(crc), "%08x", Crc32(body));
  auto text = ParseColdCatalog(body + "crc " + crc + "\n");
  ASSERT_FALSE(text.ok());
  EXPECT_EQ(text.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace hygraph::storage
