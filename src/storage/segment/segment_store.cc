#include "storage/segment/segment_store.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "common/crc32.h"
#include "common/varint.h"
#include "obs/clock.h"
#include "storage/wal.h"

namespace hygraph::storage {

namespace {

constexpr size_t kFrameHeaderSize = 8;  // [u32 len][u32 crc]
constexpr std::string_view kCatalogMagic = "HGCOLD";
constexpr uint64_t kCatalogVersion = 2;  // v1 was the text catalog
constexpr size_t kCrcSize = 4;
/// Smallest encoded entry: eleven one-byte varints, eight doubles and the
/// all_finite byte. A count is checked against it before any reserve().
constexpr size_t kMinEntryBytes = 11 + 8 * 8 + 1;

/// A double as its 64-bit pattern, little-endian, so reload is bit-exact.
void PutDouble(std::string* out, double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>(bits >> (8 * i)));
  }
}

/// Times travel as zigzag deltas from the chunk start; the wrap-around
/// difference keeps any pair of int64 values exact.
void PutTimeDelta(std::string* out, Timestamp t, Timestamp chunk_start) {
  PutVarint(out, ZigZag(static_cast<uint64_t>(t) -
                        static_cast<uint64_t>(chunk_start)));
}

/// Bounds-checked cursor over untrusted catalog bytes.
class CatalogReader {
 public:
  explicit CatalogReader(std::string_view bytes) : bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - pos_; }

  bool Varint(uint64_t* out) {
    return ParseVarint(bytes_, &pos_, bytes_.size(), out);
  }
  bool Double(double* out) {
    if (remaining() < 8) return false;
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
              << (8 * i);
    }
    pos_ += 8;
    *out = std::bit_cast<double>(bits);
    return true;
  }
  bool Time(Timestamp chunk_start, Timestamp* out) {
    uint64_t z = 0;
    if (!Varint(&z)) return false;
    *out = static_cast<Timestamp>(static_cast<uint64_t>(chunk_start) +
                                  UnZigZag(z));
    return true;
  }
  bool Byte(uint8_t* out) {
    if (remaining() < 1) return false;
    *out = static_cast<uint8_t>(bytes_[pos_++]);
    return true;
  }
  bool Bytes(size_t n, std::string_view* out) {
    if (remaining() < n) return false;
    *out = bytes_.substr(pos_, n);
    pos_ += n;
    return true;
  }
  /// A count whose every element costs at least `min_bytes`: rejects any
  /// count the remaining bytes could not spell out.
  bool Count(size_t min_bytes, uint64_t* out) {
    return Varint(out) && *out <= remaining() / min_bytes;
  }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

/// Reads a name table: a count, then length-prefixed names.
bool ReadNames(CatalogReader* in, std::vector<std::string>* names) {
  uint64_t count = 0;
  if (!in->Count(/*min_bytes=*/1, &count)) return false;
  names->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t length = 0;
    std::string_view name;
    if (!in->Varint(&length) || !in->Bytes(length, &name)) return false;
    names->emplace_back(name);
  }
  return true;
}

/// Index of `name` in a name table being built, adding it when new.
uint64_t Intern(const std::string& name,
                std::unordered_map<std::string, uint64_t>* index,
                std::vector<const std::string*>* table) {
  auto [it, added] = index->try_emplace(name, table->size());
  if (added) table->push_back(&it->first);
  return it->second;
}

void PutNames(std::string* out, const std::vector<const std::string*>& names) {
  PutVarint(out, names.size());
  for (const std::string* name : names) {
    PutVarint(out, name->size());
    out->append(*name);
  }
}

/// True for "seg-<n>.seg" exactly; stores n in `*index`.
bool ParseSegmentFileName(const std::string& name, uint64_t* index) {
  int consumed = 0;
  return std::sscanf(name.c_str(), "seg-%" SCNu64 ".seg%n", index,
                     &consumed) == 1 &&
         consumed == static_cast<int>(name.size());
}

// A failed open or read of chunk `id`'s segment file keeps its class: a
// file the catalog references but that is gone (NotFound), or a record the
// file ends before (OutOfRange, a short read), is damage to the tier
// (kCorruption); anything else, such as EMFILE or EIO, is an I/O failure
// that may pass (kIOError).
Status PinFailure(ts::ColdChunkId id, const Status& cause) {
  const std::string message =
      "cold chunk " + std::to_string(id) + " unreadable: " + cause.ToString();
  if (cause.code() == StatusCode::kNotFound ||
      cause.code() == StatusCode::kOutOfRange) {
    return Status::Corruption(message);
  }
  return Status::IOError(message);
}

}  // namespace

std::string EncodeColdCatalog(const std::vector<ColdCatalogEntry>& entries) {
  std::unordered_map<std::string, uint64_t> series_index;
  std::unordered_map<std::string, uint64_t> file_index;
  std::vector<const std::string*> series_names;
  std::vector<const std::string*> file_names;
  std::string body;
  for (const ColdCatalogEntry& e : entries) {
    const ts::ColdChunkMeta& m = e.meta;
    PutVarint(&body, Intern(e.series, &series_index, &series_names));
    PutVarint(&body, Intern(e.file, &file_index, &file_names));
    PutVarint(&body, ZigZag(static_cast<uint64_t>(e.chunk_start)));
    PutVarint(&body, e.offset);
    PutVarint(&body, e.length);
    PutVarint(&body, m.count);
    PutTimeDelta(&body, m.min_t, e.chunk_start);
    PutTimeDelta(&body, m.max_t, e.chunk_start);
    PutDouble(&body, m.min_v);
    PutDouble(&body, m.max_v);
    body.push_back(m.all_finite ? 1 : 0);
    PutVarint(&body, m.agg.count);
    PutDouble(&body, m.agg.sum);
    PutDouble(&body, m.agg.sum_sq);
    PutDouble(&body, m.agg.min);
    PutDouble(&body, m.agg.max);
    PutTimeDelta(&body, m.agg.first.t, e.chunk_start);
    PutDouble(&body, m.agg.first.value);
    PutTimeDelta(&body, m.agg.last.t, e.chunk_start);
    PutDouble(&body, m.agg.last.value);
  }
  std::string out(kCatalogMagic);
  PutVarint(&out, kCatalogVersion);
  PutNames(&out, series_names);
  PutNames(&out, file_names);
  PutVarint(&out, entries.size());
  out += body;
  const uint32_t crc = Crc32(out);
  for (size_t i = 0; i < kCrcSize; ++i) {
    out.push_back(static_cast<char>(crc >> (8 * i)));
  }
  return out;
}

Result<std::vector<ColdCatalogEntry>> ParseColdCatalog(
    std::string_view bytes) {
  if (bytes.size() < kCatalogMagic.size() + kCrcSize) {
    return Status::Corruption("cold catalog: truncated");
  }
  const std::string_view body = bytes.substr(0, bytes.size() - kCrcSize);
  uint32_t stored_crc = 0;
  for (size_t i = 0; i < kCrcSize; ++i) {
    stored_crc |= static_cast<uint32_t>(
                      static_cast<uint8_t>(bytes[body.size() + i]))
                  << (8 * i);
  }
  if (body.substr(0, kCatalogMagic.size()) != kCatalogMagic) {
    return Status::Corruption("cold catalog: bad magic");
  }
  if (stored_crc != Crc32(body)) {
    return Status::Corruption("cold catalog: checksum mismatch");
  }

  CatalogReader in(body.substr(kCatalogMagic.size()));
  uint64_t version = 0;
  if (!in.Varint(&version) || version != kCatalogVersion) {
    return Status::Corruption("cold catalog: unsupported version");
  }
  std::vector<std::string> series_names;
  std::vector<std::string> file_names;
  if (!ReadNames(&in, &series_names) || !ReadNames(&in, &file_names)) {
    return Status::Corruption("cold catalog: malformed name table");
  }
  uint64_t count = 0;
  if (!in.Count(kMinEntryBytes, &count)) {
    return Status::Corruption("cold catalog: implausible chunk count");
  }
  std::vector<ColdCatalogEntry> entries;
  entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ColdCatalogEntry e;
    ts::ColdChunkMeta& m = e.meta;
    uint64_t series = 0, file = 0, start = 0, length = 0, n = 0, agg_n = 0;
    uint8_t finite = 0;
    const bool fields_ok =
        in.Varint(&series) && in.Varint(&file) && in.Varint(&start) &&
        (e.chunk_start = static_cast<Timestamp>(UnZigZag(start)), true) &&
        in.Varint(&e.offset) && in.Varint(&length) && in.Varint(&n) &&
        in.Time(e.chunk_start, &m.min_t) && in.Time(e.chunk_start, &m.max_t) &&
        in.Double(&m.min_v) && in.Double(&m.max_v) && in.Byte(&finite) &&
        in.Varint(&agg_n) && in.Double(&m.agg.sum) &&
        in.Double(&m.agg.sum_sq) && in.Double(&m.agg.min) &&
        in.Double(&m.agg.max) && in.Time(e.chunk_start, &m.agg.first.t) &&
        in.Double(&m.agg.first.value) &&
        in.Time(e.chunk_start, &m.agg.last.t) &&
        in.Double(&m.agg.last.value);
    if (!fields_ok) {
      return Status::Corruption("cold catalog: truncated at entry " +
                                std::to_string(i));
    }
    if (series >= series_names.size() || file >= file_names.size()) {
      return Status::Corruption("cold catalog: name index out of range in "
                                "entry " + std::to_string(i));
    }
    e.series = series_names[series];
    e.file = file_names[file];
    if (e.series.empty()) {
      return Status::Corruption("cold catalog: empty series in entry " +
                                std::to_string(i));
    }
    if (e.file.empty() ||
        e.file.find('/') != std::string::npos) {  // stays inside the dir
      return Status::Corruption("cold catalog: bad file in entry " +
                                std::to_string(i));
    }
    if (length > kWalMaxRecordSize) {
      return Status::Corruption("cold catalog: oversized chunk in entry " +
                                std::to_string(i));
    }
    if (finite > 1) {
      return Status::Corruption("cold catalog: malformed entry " +
                                std::to_string(i));
    }
    if (e.offset < kFrameHeaderSize) {
      return Status::Corruption("cold catalog: offset inside frame header");
    }
    e.length = static_cast<uint32_t>(length);
    m.count = n;
    m.all_finite = finite == 1;
    m.agg.count = agg_n;
    m.encoded_size = e.length;
    entries.push_back(std::move(e));
  }
  if (in.remaining() != 0) {
    return Status::Corruption("cold catalog: trailing data");
  }
  return entries;
}

SegmentStore::SegmentStore(const SegmentStoreOptions& options)
    : options_(options),
      env_(options.env != nullptr ? options.env : Env::Default()) {
  obs::MetricsRegistry& reg = options_.metrics != nullptr
                                  ? *options_.metrics
                                  : obs::MetricsRegistry::Global();
  m_.put_records = reg.counter("coldtier.put_records");
  m_.put_bytes = reg.counter("coldtier.put_bytes");
  m_.segment_files = reg.counter("coldtier.segment_files");
  m_.segment_syncs = reg.counter("coldtier.segment_syncs");
  m_.cache_hits = reg.counter("coldtier.cache_hits");
  m_.cache_misses = reg.counter("coldtier.cache_misses");
  m_.cache_evictions = reg.counter("coldtier.cache_evictions");
  m_.cache_bytes = reg.gauge("coldtier.cache_bytes");
  m_.pin_read_nanos = reg.histogram("coldtier.pin_read_nanos");
}

SegmentStore::~SegmentStore() = default;

Result<std::unique_ptr<SegmentStore>> SegmentStore::Open(
    const SegmentStoreOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("segment store needs a directory");
  }
  auto store = std::unique_ptr<SegmentStore>(
      new SegmentStore(options));  // NOLINT(hygraph-naked-new): private ctor
  HYGRAPH_RETURN_IF_ERROR(store->env_->CreateDirIfMissing(options.dir));
  std::vector<std::string> children;
  HYGRAPH_RETURN_IF_ERROR(store->env_->GetChildren(options.dir, &children));
  uint64_t next = 0;
  for (const std::string& name : children) {
    uint64_t index = 0;
    if (ParseSegmentFileName(name, &index)) next = std::max(next, index + 1);
  }
  MutexLock lock(store->mu_);
  store->next_file_index_ = next;
  return store;
}

std::string SegmentStore::PathFor(const std::string& file) const {
  return options_.dir + "/" + file;
}

Result<ts::ColdChunkId> SegmentStore::Put(const std::string& series_name,
                                          Timestamp chunk_start,
                                          const ts::ColdChunkMeta& meta,
                                          const std::string& encoded) {
  if (encoded.size() > kWalMaxRecordSize) {
    return Status::InvalidArgument("cold chunk larger than a WAL frame");
  }
  MutexLock lock(mu_);
  if (writer_ == nullptr) {
    // The first Put since the last sync opens this checkpoint's file.
    // NewWritableFile truncates, so the index never reuses a name that is
    // on disk (Open starts past the highest one).
    std::string name = "seg-" + std::to_string(next_file_index_++) + ".seg";
    HYGRAPH_RETURN_IF_ERROR(env_->NewWritableFile(PathFor(name), &writer_));
    writer_name_ = std::move(name);
    writer_bytes_ = 0;
    m_.segment_files->Increment();
  }
  const std::string frame = EncodeWalFrame(encoded);
  Status appended = writer_->Append(frame);
  if (!appended.ok()) {
    // A short write may have left part of the frame in the file, so the
    // offsets of later Puts would fall short of their frames. Retire the
    // file — SyncSegments still fsyncs the records before the tear — and
    // let the next Put (the spill's retry) start a new one.
    unsynced_.push_back({std::move(writer_name_), std::move(writer_)});
    writer_name_.clear();
    return appended;
  }
  const uint64_t payload_offset = writer_bytes_ + kFrameHeaderSize;
  writer_bytes_ += frame.size();

  const ts::ColdChunkId id = next_id_++;
  Record rec;
  rec.file = writer_name_;
  rec.offset = payload_offset;
  rec.length = static_cast<uint32_t>(encoded.size());
  rec.series = series_name;
  rec.chunk_start = chunk_start;
  rec.meta = meta;
  rec.meta.encoded_size = encoded.size();
  records_.emplace(id, std::move(rec));
  m_.put_records->Increment();
  m_.put_bytes->Add(frame.size());
  // Write-through: the chunk was just resident (the spiller held its
  // sealed bytes), so the near-term scan probability is high.
  CacheInsert(id, std::make_shared<const std::string>(encoded));
  return id;
}

Result<std::shared_ptr<const std::string>> SegmentStore::Pin(
    ts::ColdChunkId id) const {
  std::string file;
  uint64_t offset = 0;
  uint32_t length = 0;
  std::shared_ptr<const RandomAccessFile> reader;
  {
    MutexLock lock(mu_);
    auto rit = records_.find(id);
    if (rit == records_.end()) {
      return Status::NotFound("no cold chunk with id " + std::to_string(id));
    }
    auto cit = cache_.find(id);
    if (cit != cache_.end()) {
      ++hits_;
      m_.cache_hits->Increment();
      CacheTouch(id);
      return cit->second.bytes;
    }
    ++misses_;
    m_.cache_misses->Increment();
    file = rit->second.file;
    offset = rit->second.offset;
    length = rit->second.length;
    reader = FindReader(file);
  }
  // Open and read outside the lock: a miss never blocks concurrent hits.
  if (reader == nullptr) {
    std::unique_ptr<RandomAccessFile> opened;
    Status open = env_->NewRandomAccessFile(PathFor(file), &opened);
    if (!open.ok()) return PinFailure(id, open);
    MutexLock lock(mu_);
    reader = KeepReader(file, std::move(opened));
  }
  const obs::Clock* clock = obs::SystemClock::Instance();
  const uint64_t start = clock->NowNanos();
  std::string frame;
  Status read = reader->Read(offset - kFrameHeaderSize,
                             size_t{length} + kFrameHeaderSize, &frame);
  bool intact = false;
  if (read.ok()) {
    uint32_t stored_len = 0;
    uint32_t stored_crc = 0;
    std::memcpy(&stored_len, frame.data(), sizeof(stored_len));
    std::memcpy(&stored_crc, frame.data() + 4, sizeof(stored_crc));
    intact = stored_len == length &&
             Crc32(std::string_view(frame).substr(kFrameHeaderSize)) ==
                 stored_crc;
  }
  m_.pin_read_nanos->Record(clock->NowNanos() - start);
  if (!read.ok()) return PinFailure(id, read);
  if (!intact) {
    return Status::Corruption("cold chunk " + std::to_string(id) +
                              " failed its frame check");
  }
  frame.erase(0, kFrameHeaderSize);
  auto bytes = std::make_shared<const std::string>(std::move(frame));
  MutexLock lock(mu_);
  auto cit = cache_.find(id);
  if (cit != cache_.end()) {
    // A racing miss populated the entry first; keep its bytes (they
    // verified against the same CRC) and just refresh recency.
    CacheTouch(id);
    return cit->second.bytes;
  }
  CacheInsert(id, bytes);
  return bytes;
}

void SegmentStore::Forget(ts::ColdChunkId id) {
  MutexLock lock(mu_);
  auto it = records_.find(id);
  if (it != records_.end()) it->second.live = false;
  // The record and its bytes stay pinnable: readers holding the handle
  // keep their snapshot, and recovery-before-next-checkpoint re-adopts
  // the on-disk record.
}

Status SegmentStore::SyncSegments() {
  MutexLock lock(mu_);
  if (writer_ != nullptr) {
    unsynced_.push_back({std::move(writer_name_), std::move(writer_)});
    writer_name_.clear();
  }
  // One fsync per file: the whole checkpoint's spill unless an Append
  // failed. A file whose fsync fails stays listed for the retry.
  while (!unsynced_.empty()) {
    HYGRAPH_RETURN_IF_ERROR(unsynced_.back().file->Sync());
    m_.segment_syncs->Increment();
    const Status closed = unsynced_.back().file->Close();
    unsynced_.pop_back();
    HYGRAPH_RETURN_IF_ERROR(closed);
  }
  return Status::OK();
}

Status SegmentStore::WriteCatalog(uint64_t seq) {
  std::vector<ColdCatalogEntry> entries;
  {
    MutexLock lock(mu_);
    entries.reserve(records_.size());
    for (const auto& [id, rec] : records_) {
      if (!rec.live) continue;
      ColdCatalogEntry e;
      e.series = rec.series;
      e.chunk_start = rec.chunk_start;
      e.file = rec.file;
      e.offset = rec.offset;
      e.length = rec.length;
      e.meta = rec.meta;
      e.id = id;
      entries.push_back(std::move(e));
    }
  }
  const std::string bytes = EncodeColdCatalog(entries);
  const std::string final_path =
      options_.dir + "/catalog-" + std::to_string(seq) + ".cold";
  const std::string tmp_path = final_path + ".tmp";
  std::unique_ptr<WritableFile> file;
  HYGRAPH_RETURN_IF_ERROR(env_->NewWritableFile(tmp_path, &file));
  HYGRAPH_RETURN_IF_ERROR(file->Append(bytes));
  HYGRAPH_RETURN_IF_ERROR(file->Sync());
  HYGRAPH_RETURN_IF_ERROR(file->Close());
  return env_->RenameFile(tmp_path, final_path);
}

Result<std::vector<ColdCatalogEntry>> SegmentStore::LoadCatalog(uint64_t seq) {
  const std::string path =
      options_.dir + "/catalog-" + std::to_string(seq) + ".cold";
  std::string bytes;
  Status read = env_->ReadFileToString(path, &bytes);
  if (read.code() == StatusCode::kNotFound) {
    return std::vector<ColdCatalogEntry>{};  // pre-tiering checkpoint
  }
  HYGRAPH_RETURN_IF_ERROR(read);
  auto entries = ParseColdCatalog(bytes);
  if (!entries.ok()) return entries.status();
  MutexLock lock(mu_);
  for (ColdCatalogEntry& e : *entries) {
    const ts::ColdChunkId id = next_id_++;
    Record rec;
    rec.file = e.file;
    rec.offset = e.offset;
    rec.length = e.length;
    rec.series = e.series;
    rec.chunk_start = e.chunk_start;
    rec.meta = e.meta;
    records_.emplace(id, std::move(rec));
    e.id = id;
  }
  return entries;
}

Status SegmentStore::CollectGarbage(uint64_t keep_seq) {
  // List first, then take the referenced set: a segment file created after
  // the listing is not in it, and one created before is being written,
  // waits for its fsync or already holds records, so nothing live can be
  // removed.
  std::vector<std::string> children;
  HYGRAPH_RETURN_IF_ERROR(env_->GetChildren(options_.dir, &children));
  std::unordered_set<std::string> referenced;
  {
    MutexLock lock(mu_);
    for (const auto& [id, rec] : records_) {
      (void)id;
      referenced.insert(rec.file);
    }
    if (!writer_name_.empty()) referenced.insert(writer_name_);
    for (const UnsyncedFile& f : unsynced_) referenced.insert(f.name);
  }
  const std::string keep = "catalog-" + std::to_string(keep_seq) + ".cold";
  for (const std::string& name : children) {
    const bool is_catalog =
        name.rfind("catalog-", 0) == 0 &&
        name.size() > 5 && name.compare(name.size() - 5, 5, ".cold") == 0;
    const bool is_tmp =
        name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0;
    uint64_t index = 0;
    const bool is_orphan_segment =
        ParseSegmentFileName(name, &index) && referenced.count(name) == 0;
    if ((is_catalog && name != keep) || is_tmp || is_orphan_segment) {
      HYGRAPH_RETURN_IF_ERROR(env_->RemoveFile(options_.dir + "/" + name));
    }
  }
  return Status::OK();
}

SegmentStore::CacheStats SegmentStore::cache_stats() const {
  MutexLock lock(mu_);
  CacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.cached_bytes = cache_bytes_;
  for (const auto& [id, rec] : records_) {
    (void)id;
    if (rec.live) ++s.live_records;
  }
  return s;
}

void SegmentStore::CacheInsert(ts::ColdChunkId id,
                               std::shared_ptr<const std::string> bytes) const {
  cache_bytes_ += bytes->size();
  lru_.push_front(id);
  cache_.emplace(id, CacheEntry{std::move(bytes), lru_.begin()});
  while (cache_bytes_ > options_.cache_budget_bytes && !lru_.empty()) {
    const ts::ColdChunkId victim = lru_.back();
    auto it = cache_.find(victim);
    cache_bytes_ -= it->second.bytes->size();
    lru_.pop_back();
    cache_.erase(it);  // only the cache's ref drops; pinned readers keep theirs
    ++evictions_;
    m_.cache_evictions->Increment();
  }
  m_.cache_bytes->Set(static_cast<double>(cache_bytes_));
}

void SegmentStore::CacheTouch(ts::ColdChunkId id) const {
  auto it = cache_.find(id);
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  it->second.lru_pos = lru_.begin();
}

std::shared_ptr<const RandomAccessFile> SegmentStore::FindReader(
    const std::string& file) const {
  for (ReadHandle& r : readers_) {
    if (r.file == file) {
      r.last_use = ++read_ticks_;
      return r.handle;
    }
  }
  return nullptr;
}

std::shared_ptr<const RandomAccessFile> SegmentStore::KeepReader(
    const std::string& file, std::unique_ptr<RandomAccessFile> opened) const {
  if (auto kept = FindReader(file)) return kept;
  if (readers_.size() >= kMaxReadHandles) {
    // Only the store's reference drops: a pin reading through the evicted
    // handle keeps its descriptor open until the read returns.
    readers_.erase(std::min_element(
        readers_.begin(), readers_.end(),
        [](const ReadHandle& a, const ReadHandle& b) {
          return a.last_use < b.last_use;
        }));
  }
  readers_.push_back({file, std::move(opened), ++read_ticks_});
  return readers_.back().handle;
}

}  // namespace hygraph::storage
