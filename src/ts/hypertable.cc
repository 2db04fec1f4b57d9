#include "ts/hypertable.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

namespace hygraph::ts {

Status HypertableStore::NoSuchSeries(SeriesId id) {
  return Status::NotFound("no series with id " + std::to_string(id));
}

HypertableStore::HypertableStore(HypertableOptions options)
    : options_(options), map_mu_(nullptr) {
  if (options_.chunk_duration <= 0) options_.chunk_duration = kDay;
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  m_.chunks_total = metrics_->counter("hypertable.chunks_total");
  m_.chunks_scanned = metrics_->counter("hypertable.chunks_scanned");
  m_.chunks_from_cache = metrics_->counter("hypertable.chunks_from_cache");
  m_.samples_scanned = metrics_->counter("hypertable.samples_scanned");
  m_.chunks_decoded = metrics_->counter("hypertable.chunks_decoded");
  m_.chunks_sealed = metrics_->counter("hypertable.chunks_sealed");
  m_.chunks_unsealed = metrics_->counter("hypertable.chunks_unsealed");
  m_.bytes_raw = metrics_->counter("hypertable.bytes_raw");
  m_.bytes_compressed = metrics_->counter("hypertable.bytes_compressed");
  m_.chunks_zonemap_skipped =
      metrics_->counter("hypertable.chunks_zonemap_skipped");
  m_.chunk_pins = metrics_->counter("concurrency.chunk_pins");
  m_.snapshot_pins = metrics_->counter("concurrency.snapshot_pins");
  m_.unseal_conflicts = metrics_->counter("concurrency.chunk_unseal_conflicts");
  m_.series_cow_copies = metrics_->counter("concurrency.series_cow_copies");
  m_.cold_chunks_spilled = metrics_->counter("hypertable.cold_chunks_spilled");
  m_.cold_bytes_spilled = metrics_->counter("hypertable.cold_bytes_spilled");
  m_.cold_chunks_adopted = metrics_->counter("hypertable.cold_chunks_adopted");
  m_.cold_pins = metrics_->counter("hypertable.cold_pins");
  sync_ = SyncInstruments::ForRegistry(metrics_);
  map_mu_ = std::make_unique<SharedMutex>(LockRank::kSeriesMap, sync_);
  publish_mu_ = std::make_unique<Mutex>(LockRank::kSeriesPublish, sync_);
  written_mu_ = std::make_unique<Mutex>(LockRank::kSeriesWritten, sync_);
}

HypertableStore::HypertableStore(VersionTag, const HypertableStore& origin,
                                 std::shared_ptr<const Directory> version)
    : options_(origin.options_),
      version_(std::move(version)),
      metrics_(origin.metrics_),
      m_(origin.m_),
      sync_(origin.sync_) {}

SeriesId HypertableStore::Create(std::string name) {
  ExclusiveLock lock(*map_mu_);
  const SeriesId id = next_id_++;
  auto stored = std::make_unique<StoredSeries>(id, std::move(name), sync_);
  {
    // A new series starts out written, so the next publish adds it.
    MutexLock written(*written_mu_);
    written_.push_back(stored.get());
  }
  series_.emplace(id, std::move(stored));
  return id;
}

HypertableStore::StoredSeries* HypertableStore::FindSeries(SeriesId id) const {
  SharedLock lock(*map_mu_);
  auto it = series_.find(id);
  return it == series_.end() ? nullptr : it->second.get();
}

template <typename Fn>
Status HypertableStore::VisitSeries(SeriesId id, Fn&& fn) const {
  if (version_ != nullptr) {
    const SeriesVersion* entry = version_->Find(id);
    if (entry == nullptr) return NoSuchSeries(id);
    // The version's chunk list never changes; the lock orders the copy of
    // the newest chunk's visible prefix against appends growing it.
    SharedLock lock(entry->series->mu);
    return fn(*entry);
  }
  const StoredSeries* s = FindSeries(id);
  if (s == nullptr) return NoSuchSeries(id);
  SharedLock lock(s->mu);
  SeriesVersion live;
  live.series = s;
  // Non-owning alias: the held shard lock keeps the list alive and fixed.
  live.chunks = std::shared_ptr<const ChunkList>(
      std::shared_ptr<const ChunkList>(), s->chunks.get());
  if (const HotChunk* hot = NewestHot(*s->chunks)) {
    live.hot_count = hot->samples.size();
    live.hot_agg = hot->agg;
  }
  return fn(live);
}

bool HypertableStore::Exists(SeriesId id) const {
  if (version_ != nullptr) return version_->Find(id) != nullptr;
  return FindSeries(id) != nullptr;
}

size_t HypertableStore::series_count() const {
  if (version_ != nullptr) return Ids().size();
  SharedLock lock(*map_mu_);
  return series_.size();
}

Timestamp HypertableStore::ChunkStartFor(Timestamp t) const {
  const Duration d = options_.chunk_duration;
  Timestamp q = t / d;
  if (t < 0 && t % d != 0) --q;  // floor division for negative times
  return q * d;
}

void HypertableStore::HotChunk::Insert(Timestamp t, double value) {
  if (samples.empty() || t > samples.back().t) {
    samples.push_back(Sample{t, value});
    agg.Add(samples.back());
    return;
  }
  auto pos = std::lower_bound(
      samples.begin(), samples.end(), t,
      [](const Sample& s, Timestamp ts) { return s.t < ts; });
  if (pos != samples.end() && pos->t == t) {
    pos->value = value;
  } else {
    samples.insert(pos, Sample{t, value});
  }
  Refold();
}

void HypertableStore::HotChunk::Refold() {
  agg = AggState{};
  for (const Sample& s : samples) agg.Add(s);
}

HypertableStore::HotChunk* HypertableStore::NewestHot(
    const ChunkList& chunks) {
  return chunks.empty() ? nullptr : chunks.back().hot.get();
}

size_t HypertableStore::VisibleSize(const SeriesVersion& version, size_t i) {
  const Chunk& chunk = (*version.chunks)[i];
  const bool newest = i + 1 == version.chunks->size();
  return chunk.hot != nullptr && newest ? version.hot_count : chunk.size();
}

void HypertableStore::MarkWritten(StoredSeries& s) {
  if (s.written) return;
  s.written = true;
  MutexLock lock(*written_mu_);
  written_.push_back(&s);
}

HypertableStore::ChunkList& HypertableStore::MutableChunks(
    StoredSeries& s) const {
  if (s.chunks_born != s.publishes) {
    // A version may hold this list: edit a copy. Chunks are pointers, so
    // sealed and cold payloads and hot chunks stay shared.
    s.chunks = std::make_shared<ChunkList>(*s.chunks);
    s.chunks_born = s.publishes;
    m_.series_cow_copies->Increment();
  }
  return *s.chunks;
}

HypertableStore::HotChunk& HypertableStore::PrivateHot(Chunk& chunk,
                                                       uint64_t publishes) {
  if (chunk.hot->born != publishes) {
    chunk.hot = std::make_shared<HotChunk>(*chunk.hot);
    chunk.hot->born = publishes;
  }
  return *chunk.hot;
}

size_t HypertableStore::ChunkIndexFor(ChunkList& chunks, Timestamp t,
                                      uint64_t publishes) const {
  const Timestamp start = ChunkStartFor(t);
  auto it = std::lower_bound(
      chunks.begin(), chunks.end(), start,
      [](const Chunk& c, Timestamp st) { return c.start < st; });
  if (it == chunks.end() || it->start != start) {
    it = chunks.insert(it, Chunk{});
    it->start = start;
    it->hot = std::make_shared<HotChunk>();
    it->hot->born = publishes;
  }
  return static_cast<size_t>(it - chunks.begin());
}

void HypertableStore::Seal(Chunk& chunk) const {
  if (chunk.is_sealed() || chunk.hot->samples.empty()) return;
  // One pass builds the zone map; the running aggregate becomes the
  // sealed one, so a sealed chunk always answers covered aggregates
  // without decoding. The sealed form is a fresh immutable object: readers
  // pinned to a previous incarnation keep decoding the bytes they pinned.
  const std::vector<Sample>& samples = chunk.hot->samples;
  auto sealed = std::make_shared<SealedChunk>();
  sealed->agg = chunk.hot->agg;
  double min_v = std::numeric_limits<double>::infinity();
  double max_v = -std::numeric_limits<double>::infinity();
  bool all_finite = true;
  for (const Sample& s : samples) {
    if (std::isfinite(s.value)) {
      min_v = std::min(min_v, s.value);
      max_v = std::max(max_v, s.value);
    } else {
      all_finite = false;
      if (!std::isnan(s.value)) {  // ±inf participates in value ordering
        min_v = std::min(min_v, s.value);
        max_v = std::max(max_v, s.value);
      }
    }
  }
  sealed->min_t = samples.front().t;
  sealed->max_t = samples.back().t;
  sealed->min_v = min_v;
  sealed->max_v = max_v;
  sealed->all_finite = all_finite;
  sealed->encoded = EncodeChunk(samples);
  sealed->encoded.shrink_to_fit();
  sealed->count = samples.size();
  m_.chunks_sealed->Increment();
  m_.bytes_raw->Add(samples.size() * sizeof(Sample));
  m_.bytes_compressed->Add(sealed->encoded.size());
  chunk.sealed = std::move(sealed);
  chunk.hot.reset();  // versions that captured it keep it alive
}

Status HypertableStore::Unseal(Chunk& chunk, uint64_t publishes) const {
  if (!chunk.is_sealed()) return Status::OK();
  AggState sealed_agg;
  std::vector<Sample> samples;
  if (chunk.sealed != nullptr) {
    if (chunk.sealed.use_count() > 1) {
      // Readers are pinned to this sealed object; they keep the old bytes
      // (and see the pre-write state) while this series moves on.
      m_.unseal_conflicts->Increment();
    }
    const Status decode = DecodeChunkWide(chunk.sealed->encoded, &samples);
    if (!decode.ok()) {
      return Status::Internal("sealed chunk failed to decode: " +
                              decode.message());
    }
    sealed_agg = chunk.sealed->agg;
  } else {
    // Cold chunk: pin the bytes back out of the tier, decode, and forget
    // the record — it drops out of the next catalog, but stays pinnable so
    // readers holding it keep their snapshot. The on-disk record also
    // keeps a crash before the next checkpoint consistent: recovery
    // re-adopts it and replays the triggering write from the WAL.
    if (options_.cold_tier == nullptr) {
      return Status::Internal("cold chunk without an attached cold tier");
    }
    m_.cold_pins->Increment();
    auto pinned = options_.cold_tier->Pin(chunk.cold);
    if (!pinned.ok()) {
      // The tier's status already carries the chunk id and failure class
      // (kCorruption for CRC/frame damage) — propagate it unwrapped so
      // callers can tell media corruption from logic errors.
      return pinned.status();
    }
    const Status decode = DecodeChunkWide(**pinned, &samples);
    if (!decode.ok()) {
      return Status::Internal("cold chunk failed to decode: " +
                              decode.message());
    }
    sealed_agg = chunk.cold_meta->agg;
    options_.cold_tier->Forget(chunk.cold);
    chunk.cold = kInvalidColdChunk;
    chunk.cold_meta.reset();
  }
  auto hot = std::make_shared<HotChunk>();
  hot->samples = std::move(samples);
  hot->agg = sealed_agg;  // folded over exactly these samples at seal time
  hot->born = publishes;
  chunk.hot = std::move(hot);
  chunk.sealed = nullptr;
  m_.chunks_unsealed->Increment();
  m_.chunks_decoded->Increment();
  return Status::OK();
}

void HypertableStore::SealColdChunks(ChunkList& chunks) const {
  if (!options_.compress_sealed_chunks || chunks.empty()) return;
  for (size_t i = 0; i + 1 < chunks.size(); ++i) {
    Seal(chunks[i]);
  }
}

Result<HypertableStore::SeriesReadView> HypertableStore::PinView(
    SeriesId id, const Interval& interval, bool want_aggregates) const {
  SeriesReadView view;
  HYGRAPH_RETURN_IF_ERROR(VisitSeries(id, [&](const SeriesVersion& version) {
    PinChunks(version, interval, want_aggregates, &view);
    return Status::OK();
  }));
  return view;
}

void HypertableStore::PinChunks(const SeriesVersion& version,
                                const Interval& interval,
                                bool want_aggregates,
                                SeriesReadView* view) const {
  const ChunkList& chunks = *version.chunks;
  view->name = version.series->name;
  view->chunk_count = chunks.size();
  for (size_t i = 0; i < chunks.size(); ++i) {
    const Chunk& chunk = chunks[i];
    if (chunk.start >= interval.end) break;  // chunks sorted by start
    const size_t size = VisibleSize(version, i);
    if (!ChunkSpan(chunk).Overlaps(interval) || size == 0) continue;
    if (chunk.sealed != nullptr &&
        (chunk.sealed->max_t < interval.start ||
         chunk.sealed->min_t >= interval.end)) {
      continue;  // exact data bounds beat the nominal chunk span
    }
    if (chunk.is_cold() &&
        (chunk.cold_meta->max_t < interval.start ||
         chunk.cold_meta->min_t >= interval.end)) {
      continue;  // cold zone map, same pruning without touching the tier
    }
    PinnedChunk p;
    p.start = chunk.start;
    p.size = size;
    if (chunk.sealed != nullptr) {
      p.sealed_ref = chunk.sealed;  // refcount pin; decoded outside the lock
      p.first_t = chunk.sealed->min_t;
      p.last_t = chunk.sealed->max_t;
      p.min_v = chunk.sealed->min_v;
      p.max_v = chunk.sealed->max_v;
      p.all_finite = chunk.sealed->all_finite;
      p.has_zone = true;
      if (want_aggregates) {
        p.agg = chunk.sealed->agg;
        p.agg_valid = true;
      }
      m_.chunk_pins->Increment();
    } else if (chunk.is_cold()) {
      // Only the handle + metadata are pinned here; the bytes are pinned
      // lazily by VisitChunk, so zone-map-skipped and aggregate-covered
      // cold chunks never touch the tier.
      p.cold_id = chunk.cold;
      p.cold_meta = chunk.cold_meta;
      p.tier = options_.cold_tier;
      p.first_t = chunk.cold_meta->min_t;
      p.last_t = chunk.cold_meta->max_t;
      p.min_v = chunk.cold_meta->min_v;
      p.max_v = chunk.cold_meta->max_v;
      p.all_finite = chunk.cold_meta->all_finite;
      p.has_zone = true;
      if (want_aggregates) {
        p.agg = chunk.cold_meta->agg;
        p.agg_valid = true;
      }
      m_.chunk_pins->Increment();
    } else {
      const auto begin = chunk.hot->samples.begin();
      const auto end = begin + static_cast<ptrdiff_t>(size);
      p.first_t = begin->t;
      p.last_t = (end - 1)->t;
      auto lo = std::lower_bound(
          begin, end, interval.start,
          [](const Sample& sample, Timestamp t) { return sample.t < t; });
      auto hi = std::lower_bound(
          lo, end, interval.end,
          [](const Sample& sample, Timestamp t) { return sample.t < t; });
      p.hot.assign(lo, hi);
      if (want_aggregates) {
        p.agg = i + 1 == chunks.size() ? version.hot_agg : chunk.hot->agg;
        p.agg_valid = true;
      }
    }
    view->overlap_estimate += p.size;
    view->chunks.push_back(std::move(p));
  }
}

Result<size_t> HypertableStore::InsertRaw(StoredSeries& s, ChunkList& chunks,
                                          Timestamp t, double value) {
  const size_t idx = ChunkIndexFor(chunks, t, s.publishes);
  Chunk& chunk = chunks[idx];
  if (chunk.is_sealed()) HYGRAPH_RETURN_IF_ERROR(Unseal(chunk, s.publishes));
  PrivateHot(chunk, s.publishes).Insert(t, value);
  return idx;
}

Status HypertableStore::Insert(SeriesId id, Timestamp t, double value) {
  StoredSeries* s = FindSeries(id);
  if (s == nullptr) return NoSuchSeries(id);
  ExclusiveLock lock(s->mu);
  MarkWritten(*s);
  // An in-order append inside the newest hot chunk grows it in place, even
  // while versions hold it: each reads only the prefix it recorded.
  HotChunk* newest = NewestHot(*s->chunks);
  if (newest != nullptr && ChunkStartFor(t) == s->chunks->back().start &&
      (newest->samples.empty() || t > newest->samples.back().t)) {
    newest->Insert(t, value);
    return Status::OK();
  }
  ChunkList& chunks = MutableChunks(*s);
  const size_t chunks_before = chunks.size();
  auto idx = InsertRaw(*s, chunks, t, value);
  if (!idx.ok()) return idx.status();
  if (!options_.compress_sealed_chunks) return Status::OK();
  // Keep the invariant "only the newest chunk is hot": an out-of-order
  // write into a cold chunk reseals it immediately, and opening a fresh
  // newest chunk seals whatever was hot before it.
  if (*idx + 1 < chunks.size()) Seal(chunks[*idx]);
  if (chunks.size() > chunks_before) SealColdChunks(chunks);
  return Status::OK();
}

Status HypertableStore::InsertSeries(SeriesId id, const Series& series) {
  StoredSeries* stored = FindSeries(id);
  if (stored == nullptr) return NoSuchSeries(id);
  ExclusiveLock lock(stored->mu);
  MarkWritten(*stored);
  ChunkList& chunks = MutableChunks(*stored);
  for (const Sample& s : series.samples()) {
    auto idx = InsertRaw(*stored, chunks, s.t, s.value);
    if (!idx.ok()) return idx.status();
  }
  SealColdChunks(chunks);
  return Status::OK();
}

Result<size_t> HypertableStore::Retain(SeriesId id, const Interval& keep) {
  StoredSeries* stored = FindSeries(id);
  if (stored == nullptr) return Status(NoSuchSeries(id));
  ExclusiveLock lock(stored->mu);
  MarkWritten(*stored);
  ChunkList& chunks = MutableChunks(*stored);
  const uint64_t publishes = stored->publishes;
  const HotChunk* newest_before = NewestHot(chunks);
  size_t removed = 0;
  ChunkList kept;
  kept.reserve(chunks.size());
  // A cold chunk dropped wholesale releases its tier record (the next
  // catalog omits it); pinned readers keep the bytes they pinned.
  auto drop_cold_record = [this](Chunk& chunk) {
    if (chunk.is_cold() && options_.cold_tier != nullptr) {
      options_.cold_tier->Forget(chunk.cold);
    }
  };
  for (Chunk& chunk : chunks) {
    const Interval chunk_span = ChunkSpan(chunk);
    if (!chunk_span.Overlaps(keep)) {
      removed += chunk.size();  // drop the whole chunk, sealed or hot
      drop_cold_record(chunk);
      continue;
    }
    if (keep.ContainsInterval(chunk_span)) {
      kept.push_back(std::move(chunk));
      continue;  // fully inside, untouched
    }
    if (chunk.is_sealed()) {
      // The zone map resolves boundary chunks without decoding (cold
      // chunks included — their zone map is resident): all data inside
      // `keep` keeps the chunk intact, all data outside drops it.
      const Timestamp data_min =
          chunk.sealed != nullptr ? chunk.sealed->min_t : chunk.cold_meta->min_t;
      const Timestamp data_max =
          chunk.sealed != nullptr ? chunk.sealed->max_t : chunk.cold_meta->max_t;
      if (data_min >= keep.start && data_max < keep.end) {
        kept.push_back(std::move(chunk));
        continue;
      }
      if (data_max < keep.start || data_min >= keep.end) {
        removed += chunk.size();
        drop_cold_record(chunk);
        continue;
      }
      HYGRAPH_RETURN_IF_ERROR(Unseal(chunk, publishes));
    }
    HotChunk& hot = PrivateHot(chunk, publishes);
    const size_t before = hot.samples.size();
    std::erase_if(hot.samples,
                  [&keep](const Sample& s) { return !keep.Contains(s.t); });
    removed += before - hot.samples.size();
    hot.Refold();
    if (!hot.samples.empty()) kept.push_back(std::move(chunk));
  }
  // An older hot chunk (compression off) is frozen in every version that
  // holds it; before it takes in-place appends as the newest, copy it.
  if (!kept.empty() && kept.back().hot != nullptr &&
      kept.back().hot.get() != newest_before) {
    PrivateHot(kept.back(), publishes);
  }
  chunks = std::move(kept);
  SealColdChunks(chunks);
  return removed;
}

Result<size_t> HypertableStore::SpillSealed() {
  if (options_.cold_tier == nullptr) return size_t{0};
  size_t spilled = 0;
  for (SeriesId id : Ids()) {
    StoredSeries* s = FindSeries(id);
    if (s == nullptr) continue;  // raced with nothing today, but stay safe
    ExclusiveLock lock(s->mu);
    const ChunkList& current = *s->chunks;
    if (std::none_of(current.begin(), current.end(), [](const Chunk& c) {
          return c.sealed != nullptr;
        })) {
      continue;  // nothing resident to spill: leave the list shared
    }
    MarkWritten(*s);
    ChunkList& chunks = MutableChunks(*s);
    for (Chunk& chunk : chunks) {
      if (chunk.sealed == nullptr) continue;  // hot or already cold
      const SealedChunk& sealed = *chunk.sealed;
      auto meta = std::make_shared<ColdChunkMeta>();
      meta->count = sealed.count;
      meta->min_t = sealed.min_t;
      meta->max_t = sealed.max_t;
      meta->min_v = sealed.min_v;
      meta->max_v = sealed.max_v;
      meta->all_finite = sealed.all_finite;
      meta->encoded_size = sealed.encoded.size();
      meta->agg = sealed.agg;
      // Disk write under the exclusive shard lock: acceptable at
      // checkpoint frequency, and it keeps spill atomic against readers
      // (a PinView sees either the sealed ref or the cold handle, never
      // a gap).
      auto put = options_.cold_tier->Put(s->name, chunk.start, *meta,
                                         sealed.encoded);
      if (!put.ok()) return put.status();
      m_.cold_chunks_spilled->Increment();
      m_.cold_bytes_spilled->Add(meta->encoded_size);
      chunk.cold = *put;
      chunk.cold_meta = std::move(meta);
      chunk.sealed.reset();  // the RAM copy of the bytes drops here
      ++spilled;
    }
  }
  return spilled;
}

Status HypertableStore::AdoptColdChunk(SeriesId id, Timestamp chunk_start,
                                       ColdChunkId cold,
                                       const ColdChunkMeta& meta) {
  if (cold == kInvalidColdChunk) {
    return Status::InvalidArgument("adopting an invalid cold chunk handle");
  }
  StoredSeries* s = FindSeries(id);
  if (s == nullptr) return NoSuchSeries(id);
  ExclusiveLock lock(s->mu);
  MarkWritten(*s);
  ChunkList& chunks = MutableChunks(*s);
  auto it = std::lower_bound(
      chunks.begin(), chunks.end(), chunk_start,
      [](const Chunk& c, Timestamp st) { return c.start < st; });
  if (it != chunks.end() && it->start == chunk_start) {
    // Recovery adopts the catalog before replaying the WAL, so the slot
    // must be empty; an occupied slot means the catalog and snapshot
    // disagree about who owns this chunk.
    return Status::Corruption("cold chunk overlaps a resident chunk");
  }
  Chunk chunk;
  chunk.start = chunk_start;
  chunk.cold = cold;
  chunk.cold_meta = std::make_shared<ColdChunkMeta>(meta);
  chunks.insert(it, std::move(chunk));
  m_.cold_chunks_adopted->Increment();
  return Status::OK();
}

Result<std::vector<Sample>> HypertableStore::MaterializeResident(
    SeriesId id) const {
  std::vector<Sample> out;
  HYGRAPH_RETURN_IF_ERROR(VisitSeries(id, [&](const SeriesVersion& version) {
    const ChunkList& chunks = *version.chunks;
    for (size_t i = 0; i < chunks.size(); ++i) {
      const Chunk& chunk = chunks[i];
      if (chunk.is_cold()) continue;  // durability owned by the cold tier
      if (chunk.sealed != nullptr) {
        std::vector<Sample> scratch;
        const Status decode =
            DecodeChunkWide(chunk.sealed->encoded, &scratch);
        if (!decode.ok()) {
          return Status::Internal("sealed chunk failed to decode: " +
                                  decode.message());
        }
        out.insert(out.end(), scratch.begin(), scratch.end());
      } else {
        const auto begin = chunk.hot->samples.begin();
        out.insert(out.end(), begin,
                   begin + static_cast<ptrdiff_t>(VisibleSize(version, i)));
      }
    }
    return Status::OK();
  }));
  return out;  // chunk order == time order, so this is sorted
}

Result<size_t> HypertableStore::SampleCount(SeriesId id) const {
  size_t n = 0;
  HYGRAPH_RETURN_IF_ERROR(VisitSeries(id, [&n](const SeriesVersion& version) {
    for (size_t i = 0; i < version.chunks->size(); ++i) {
      n += VisibleSize(version, i);
    }
    return Status::OK();
  }));
  return n;
}

Result<std::vector<Sample>> HypertableStore::Scan(
    SeriesId id, const Interval& interval) const {
  auto view = PinView(id, interval, /*want_aggregates=*/false);
  if (!view.ok()) return view.status();
  m_.chunks_total->Add(view->chunk_count);
  // The result buffer is query-held memory: reserve it against the
  // installed context's governor before allocating (kResourceExhausted
  // instead of OOM). The context releases its reservations when the query
  // ends.
  if (QueryContext* ctx = QueryContext::Current()) {
    HYGRAPH_RETURN_IF_ERROR(
        ctx->ReserveMemory(view->overlap_estimate * sizeof(Sample)));
  }
  std::vector<Sample> out;
  out.reserve(view->overlap_estimate);
  std::vector<Sample> scratch;
  for (const PinnedChunk& chunk : view->chunks) {
    m_.chunks_scanned->Increment();
    HYGRAPH_RETURN_IF_ERROR(
        VisitChunk(chunk, interval, ScanPredicate{}, &scratch,
                   [&out](const Sample& s) { out.push_back(s); }));
  }
  return out;
}

Result<Series> HypertableStore::Materialize(SeriesId id,
                                            const Interval& interval) const {
  auto view = PinView(id, interval, /*want_aggregates=*/false);
  if (!view.ok()) return view.status();
  m_.chunks_total->Add(view->chunk_count);
  // Same accounting as Scan: the materialized series belongs to the query.
  if (QueryContext* ctx = QueryContext::Current()) {
    HYGRAPH_RETURN_IF_ERROR(
        ctx->ReserveMemory(view->overlap_estimate * sizeof(Sample)));
  }
  Series out(view->name);
  out.Reserve(view->overlap_estimate);
  Status append = Status::OK();
  std::vector<Sample> scratch;
  for (const PinnedChunk& chunk : view->chunks) {
    m_.chunks_scanned->Increment();
    HYGRAPH_RETURN_IF_ERROR(VisitChunk(
        chunk, interval, ScanPredicate{}, &scratch, [&](const Sample& s) {
          if (append.ok()) append = out.Append(s.t, s.value);
        }));
  }
  HYGRAPH_RETURN_IF_ERROR(append);
  return out;
}

Result<size_t> HypertableStore::CountMatching(
    SeriesId id, const Interval& interval,
    const ScanPredicate& predicate) const {
  auto view = PinView(id, interval, /*want_aggregates=*/false);
  if (!view.ok()) return view.status();
  m_.chunks_total->Add(view->chunk_count);
  size_t n = 0;
  std::vector<Sample> scratch;
  for (const PinnedChunk& chunk : view->chunks) {
    if (ZoneMapExcludes(chunk, predicate)) {
      m_.chunks_zonemap_skipped->Increment();
      continue;
    }
    // Whole-chunk match: every sample is inside the interval and the zone's
    // value range satisfies the predicate end to end. Works for cold chunks
    // too — the zone map is resident, so this path never pins the bytes.
    if (chunk.has_zone && interval.Contains(chunk.first_t) &&
        interval.Contains(chunk.last_t) && chunk.all_finite &&
        predicate.Matches(chunk.min_v) && predicate.Matches(chunk.max_v)) {
      n += chunk.size;
      m_.chunks_from_cache->Increment();
      continue;
    }
    m_.chunks_scanned->Increment();
    HYGRAPH_RETURN_IF_ERROR(VisitChunk(chunk, interval, predicate, &scratch,
                                       [&n](const Sample&) { ++n; }));
  }
  return n;
}

Result<double> HypertableStore::Aggregate(SeriesId id,
                                          const Interval& interval,
                                          AggKind kind) const {
  auto view = PinView(id, interval, options_.enable_chunk_cache);
  if (!view.ok()) return view.status();
  m_.chunks_total->Add(view->chunk_count);
  // One AggState per chunk, merged in chunk order: a chunk the interval
  // covers contributes its cached partial, a clipped one folds its samples
  // into a chunk-local partial first. Floating-point addition is not
  // associative, so this order is part of the answer.
  AggState total;
  std::vector<Sample> scratch;
  for (const PinnedChunk& chunk : view->chunks) {
    // Zone-map coverage: the cached partial answers the chunk whenever the
    // interval covers its actual data span, even if the nominal chunk span
    // pokes out of the interval.
    if (chunk.agg_valid && interval.Contains(chunk.first_t) &&
        interval.Contains(chunk.last_t)) {
      total.Merge(chunk.agg);
      m_.chunks_from_cache->Increment();
      continue;
    }
    m_.chunks_scanned->Increment();
    AggState partial;
    HYGRAPH_RETURN_IF_ERROR(
        VisitChunk(chunk, interval, ScanPredicate{}, &scratch,
                   [&partial](const Sample& s) { partial.Add(s); }));
    total.Merge(partial);
  }
  return total.Finalize(kind);
}

Status HypertableStore::AggregateMany(const std::vector<SeriesId>& ids,
                                      const Interval& interval, AggKind kind,
                                      std::vector<Result<double>>* out) const {
  out->clear();
  out->reserve(ids.size());
  for (SeriesId id : ids) {
    Result<double> value = Aggregate(id, interval, kind);
    // Per-series failures (unknown id, corrupt chunk) stay in their slot;
    // only governance violations abort the batch.
    const StatusCode code = value.status().code();
    if (code == StatusCode::kCancelled ||
        code == StatusCode::kDeadlineExceeded ||
        code == StatusCode::kResourceExhausted) {
      out->clear();
      return value.status();
    }
    out->push_back(std::move(value));
  }
  return Status::OK();
}

Result<Series> HypertableStore::WindowAggregate(SeriesId id,
                                                const Interval& interval,
                                                Duration width,
                                                AggKind kind) const {
  if (width <= 0) {
    return Status::InvalidArgument("window width must be positive");
  }
  auto view = PinView(id, interval, options_.enable_chunk_cache);
  if (!view.ok()) return view.status();
  Series out(view->name + "_" + AggKindName(kind));
  // Clamp the sweep to the data actually present. Only pinned (interval-
  // overlapping) chunks matter: data outside the interval cannot shift the
  // clamped span, and the grid anchor below falls back to span.start only
  // when the interval is unbounded — in which case every chunk is pinned.
  Timestamp data_start = kMaxTimestamp;
  Timestamp data_end = kMinTimestamp;
  for (const PinnedChunk& chunk : view->chunks) {
    data_start = std::min(data_start, chunk.first_t);
    data_end = std::max(data_end, chunk.last_t + 1);
  }
  const Interval span = interval.Intersect(Interval{data_start, data_end});
  if (span.empty()) return out;
  // Grid anchored at interval.start (matching ts::WindowAggregate).
  const Timestamp anchor =
      interval.start == kMinTimestamp ? span.start : interval.start;

  auto bucket_of = [&](Timestamp t) { return (t - anchor) / width; };

  m_.chunks_total->Add(view->chunk_count);
  // Each chunk reduces to chunk-local (bucket, partial) pairs that merge
  // into the open window, so a window spanning a chunk boundary is
  // Merge(partial_a, partial_b) — the same reduction order as Aggregate.
  bool have_bucket = false;
  int64_t current_bucket = 0;
  AggState state;
  auto flush = [&]() -> Status {
    if (!have_bucket || state.count == 0) return Status::OK();
    auto value = state.Finalize(kind);
    if (!value.ok()) return value.status();
    return out.Append(anchor + current_bucket * width, *value);
  };
  auto merge = [&](int64_t bucket, const AggState& partial) -> Status {
    if (!have_bucket || bucket != current_bucket) {
      HYGRAPH_RETURN_IF_ERROR(flush());
      current_bucket = bucket;
      state = AggState{};
      have_bucket = true;
    }
    state.Merge(partial);
    return Status::OK();
  };
  std::vector<Sample> scratch;
  for (const PinnedChunk& chunk : view->chunks) {
    if (chunk.start >= span.end) break;
    // Fast path: the chunk lies entirely within one bucket that also lies
    // inside the requested interval — its cached partial stands in for all
    // of its samples (classic continuous-aggregate reuse when width is a
    // multiple of the chunk duration and grids align).
    if (chunk.agg_valid && span.Contains(chunk.first_t) &&
        span.Contains(chunk.last_t) &&
        bucket_of(chunk.first_t) == bucket_of(chunk.last_t)) {
      HYGRAPH_RETURN_IF_ERROR(merge(bucket_of(chunk.first_t), chunk.agg));
      m_.chunks_from_cache->Increment();
      continue;
    }
    m_.chunks_scanned->Increment();
    bool open = false;
    int64_t bucket = 0;
    AggState partial;
    Status merged = Status::OK();
    HYGRAPH_RETURN_IF_ERROR(VisitChunk(
        chunk, span, ScanPredicate{}, &scratch, [&](const Sample& s) {
          const int64_t b = bucket_of(s.t);
          if (open && b != bucket) {
            if (merged.ok()) merged = merge(bucket, partial);
            partial = AggState{};
          }
          open = true;
          bucket = b;
          partial.Add(s);
        }));
    HYGRAPH_RETURN_IF_ERROR(merged);
    if (open) HYGRAPH_RETURN_IF_ERROR(merge(bucket, partial));
  }
  HYGRAPH_RETURN_IF_ERROR(flush());
  return out;
}

Result<std::string> HypertableStore::Name(SeriesId id) const {
  const StoredSeries* s = nullptr;
  if (version_ != nullptr) {
    const SeriesVersion* entry = version_->Find(id);
    if (entry != nullptr) s = entry->series;
  } else {
    s = FindSeries(id);
  }
  if (s == nullptr) return Status(NoSuchSeries(id));
  return s->name;  // immutable after Create; no shard lock needed
}

std::vector<SeriesId> HypertableStore::Ids() const {
  std::vector<SeriesId> ids;
  if (version_ != nullptr) {
    for (const auto& page : version_->pages) {
      if (page == nullptr) continue;
      for (const SeriesVersion& entry : *page) {
        if (entry.series != nullptr) ids.push_back(entry.series->id);
      }
    }
    return ids;  // pages are in id order
  }
  SharedLock lock(*map_mu_);
  ids.reserve(series_.size());
  for (const auto& [id, _] : series_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

HypertableMemory HypertableStore::MemoryUsage() const {
  HypertableMemory m;
  for (SeriesId id : Ids()) {
    const Status visited = VisitSeries(id, [&m](const SeriesVersion& version) {
      const ChunkList& chunks = *version.chunks;
      for (size_t i = 0; i < chunks.size(); ++i) {
        const Chunk& chunk = chunks[i];
        if (chunk.sealed != nullptr) {
          m.sealed_samples += chunk.sealed->count;
          m.sealed_bytes += chunk.sealed->encoded.size();
        } else if (chunk.is_cold()) {
          // Bytes live in the cold tier, not this store's RAM.
          m.cold_samples += chunk.cold_meta->count;
          m.cold_bytes += chunk.cold_meta->encoded_size;
        } else {
          m.hot_samples += VisibleSize(version, i);
          m.hot_bytes += chunk.hot->samples.capacity() * sizeof(Sample);
        }
      }
      return Status::OK();
    });
    HYGRAPH_IGNORE_RESULT(visited);  // ids are never removed
  }
  return m;
}

std::shared_ptr<const HypertableStore> HypertableStore::Fork() const {
  m_.snapshot_pins->Increment();
  if (version_ != nullptr) {
    return std::make_shared<const HypertableStore>(VersionTag{}, *this,
                                                   version_);
  }
  MutexLock publish(*publish_mu_);
  std::vector<StoredSeries*> written;
  {
    MutexLock lock(*written_mu_);
    written.swap(written_);
  }
  if (written.empty() && published_ != nullptr) return published_;
  // Republish: untouched directory pages stay shared with the last
  // version; each page holding a written series is copied once.
  auto directory = published_ == nullptr
                       ? std::make_shared<Directory>()
                       : std::make_shared<Directory>(*published_->version_);
  std::sort(written.begin(), written.end(),
            [](const StoredSeries* a, const StoredSeries* b) {
              return a->id < b->id;
            });
  DirectoryPage* page = nullptr;
  size_t page_index = 0;
  for (StoredSeries* s : written) {
    const size_t index = static_cast<size_t>(s->id / kDirectoryPage);
    if (page == nullptr || index != page_index) {
      if (index >= directory->pages.size()) {
        directory->pages.resize(index + 1);
      }
      const std::shared_ptr<const DirectoryPage>& old =
          directory->pages[index];
      auto copy = old == nullptr ? std::make_shared<DirectoryPage>()
                                 : std::make_shared<DirectoryPage>(*old);
      page = copy.get();
      page_index = index;
      directory->pages[index] = std::move(copy);
    }
    SeriesVersion& entry = (*page)[s->id % kDirectoryPage];
    ExclusiveLock lock(s->mu);
    entry.series = s;
    entry.chunks = s->chunks;
    const HotChunk* hot = NewestHot(*s->chunks);
    entry.hot_count = hot == nullptr ? 0 : hot->samples.size();
    entry.hot_agg = hot == nullptr ? AggState{} : hot->agg;
    ++s->publishes;  // from now on writers copy what this entry holds
    s->written = false;
  }
  published_ = std::make_shared<const HypertableStore>(VersionTag{}, *this,
                                                       std::move(directory));
  return published_;
}

HypertableStats HypertableStore::stats() const {
  HypertableStats s;
  s.chunks_total = m_.chunks_total->value();
  s.chunks_scanned = m_.chunks_scanned->value();
  s.chunks_from_cache = m_.chunks_from_cache->value();
  s.samples_scanned = m_.samples_scanned->value();
  s.chunks_decoded = m_.chunks_decoded->value();
  s.chunks_sealed = m_.chunks_sealed->value();
  s.chunks_unsealed = m_.chunks_unsealed->value();
  s.bytes_raw = m_.bytes_raw->value();
  s.bytes_compressed = m_.bytes_compressed->value();
  s.chunks_zonemap_skipped = m_.chunks_zonemap_skipped->value();
  s.cold_chunks_spilled = m_.cold_chunks_spilled->value();
  s.cold_bytes_spilled = m_.cold_bytes_spilled->value();
  s.cold_chunks_adopted = m_.cold_chunks_adopted->value();
  s.cold_pins = m_.cold_pins->value();
  return s;
}

void HypertableStore::ResetStats() {
  // Resets only this store's instruments, not the whole registry, which
  // may be shared with the enclosing backend.
  m_.chunks_total->Reset();
  m_.chunks_scanned->Reset();
  m_.chunks_from_cache->Reset();
  m_.samples_scanned->Reset();
  m_.chunks_decoded->Reset();
  m_.chunks_sealed->Reset();
  m_.chunks_unsealed->Reset();
  m_.bytes_raw->Reset();
  m_.bytes_compressed->Reset();
  m_.chunks_zonemap_skipped->Reset();
  m_.cold_chunks_spilled->Reset();
  m_.cold_bytes_spilled->Reset();
  m_.cold_chunks_adopted->Reset();
  m_.cold_pins->Reset();
}

}  // namespace hygraph::ts
