#include "storage/durable.h"

#include <cstdio>
#include <unordered_map>
#include <utility>

#include "common/strings.h"
#include "core/convert.h"
#include "obs/clock.h"
#include "core/hygraph.h"
#include "core/serialize.h"
#include "ts/hypertable.h"
#include "ts/multiseries.h"

namespace hygraph::storage {

namespace {

// Pooled-series property name under which a snapshot stores the series of
// key <key> (see BuildSnapshotText).
constexpr char kSnapshotSeriesPrefix[] = "__durable_series__";

// Backend properties hold plain values: a series reference names a pooled
// series that only a core::HyGraph owns, so none is logged or replayed.
Status CheckPlainValue(const Value& value) {
  if (!value.is_series_ref()) return Status::OK();
  return Status::InvalidArgument(
      "backend properties cannot hold series references");
}

Status CheckPlainValues(const graph::PropertyMap& props) {
  for (const auto& [key, value] : props) {
    HYGRAPH_RETURN_IF_ERROR(CheckPlainValue(value));
  }
  return Status::OK();
}

// Parses the name of an installed snapshot, "snapshot-<seq>.hyg". Temp
// files and strangers do not parse.
bool ParseSnapshotName(const std::string& name, uint64_t* seq) {
  unsigned long long parsed = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "snapshot-%llu.hyg%n", &parsed, &consumed) !=
          1 ||
      consumed != static_cast<int>(name.size())) {
    return false;
  }
  *seq = parsed;
  return true;
}

// -- snapshot text ------------------------------------------------------------

/// Shared body of the full and the resident-only snapshot builders. With
/// `resident_only == nullptr` every sample of every series is serialized
/// (the canonical full-state text). With a hypertable, only samples whose
/// chunks are NOT cold-covered are written — the cold tier's segment files
/// plus the paired catalog own the rest, which is what makes a tiered
/// snapshot (and recovery) O(hot data).
Result<std::string> BuildSnapshotTextImpl(const query::QueryBackend& backend,
                                          const ts::HypertableStore* resident_only) {
  const graph::PropertyGraph& topology = backend.topology();
  HYGRAPH_RETURN_IF_ERROR(core::CheckDenseIds(topology));
  auto hg = core::FromPropertyGraph(topology);
  if (!hg.ok()) return hg.status();
  std::unordered_map<std::string, SeriesId> sid_by_name;
  if (resident_only != nullptr) {
    for (SeriesId sid : resident_only->Ids()) {
      auto name = resident_only->Name(sid);
      if (name.ok()) sid_by_name.emplace(*name, sid);
    }
  }
  auto collect =
      [&](const query::SeriesSlot& slot) -> Result<std::vector<ts::Sample>> {
    if (resident_only != nullptr) {
      auto it = sid_by_name.find(query::SeriesSlotName(slot));
      if (it != sid_by_name.end()) {
        return resident_only->MaterializeResident(it->second);
      }
      // A key the hypertable does not know by slot name (a foreign naming
      // scheme): fall through to the full materialization below.
    }
    auto series = backend.SeriesRange(slot, Interval::All());
    if (!series.ok()) return series.status();
    return std::vector<ts::Sample>(series->samples().begin(),
                                   series->samples().end());
  };
  for (const query::SeriesSlot& slot : backend.SeriesSlots()) {
    // A removed entity's series outlives it in the backend; the topology no
    // longer names it, so neither does the snapshot.
    if (!(slot.vertex ? topology.HasVertex(slot.entity)
                      : topology.HasEdge(slot.entity))) {
      continue;
    }
    auto samples = collect(slot);
    if (!samples.ok()) return samples.status();
    ts::MultiSeries ms(slot.key, {"value"});
    for (const ts::Sample& s : *samples) {
      HYGRAPH_RETURN_IF_ERROR(ms.AppendRow(s.t, {s.value}));
    }
    const std::string property = kSnapshotSeriesPrefix + slot.key;
    auto sid =
        slot.vertex
            ? hg->SetVertexSeriesProperty(slot.entity, property, std::move(ms))
            : hg->SetEdgeSeriesProperty(slot.entity, property, std::move(ms));
    if (!sid.ok()) return sid.status();
  }
  return core::Serialize(*hg);
}

}  // namespace

Result<std::string> BuildSnapshotText(const query::QueryBackend& backend) {
  return BuildSnapshotTextImpl(backend, nullptr);
}

Status RestoreFromSnapshotText(const std::string& text,
                               query::QueryBackend* backend) {
  // Snapshots are always written with the trailer; its absence means the
  // file lost its tail in a way that still parses — reject, never guess.
  if (text.find("\nCHECKSUM ") == std::string::npos) {
    return Status::Corruption("snapshot is missing its CHECKSUM trailer");
  }
  auto hg = core::Deserialize(text);
  if (!hg.ok()) return hg.status();

  graph::PropertyGraph* topo = backend->mutable_topology();
  for (graph::VertexId v : hg->structure().VertexIds()) {
    const graph::Vertex& vertex = **hg->structure().GetVertex(v);
    graph::PropertyMap static_props;
    for (const auto& [key, value] : vertex.properties) {
      if (!value.is_series_ref()) static_props.emplace(key, value);
    }
    const graph::VertexId assigned =
        topo->AddVertex(vertex.labels, std::move(static_props));
    if (assigned != v) {
      return Status::Corruption("snapshot restore produced vertex id " +
                                std::to_string(assigned) + ", expected " +
                                std::to_string(v));
    }
  }
  for (graph::EdgeId e : hg->structure().EdgeIds()) {
    const graph::Edge& edge = **hg->structure().GetEdge(e);
    graph::PropertyMap static_props;
    for (const auto& [key, value] : edge.properties) {
      if (!value.is_series_ref()) static_props.emplace(key, value);
    }
    auto assigned =
        topo->AddEdge(edge.src, edge.dst, edge.label, std::move(static_props));
    if (!assigned.ok()) return assigned.status();
    if (*assigned != e) {
      return Status::Corruption("snapshot restore produced edge id " +
                                std::to_string(*assigned) + ", expected " +
                                std::to_string(e));
    }
  }

  // Re-ingest the series that were carried as pooled series properties.
  const size_t prefix_len = sizeof(kSnapshotSeriesPrefix) - 1;
  auto restore = [&](bool vertex, uint64_t entity,
                     const graph::PropertyMap& properties) -> Status {
    for (const auto& [key, value] : properties) {
      if (!value.is_series_ref() ||
          !StartsWith(key, kSnapshotSeriesPrefix)) {
        continue;
      }
      auto ms = hg->LookupSeries(value.AsSeriesId());
      if (!ms.ok()) return ms.status();
      const query::SeriesSlot slot{vertex, entity, key.substr(prefix_len)};
      for (size_t r = 0; r < (*ms)->size(); ++r) {
        HYGRAPH_RETURN_IF_ERROR(
            backend->AppendSample(slot, (*ms)->times()[r], (*ms)->at(r, 0)));
      }
    }
    return Status::OK();
  };
  for (graph::VertexId v : hg->structure().VertexIds()) {
    HYGRAPH_RETURN_IF_ERROR(
        restore(true, v, (*hg->structure().GetVertex(v))->properties));
  }
  for (graph::EdgeId e : hg->structure().EdgeIds()) {
    HYGRAPH_RETURN_IF_ERROR(
        restore(false, e, (*hg->structure().GetEdge(e))->properties));
  }
  return Status::OK();
}

// -- DurableStore -------------------------------------------------------------

DurableStore::DurableStore(Env* env, std::string dir,
                           std::unique_ptr<query::QueryBackend> inner,
                           DurableOptions options)
    : env_(env),
      dir_(std::move(dir)),
      inner_(std::move(inner)),
      options_(options),
      metrics_(std::make_unique<obs::MetricsRegistry>()),
      records_logged_(metrics_->counter("durable.records_logged")),
      checkpoints_(metrics_->counter("durable.checkpoints")),
      checkpoint_nanos_(metrics_->histogram("durable.checkpoint_nanos")),
      retries_(metrics_->counter("durable.retries")),
      wal_rebuilds_(metrics_->counter("durable.wal_rebuilds")),
      degraded_gauge_(metrics_->gauge("durable.degraded")),
      retry_policy_(options_.retry, options_.retry_sleep),
      append_mu_(LockRank::kDurableAppend,
                 SyncInstruments::ForRegistry(metrics_.get())) {}

DurableStore::~DurableStore() {
  if (wal_ != nullptr) HYGRAPH_IGNORE_RESULT(wal_->Close());
}

Status DurableStore::Open() {
  // The contract says Open() completes before the store is shared, but the
  // append mutex is taken anyway: it makes the guarded-field writes below
  // provable and costs one uncontended acquisition. Safe against
  // self-deadlock — Open() never calls the public Checkpoint()/Log() paths,
  // and the inner-store guards it reaches sit strictly below
  // kDurableAppend in the hierarchy.
  MutexLock lock(append_mu_);
  if (opened_) return Status::FailedPrecondition("store is already open");
  recovery_ = RecoveryStats{};
  HYGRAPH_RETURN_IF_ERROR(env_->CreateDirIfMissing(dir_));

  // Newest installed snapshot, if any. Temp files and strangers are ignored
  // — only the atomically-renamed "snapshot-<seq>.hyg" names count.
  std::vector<std::string> children;
  HYGRAPH_RETURN_IF_ERROR(env_->GetChildren(dir_, &children));
  uint64_t snap_seq = 0;
  bool have_snapshot = false;
  for (const std::string& child : children) {
    uint64_t seq = 0;
    if (ParseSnapshotName(child, &seq)) {
      if (!have_snapshot || seq > snap_seq) snap_seq = seq;
      have_snapshot = true;
    }
  }
  if (have_snapshot) {
    std::string text;
    HYGRAPH_RETURN_IF_ERROR(
        env_->ReadFileToString(SnapshotPath(snap_seq), &text));
    HYGRAPH_RETURN_IF_ERROR(RestoreFromSnapshotText(text, inner_.get()));
    recovery_.snapshot_loaded = true;
    recovery_.snapshot_seq = snap_seq;
  }

  // Storage tiering: open the cold tier, attach it to the hypertable, and
  // re-bind every chunk of the catalog paired with the restored snapshot —
  // zone maps and aggregates become resident, the bytes stay on disk. This
  // must happen BEFORE WAL replay: a replayed out-of-order write into a
  // cold chunk has to find (and unseal) the adopted chunk, not open a
  // conflicting hot one.
  ts::HypertableStore* tiered_ht =
      options_.tiering.enabled ? inner_->series_hypertable() : nullptr;
  if (tiered_ht != nullptr) {
    SegmentStoreOptions seg;
    seg.env = env_;
    seg.dir = dir_ + "/cold";
    seg.cache_budget_bytes = options_.tiering.cache_budget_bytes;
    seg.metrics = metrics_.get();
    auto tier = SegmentStore::Open(seg);
    if (!tier.ok()) return tier.status();
    cold_tier_ = std::move(*tier);
    tiered_ht->AttachColdTier(cold_tier_.get());
    if (have_snapshot) {
      auto catalog = cold_tier_->LoadCatalog(snap_seq);
      if (!catalog.ok()) return catalog.status();
      for (const ColdCatalogEntry& entry : *catalog) {
        query::SeriesSlot slot;
        if (!query::ParseSeriesSlotName(entry.series, &slot)) {
          return Status::Corruption("cold catalog series '" + entry.series +
                                    "' is not an entity slot name");
        }
        auto sid = inner_->EnsureSeries(slot);
        if (!sid.ok()) return sid.status();
        HYGRAPH_RETURN_IF_ERROR(tiered_ht->AdoptColdChunk(
            *sid, entry.chunk_start, entry.id, entry.meta));
        ++recovery_.cold_chunks_adopted;
      }
    }
  }

  // Salvage and replay the WAL tail.
  auto scan = ReadWal(env_, WalPath());
  if (!scan.ok()) return scan.status();
  recovery_.wal_records_salvaged = scan->records.size();
  recovery_.wal_bytes_dropped = scan->dropped_bytes;
  recovery_.wal_torn_tail = scan->torn_tail;
  uint64_t max_seq = snap_seq;
  std::vector<std::string> live_records;
  for (size_t i = 0; i < scan->records.size(); ++i) {
    core::Cursor cursor(scan->records[i], i + 1);
    auto seq = cursor.NextUint();
    if (!seq.ok()) return seq.status();
    if (*seq <= snap_seq) {
      ++recovery_.wal_records_skipped;
      continue;
    }
    if (*seq > max_seq) max_seq = *seq;
    if (ApplyRecord(&cursor).ok()) {
      ++recovery_.wal_records_replayed;
    } else {
      // The original application failed the same way after the record was
      // logged; the states still agree.
      ++recovery_.wal_replay_failures;
    }
    live_records.push_back(std::move(scan->records[i]));
  }
  next_seq_ = max_seq + 1;

  // Start the new epoch on a clean log: surviving live records are copied
  // into a fresh file which atomically replaces the old one, dropping any
  // torn tail and already-checkpointed prefix in one motion. Retried as one
  // unit: a fresh attempt re-creates (truncates) the temp file, so a
  // transient failure mid-copy leaves nothing partial behind.
  HYGRAPH_RETURN_IF_ERROR(
      retry_policy_.Run([&] { return InstallWal(live_records); }, retries_));
  records_since_checkpoint_ = live_records.size();
  opened_ = true;
  degraded_gauge_->Set(0.0);

  // Mirror RecoveryStats as gauges so a metrics scrape after startup shows
  // what recovery found without needing the typed struct.
  metrics_->gauge("recovery.snapshot_loaded")
      ->Set(recovery_.snapshot_loaded ? 1.0 : 0.0);
  metrics_->gauge("recovery.snapshot_seq")
      ->Set(static_cast<double>(recovery_.snapshot_seq));
  metrics_->gauge("recovery.wal_records_salvaged")
      ->Set(static_cast<double>(recovery_.wal_records_salvaged));
  metrics_->gauge("recovery.wal_records_skipped")
      ->Set(static_cast<double>(recovery_.wal_records_skipped));
  metrics_->gauge("recovery.wal_records_replayed")
      ->Set(static_cast<double>(recovery_.wal_records_replayed));
  metrics_->gauge("recovery.wal_replay_failures")
      ->Set(static_cast<double>(recovery_.wal_replay_failures));
  metrics_->gauge("recovery.wal_bytes_dropped")
      ->Set(static_cast<double>(recovery_.wal_bytes_dropped));
  metrics_->gauge("recovery.wal_torn_tail")
      ->Set(recovery_.wal_torn_tail ? 1.0 : 0.0);
  metrics_->gauge("recovery.cold_chunks_adopted")
      ->Set(static_cast<double>(recovery_.cold_chunks_adopted));
  return Status::OK();
}

Status DurableStore::RequireOpen() const {
  if (!opened_) return Status::FailedPrecondition("store is not open");
  return Status::OK();
}

Status DurableStore::RequireWritable() const {
  HYGRAPH_RETURN_IF_ERROR(RequireOpen());
  if (degraded_.load(std::memory_order_relaxed)) return degraded_error_;
  if (wal_ == nullptr) {
    return Status::IOError("WAL is unavailable after a failed checkpoint");
  }
  return Status::OK();
}

void DurableStore::EnterDegraded(const Status& cause) {
  degraded_.store(true, std::memory_order_relaxed);
  degraded_error_ = Status::Unavailable(
      "store is degraded read-only (mutations rejected, reads serving): " +
      cause.ToString());
  degraded_gauge_->Set(1.0);
}

Status DurableStore::RebuildWalAndAppend(const std::string& record) {
  // fsyncgate: after a failed sync the kernel may have dropped the dirty
  // pages while the handle reports clean, so the old writer must never be
  // synced again. Abandon it (best-effort close) and build a fresh epoch
  // from what verifiably reached the disk.
  if (wal_ != nullptr) {
    // Drain any in-flight SyncWal fsync (which runs outside append_mu_)
    // before the old writer is destroyed.
    MutexLock sync_lock(wal_sync_mu_);
    HYGRAPH_IGNORE_RESULT(wal_->Close());
    wal_.reset();
  }
  auto scan = ReadWal(env_, WalPath());
  if (!scan.ok()) return scan.status();
  // A sync-only failure can leave the record fully appended; re-appending
  // it would replay as a duplicate sequence number (= corruption). The
  // rebuild's own Sync is what makes it durable either way.
  std::vector<std::string>& records = scan->records;
  if (records.empty() || records.back() != record) records.push_back(record);
  HYGRAPH_RETURN_IF_ERROR(InstallWal(records));
  wal_rebuilds_->Increment();
  return Status::OK();
}

Status DurableStore::InstallWal(const std::vector<std::string>& records) {
  // The writer's handle survives the rename (POSIX semantics).
  const std::string tmp = dir_ + "/wal.tmp";
  auto writer = WalWriter::Create(env_, tmp, metrics_.get());
  if (!writer.ok()) return writer.status();
  for (const std::string& record : records) {
    HYGRAPH_RETURN_IF_ERROR((*writer)->Append(record, /*sync=*/false));
  }
  HYGRAPH_RETURN_IF_ERROR((*writer)->Sync());
  HYGRAPH_RETURN_IF_ERROR(env_->RenameFile(tmp, WalPath()));
  wal_ = std::move(*writer);
  return Status::OK();
}

Status DurableStore::Log(const std::string& body) {
  const std::string record = std::to_string(next_seq_) + " " + body;
  // Attempt 0 is the plain append; every retry rebuilds the WAL epoch
  // (see RebuildWalAndAppend) after backing off. Non-retryable failures
  // and success both exit the loop immediately.
  bool first_attempt = true;
  Status s = retry_policy_.Run(
      [&] {
        if (first_attempt) {
          first_attempt = false;
          return wal_->Append(record, options_.sync_wal);
        }
        return RebuildWalAndAppend(record);
      },
      retries_);
  if (!s.ok()) {
    if (RetryPolicy::IsRetryable(s)) EnterDegraded(s);
    return s;
  }
  ++next_seq_;
  ++records_since_checkpoint_;
  records_logged_->Increment();
  return Status::OK();
}

void DurableStore::MaybeAutoCheckpoint() {
  // Runs with append_mu_ already held by the triggering mutator, so it
  // must use the impl path — Checkpoint() would self-deadlock.
  if (options_.checkpoint_every == 0) return;
  if (records_since_checkpoint_ < options_.checkpoint_every) return;
  Status s = TimedCheckpoint();
  // Non-dense ids defer the checkpoint (expected after removals); real
  // failures surface through background_error().
  if (!s.ok() && s.code() != StatusCode::kFailedPrecondition &&
      background_error_.ok()) {
    background_error_ = s;
  }
}

Status DurableStore::ApplyRecord(core::Cursor* cursor) {
  auto op = cursor->Next();
  if (!op.ok()) return op.status();
  graph::PropertyGraph* topo = inner_->mutable_topology();
  if (*op == "AV" || *op == "AE") {
    auto id = cursor->NextUint();
    if (!id.ok()) return id.status();
    auto key = cursor->NextDecoded();
    if (!key.ok()) return key.status();
    auto t = cursor->NextInt();
    if (!t.ok()) return t.status();
    auto value = cursor->NextDouble();
    if (!value.ok()) return value.status();
    return inner_->AppendSample(
        query::SeriesSlot{*op == "AV", *id, std::move(*key)}, *t, *value);
  }
  if (*op == "NV") {
    auto id = cursor->NextUint();
    if (!id.ok()) return id.status();
    auto labels = cursor->NextLabels();
    if (!labels.ok()) return labels.status();
    auto props = cursor->NextProperties();
    if (!props.ok()) return props.status();
    HYGRAPH_RETURN_IF_ERROR(CheckPlainValues(*props));
    const graph::VertexId assigned =
        topo->AddVertex(std::move(*labels), std::move(*props));
    if (assigned != *id) {
      return Status::Corruption("WAL replay produced vertex id " +
                                std::to_string(assigned) + ", expected " +
                                std::to_string(*id));
    }
    return Status::OK();
  }
  if (*op == "NE") {
    auto id = cursor->NextUint();
    if (!id.ok()) return id.status();
    auto src = cursor->NextUint();
    if (!src.ok()) return src.status();
    auto dst = cursor->NextUint();
    if (!dst.ok()) return dst.status();
    auto label = cursor->NextDecoded();
    if (!label.ok()) return label.status();
    auto props = cursor->NextProperties();
    if (!props.ok()) return props.status();
    HYGRAPH_RETURN_IF_ERROR(CheckPlainValues(*props));
    auto assigned =
        topo->AddEdge(*src, *dst, std::move(*label), std::move(*props));
    if (!assigned.ok()) return assigned.status();
    if (*assigned != *id) {
      return Status::Corruption("WAL replay produced edge id " +
                                std::to_string(*assigned) + ", expected " +
                                std::to_string(*id));
    }
    return Status::OK();
  }
  if (*op == "SV" || *op == "SE") {
    auto id = cursor->NextUint();
    if (!id.ok()) return id.status();
    auto key = cursor->NextDecoded();
    if (!key.ok()) return key.status();
    auto value = cursor->NextValue();
    if (!value.ok()) return value.status();
    HYGRAPH_RETURN_IF_ERROR(CheckPlainValue(*value));
    return *op == "SV"
               ? topo->SetVertexProperty(*id, *key, std::move(*value))
               : topo->SetEdgeProperty(*id, *key, std::move(*value));
  }
  if (*op == "RV" || *op == "RE") {
    auto id = cursor->NextUint();
    if (!id.ok()) return id.status();
    return *op == "RV" ? topo->RemoveVertex(*id) : topo->RemoveEdge(*id);
  }
  return Status::Corruption("unknown WAL op '" + *op + "'");
}

// -- logged mutations ---------------------------------------------------------

template <typename Apply>
Status DurableStore::LogThenApply(const std::string& body, Apply apply) {
  MutexLock lock(append_mu_);
  HYGRAPH_RETURN_IF_ERROR(RequireWritable());
  HYGRAPH_RETURN_IF_ERROR(Log(body));
  Status s = apply();
  MaybeAutoCheckpoint();
  return s;
}

Result<graph::VertexId> DurableStore::AddVertex(
    std::vector<std::string> labels, graph::PropertyMap properties) {
  MutexLock lock(append_mu_);
  HYGRAPH_RETURN_IF_ERROR(RequireWritable());
  HYGRAPH_RETURN_IF_ERROR(CheckPlainValues(properties));
  // Encode before the move; the id is only known after application, so
  // topology adds apply first and log second. A crash in between loses an
  // unacknowledged op — exactly the contract.
  std::string tail;
  core::AppendLabels(&tail, labels);
  core::AppendProperties(&tail, properties);
  graph::VertexId id = 0;
  HYGRAPH_RETURN_IF_ERROR(
      inner_->MutateTopology([&](graph::PropertyGraph* topo) {
        id = topo->AddVertex(std::move(labels), std::move(properties));
        return Status::OK();
      }));
  HYGRAPH_RETURN_IF_ERROR(Log("NV " + std::to_string(id) + tail));
  MaybeAutoCheckpoint();
  return id;
}

Result<graph::EdgeId> DurableStore::AddEdge(graph::VertexId src,
                                            graph::VertexId dst,
                                            std::string label,
                                            graph::PropertyMap properties) {
  MutexLock lock(append_mu_);
  HYGRAPH_RETURN_IF_ERROR(RequireWritable());
  HYGRAPH_RETURN_IF_ERROR(CheckPlainValues(properties));
  std::string tail = " " + core::EncodeField(label);
  core::AppendProperties(&tail, properties);
  graph::EdgeId id = 0;
  HYGRAPH_RETURN_IF_ERROR(
      inner_->MutateTopology([&](graph::PropertyGraph* topo) {
        auto added =
            topo->AddEdge(src, dst, std::move(label), std::move(properties));
        if (!added.ok()) return added.status();
        id = *added;
        return Status::OK();
      }));
  HYGRAPH_RETURN_IF_ERROR(Log("NE " + std::to_string(id) + " " +
                              std::to_string(src) + " " + std::to_string(dst) +
                              tail));
  MaybeAutoCheckpoint();
  return id;
}

Status DurableStore::SetVertexProperty(graph::VertexId v,
                                       const std::string& key, Value value) {
  HYGRAPH_RETURN_IF_ERROR(CheckPlainValue(value));
  return LogThenApply(
      "SV " + std::to_string(v) + " " + core::EncodeField(key) + " " +
          core::ValueToField(value),
      [&] {
        return inner_->MutateTopology([&](graph::PropertyGraph* topo) {
          return topo->SetVertexProperty(v, key, std::move(value));
        });
      });
}

Status DurableStore::SetEdgeProperty(graph::EdgeId e, const std::string& key,
                                     Value value) {
  HYGRAPH_RETURN_IF_ERROR(CheckPlainValue(value));
  return LogThenApply(
      "SE " + std::to_string(e) + " " + core::EncodeField(key) + " " +
          core::ValueToField(value),
      [&] {
        return inner_->MutateTopology([&](graph::PropertyGraph* topo) {
          return topo->SetEdgeProperty(e, key, std::move(value));
        });
      });
}

Status DurableStore::RemoveVertex(graph::VertexId v) {
  return LogThenApply("RV " + std::to_string(v), [&] {
    return inner_->MutateTopology(
        [&](graph::PropertyGraph* topo) { return topo->RemoveVertex(v); });
  });
}

Status DurableStore::RemoveEdge(graph::EdgeId e) {
  return LogThenApply("RE " + std::to_string(e), [&] {
    return inner_->MutateTopology(
        [&](graph::PropertyGraph* topo) { return topo->RemoveEdge(e); });
  });
}

// -- durability control -------------------------------------------------------

Status DurableStore::Checkpoint() {
  MutexLock lock(append_mu_);
  return TimedCheckpoint();
}

Status DurableStore::TimedCheckpoint() {
  // Checkpoints serialize the full store; two clock reads are noise next to
  // that, so checkpoint latency is always recorded (failures included —
  // a slow failed checkpoint is exactly what an operator wants to see).
  const obs::Clock* clock = obs::SystemClock::Instance();
  const uint64_t start = clock->NowNanos();
  Status s = CheckpointImpl();
  checkpoint_nanos_->Record(clock->NowNanos() - start);
  if (s.ok()) checkpoints_->Increment();
  return s;
}

Status DurableStore::CheckpointImpl() {
  // Deliberately only RequireOpen, not RequireWritable: checkpointing must
  // work while degraded (and with a dead wal_) — it is exactly how
  // TryExitDegraded restores the durability contract.
  HYGRAPH_RETURN_IF_ERROR(RequireOpen());

  // Tiered checkpoint prologue (DESIGN.md §15): spill every sealed chunk
  // into the cold tier and make the segment bytes durable, so the snapshot
  // below only has to carry hot data. Order matters — segment sync, then
  // catalog, then snapshot install — so any state a crash can leave behind
  // is recoverable: a catalog only ever references synced bytes, and a
  // snapshot only ever pairs with an already-durable catalog.
  ts::HypertableStore* tiered_ht =
      cold_tier_ != nullptr ? inner_->series_hypertable() : nullptr;
  if (tiered_ht != nullptr) {
    // Both steps absorb transient I/O hiccups like the snapshot write
    // below does. Re-running a partial spill is safe: already-cold chunks
    // are skipped, and a failed Put has no effect on the chunk (its
    // segment file is retired, so the retry appends to a new one).
    // Re-running the segment fsync is not fully safe: it syncs the same
    // file again, and after a failed fsync the kernel may have dropped
    // dirty pages that a retry then reports as durable (fsyncgate). This
    // checkpoint would go on to publish a catalog over those bytes and
    // rotate away the WAL that still covered them — the hazard the WAL
    // path avoids by never re-syncing a failed file (DESIGN.md §15.2).
    HYGRAPH_RETURN_IF_ERROR(retry_policy_.Run(
        [&] {
          auto spilled = tiered_ht->SpillSealed();
          return spilled.ok() ? Status::OK() : spilled.status();
        },
        retries_));
    HYGRAPH_RETURN_IF_ERROR(
        retry_policy_.Run([&] { return cold_tier_->SyncSegments(); },
                          retries_));
  }

  auto text = BuildSnapshotTextImpl(*inner_, tiered_ht);
  if (!text.ok()) return text.status();
  const uint64_t snap_seq = next_seq_ - 1;
  if (tiered_ht != nullptr) {
    // Publish the live cold set under the same sequence the snapshot will
    // install as. A crash between here and the rename leaves an orphan
    // catalog that recovery never reads and the next checkpoint GCs.
    // Retried as one unit — each attempt rewrites the temp file from
    // scratch before the atomic rename.
    HYGRAPH_RETURN_IF_ERROR(retry_policy_.Run(
        [&] { return cold_tier_->WriteCatalog(snap_seq); }, retries_));
  }

  // Write-temp + fsync + atomic rename: the snapshot either installs
  // completely or not at all. Retried as one unit — NewWritableFile
  // truncates the temp file, so every attempt starts clean. A final
  // failure here leaves the previous snapshot + WAL fully intact.
  const std::string tmp = dir_ + "/snapshot.tmp";
  HYGRAPH_RETURN_IF_ERROR(retry_policy_.Run(
      [&] {
        std::unique_ptr<WritableFile> file;
        HYGRAPH_RETURN_IF_ERROR(env_->NewWritableFile(tmp, &file));
        HYGRAPH_RETURN_IF_ERROR(file->Append(*text));
        HYGRAPH_RETURN_IF_ERROR(file->Sync());
        HYGRAPH_RETURN_IF_ERROR(file->Close());
        return env_->RenameFile(tmp, SnapshotPath(snap_seq));
      },
      retries_));

  // The new snapshot is durable; everything from here is garbage
  // collection, and a crash merely leaves work for the next recovery.
  // Both sweeps are idempotent, so they retry as whole units.
  HYGRAPH_RETURN_IF_ERROR(retry_policy_.Run(
      [&] {
        std::vector<std::string> children;
        HYGRAPH_RETURN_IF_ERROR(env_->GetChildren(dir_, &children));
        for (const std::string& child : children) {
          uint64_t seq = 0;
          if (ParseSnapshotName(child, &seq) && seq != snap_seq) {
            HYGRAPH_RETURN_IF_ERROR(env_->RemoveFile(dir_ + "/" + child));
          }
        }
        return Status::OK();
      },
      retries_));
  if (cold_tier_ != nullptr) {
    // Stale catalogs and unreferenced segment files (including orphans
    // from crashed checkpoints) go the same way as stale snapshots.
    HYGRAPH_RETURN_IF_ERROR(retry_policy_.Run(
        [&] { return cold_tier_->CollectGarbage(snap_seq); }, retries_));
  }

  // Fresh WAL epoch on top of the installed snapshot. The old writer (when
  // still present) is abandoned best-effort — its records are all covered
  // by the snapshot. If recreation fails even with retries, the store
  // degrades to read-only rather than risking un-logged acknowledgements.
  if (wal_ != nullptr) {
    // Drain any in-flight SyncWal fsync (which runs outside append_mu_)
    // before the old writer is destroyed.
    MutexLock sync_lock(wal_sync_mu_);
    HYGRAPH_IGNORE_RESULT(wal_->Close());
    wal_.reset();
  }
  Status wal_status = retry_policy_.Run(
      [&] {
        auto writer = WalWriter::Create(env_, WalPath(), metrics_.get());
        if (!writer.ok()) return writer.status();
        wal_ = std::move(*writer);
        return Status::OK();
      },
      retries_);
  if (!wal_status.ok()) {
    if (RetryPolicy::IsRetryable(wal_status)) EnterDegraded(wal_status);
    return wal_status;
  }
  records_since_checkpoint_ = 0;

  // Full checkpoint + fresh epoch = the durability contract holds again;
  // a degraded store exits here (this is TryExitDegraded's whole body).
  if (degraded_.load(std::memory_order_relaxed)) {
    degraded_.store(false, std::memory_order_relaxed);
    degraded_error_ = Status::OK();
    degraded_gauge_->Set(0.0);
  }
  return Status::OK();
}

Status DurableStore::SyncWal() {
  WalWriter* wal = nullptr;
  {
    MutexLock lock(append_mu_);
    HYGRAPH_RETURN_IF_ERROR(RequireWritable());
    wal = wal_.get();
    // Pinned while still under append_mu_, so no rotation can slip in
    // between reading wal_ and taking the sync lock; append_mu_ is then
    // RELEASED so the fsync below never blocks concurrent appends — group
    // commit depends on writers piling up behind an in-flight sync.
    wal_sync_mu_.lock();
  }
  const Status status = wal->Sync();
  wal_sync_mu_.unlock();
  return status;
}

Status DurableStore::TryExitDegraded() {
  MutexLock lock(append_mu_);
  if (!degraded_.load(std::memory_order_relaxed)) return Status::OK();
  // Only a full checkpoint may clear the degraded flag: apply-then-log
  // mutations whose Log() failed can have left the in-memory state ahead
  // of any salvageable WAL, so the fresh epoch must start from a snapshot
  // of what the store is actually serving. CheckpointImpl clears the flag
  // on full success.
  return TimedCheckpoint();
}

// -- QueryBackend delegation --------------------------------------------------

std::string DurableStore::name() const {
  return "durable(" + inner_->name() + ")";
}

const graph::PropertyGraph& DurableStore::topology() const {
  return inner_->topology();
}

graph::PropertyGraph* DurableStore::mutable_topology() {
  return inner_->mutable_topology();
}

Status DurableStore::MutateTopology(
    const std::function<Status(graph::PropertyGraph*)>& fn) {
  return inner_->MutateTopology(fn);
}

Status DurableStore::AppendSample(const query::SeriesSlot& slot, Timestamp t,
                                  double value) {
  return LogThenApply((slot.vertex ? "AV " : "AE ") +
                          std::to_string(slot.entity) + " " +
                          core::EncodeField(slot.key) + " " +
                          std::to_string(t) + " " + core::FormatDouble(value),
                      [&] { return inner_->AppendSample(slot, t, value); });
}

}  // namespace hygraph::storage
