#ifndef HYGRAPH_STORAGE_ALL_IN_GRAPH_H_
#define HYGRAPH_STORAGE_ALL_IN_GRAPH_H_

#include <memory>
#include <string>

#include "common/sync.h"
#include "query/backend.h"
#include "storage/cow_graph.h"

namespace hygraph::storage {

/// The "All-in-graph Storage" architecture of Figure 1 (the red path) —
/// a simulation of the paper's Neo4j configuration, where "each timestamp
/// and its corresponding value are stored as separate properties" of the
/// owning vertex or edge.
///
/// A sample (key, t, v) becomes the property entry
///
///   "__ts__<key>__<zero-padded t>" -> v
///
/// in the entity's ordinary property map. Because the property map is a
/// generic key→value dictionary, every series read must enumerate the
/// entity's *entire* property map, string-match the prefix, and parse the
/// timestamp out of each key — exactly the access pattern that makes the
/// paper's Neo4j baseline collapse on aggregation-heavy queries (Table 1,
/// Q4–Q8) and that inflates write amplification (one property write per
/// sample into an ever-growing map).
///
/// The store intentionally does NOT exploit the lexicographic ordering of
/// the zero-padded encoding: a generic property store has no schema
/// knowledge that this key family encodes a time axis. This mirrors how the
/// paper's Neo4j queries had to "manually handle time series data stored as
/// properties".
///
/// Thread safety (DESIGN.md §10): the whole store sits behind one
/// reader-writer guard. Series reads and BeginSnapshot() take it shared;
/// AppendSample and MutateTopology take it exclusive and copy-on-write
/// detach the graph when a version has it pinned, so pinned versions stay
/// immutable. topology() and mutable_topology() hand out references that
/// outlive the guard — they are safe only single-threaded or against a
/// pinned version; concurrent code must use BeginSnapshot()/
/// MutateTopology().
///
/// BeginSnapshot() returns the same class bound to a version: the pinned
/// graph, read with no lock, and the origin's registry and instruments.
class AllInGraphStore final : public query::QueryBackend {
  /// Constructor access for BeginSnapshot() (passkey: make_shared needs a
  /// public constructor, the tag keeps it BeginSnapshot()'s).
  struct VersionTag {};

 public:
  AllInGraphStore();
  /// A version: reads `graph`, shares `origin`'s registry and instruments,
  /// and owns no graph, registry or lock.
  AllInGraphStore(VersionTag, const AllInGraphStore& origin,
                  std::shared_ptr<const graph::PropertyGraph> graph);

  std::string name() const override { return "all-in-graph"; }
  const graph::PropertyGraph& topology() const override;

  /// Single-threaded bulk-load escape hatch: detaches any pinned version,
  /// then returns the live graph. The returned pointer is used outside the
  /// store's guard — do not call concurrently with anything else. Null on
  /// a version.
  graph::PropertyGraph* mutable_topology() override;

  /// Runs `fn` under the store's exclusive guard after a copy-on-write
  /// detach — the concurrency-safe mutation path.
  Status MutateTopology(
      const std::function<Status(graph::PropertyGraph*)>& fn) override;

  /// Pins the current graph as an immutable version (O(1): one pin count
  /// and refcount). Mutators detach onto a fresh copy while it lives.
  /// Null on a version, which is immutable already.
  std::shared_ptr<const query::QueryBackend> BeginSnapshot() const override;

  /// "allingraph.*" work counters: properties examined and samples parsed
  /// by the full-property-map scans — the cost Table 1 measures.
  obs::MetricsRegistry* metrics() const override { return metrics_; }
  query::BackendWork Work() const override;

  Status AppendSample(const query::SeriesSlot& slot, Timestamp t,
                      double value) override;

  Result<ts::Series> SeriesRange(const query::SeriesSlot& slot,
                                 const Interval& interval) const override;

  /// Encodes / decodes the property-key representation of one sample
  /// (exposed for tests).
  static std::string EncodeSampleKey(const std::string& key, Timestamp t);
  static bool DecodeSampleKey(const std::string& property_key,
                              const std::string& key, Timestamp* t);

 private:
  /// The one read path: `fn(graph)` on a version's pinned graph with no
  /// lock, or on the live graph under the shared guard.
  template <typename Fn>
  decltype(auto) Read(Fn&& fn) const;

  /// Copy-on-write detach; call under exclusive topo_mu_. When a version
  /// has the graph pinned, replaces it with a private copy so the pinned
  /// graph keeps the pre-mutation state.
  graph::PropertyGraph* Detach() HYGRAPH_REQUIRES(*topo_mu_);

  // Set exactly on a version: the graph it reads.
  std::shared_ptr<const graph::PropertyGraph> version_;
  CowGraph graph_ HYGRAPH_GUARDED_BY(*topo_mu_);
  // Owned by the live store; versions point at the origin's. Heap-held so
  // the cached counter pointers survive moves of the store.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* properties_scanned_ = nullptr;
  obs::Counter* samples_parsed_ = nullptr;
  obs::Counter* snapshot_pins_ = nullptr;
  obs::Counter* topology_cow_copies_ = nullptr;
  SyncInstruments sync_;
  // Heap-held: SharedMutex is not movable, the store is. Rank kStoreCoarse.
  // Null on a version.
  std::unique_ptr<SharedMutex> topo_mu_;
};

}  // namespace hygraph::storage

#endif  // HYGRAPH_STORAGE_ALL_IN_GRAPH_H_
