#ifndef HYGRAPH_STORAGE_COW_GRAPH_H_
#define HYGRAPH_STORAGE_COW_GRAPH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "graph/property_graph.h"
#include "obs/metrics.h"

namespace hygraph::storage {

/// A store's copy-on-write property graph (DESIGN.md §10). Snapshots Pin()
/// the current incarnation; Mutable() edits it in place only while no pin
/// is live, and otherwise first swaps in a private copy. Pins are counted
/// per incarnation with release (unpin) / acquire (Mutable) order, so a
/// writer that finds no pin also sees every read the released snapshots
/// made; shared_ptr::use_count() cannot decide this, its load is relaxed.
/// Not synchronized itself: the owning store calls Pin() and the const
/// accessors under its guard held shared, Mutable() under it exclusively.
class CowGraph {
 public:
  CowGraph() : current_(std::make_shared<Incarnation>()) {}
  /// No graph at all: the state of a store bound to a pinned version,
  /// which reads that version instead and never touches this one.
  explicit CowGraph(std::nullptr_t) {}

  const graph::PropertyGraph& operator*() const { return current_->graph; }
  const graph::PropertyGraph* operator->() const { return &current_->graph; }

  /// The current graph, kept alive and pinned while the result lives.
  std::shared_ptr<const graph::PropertyGraph> Pin() const {
    current_->pins.fetch_add(1, std::memory_order_relaxed);
    return std::shared_ptr<const graph::PropertyGraph>(
        &current_->graph, [held = current_](const graph::PropertyGraph*) {
          held->pins.fetch_sub(1, std::memory_order_release);
        });
  }

  /// The graph for mutation: a fresh copy first while a pin is live
  /// (counted in `copies`).
  graph::PropertyGraph* Mutable(obs::Counter* copies) {
    if (current_->pins.load(std::memory_order_acquire) > 0) {
      current_ = std::make_shared<Incarnation>(current_->graph);
      copies->Increment();
    }
    return &current_->graph;
  }

 private:
  struct Incarnation {
    Incarnation() = default;
    explicit Incarnation(const graph::PropertyGraph& from) : graph(from) {}
    graph::PropertyGraph graph;
    std::atomic<uint64_t> pins{0};
  };
  std::shared_ptr<Incarnation> current_;
};

}  // namespace hygraph::storage

#endif  // HYGRAPH_STORAGE_COW_GRAPH_H_
