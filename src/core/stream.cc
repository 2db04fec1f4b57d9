#include "core/stream.h"

namespace hygraph::core {

UpdateEvent UpdateEvent::AddPgVertex(Timestamp at, std::string id,
                                     std::vector<std::string> labels,
                                     graph::PropertyMap properties) {
  UpdateEvent e;
  e.kind = Kind::kAddPgVertex;
  e.at = at;
  e.id = std::move(id);
  e.labels = std::move(labels);
  e.properties = std::move(properties);
  return e;
}

UpdateEvent UpdateEvent::AddTsVertex(Timestamp at, std::string id,
                                     std::vector<std::string> labels,
                                     std::vector<std::string> variables) {
  UpdateEvent e;
  e.kind = Kind::kAddTsVertex;
  e.at = at;
  e.id = std::move(id);
  e.labels = std::move(labels);
  e.variables = std::move(variables);
  return e;
}

UpdateEvent UpdateEvent::AddPgEdge(Timestamp at, std::string id,
                                   std::string src, std::string dst,
                                   std::string label,
                                   graph::PropertyMap properties) {
  UpdateEvent e;
  e.kind = Kind::kAddPgEdge;
  e.at = at;
  e.id = std::move(id);
  e.src = std::move(src);
  e.dst = std::move(dst);
  e.label = std::move(label);
  e.properties = std::move(properties);
  return e;
}

UpdateEvent UpdateEvent::AddTsEdge(Timestamp at, std::string id,
                                   std::string src, std::string dst,
                                   std::string label,
                                   std::vector<std::string> variables) {
  UpdateEvent e;
  e.kind = Kind::kAddTsEdge;
  e.at = at;
  e.id = std::move(id);
  e.src = std::move(src);
  e.dst = std::move(dst);
  e.label = std::move(label);
  e.variables = std::move(variables);
  return e;
}

UpdateEvent UpdateEvent::Sample(Timestamp at, std::string vertex_id,
                                std::vector<double> row) {
  UpdateEvent e;
  e.kind = Kind::kAppendVertexSample;
  e.at = at;
  e.id = std::move(vertex_id);
  e.row = std::move(row);
  return e;
}

UpdateEvent UpdateEvent::EdgeSample(Timestamp at, std::string edge_id,
                                    std::vector<double> row) {
  UpdateEvent e;
  e.kind = Kind::kAppendEdgeSample;
  e.at = at;
  e.id = std::move(edge_id);
  e.row = std::move(row);
  return e;
}

UpdateEvent UpdateEvent::ExpireVertex(Timestamp at, std::string id) {
  UpdateEvent e;
  e.kind = Kind::kExpireVertex;
  e.at = at;
  e.id = std::move(id);
  return e;
}

StreamProcessor::StreamProcessor(HyGraph* hg, StreamOptions options)
    : hg_(hg), options_(options) {}

Result<graph::VertexId> StreamProcessor::ResolveVertex(
    const std::string& id) const {
  auto it = vertices_.find(id);
  if (it == vertices_.end()) {
    return Status::NotFound("no vertex with external id '" + id + "'");
  }
  return it->second;
}

Result<graph::EdgeId> StreamProcessor::ResolveEdge(
    const std::string& id) const {
  auto it = edges_.find(id);
  if (it == edges_.end()) {
    return Status::NotFound("no edge with external id '" + id + "'");
  }
  return it->second;
}

Status StreamProcessor::Apply(const UpdateEvent& event) {
  if (event.at < stats_.watermark) {
    return Status::FailedPrecondition(
        "event at " + FormatTimestamp(event.at) +
        " is behind the stream watermark " +
        FormatTimestamp(stats_.watermark));
  }
  HYGRAPH_RETURN_IF_ERROR(ApplyImpl(event));
  stats_.watermark = event.at;
  ++stats_.events_applied;
  MaybeEvict();
  return Status::OK();
}

Status StreamProcessor::ApplyAll(const std::vector<UpdateEvent>& events) {
  for (const UpdateEvent& event : events) {
    HYGRAPH_RETURN_IF_ERROR(Apply(event));
  }
  return Status::OK();
}

Status StreamProcessor::ApplyImpl(const UpdateEvent& event) {
  switch (event.kind) {
    case UpdateEvent::Kind::kAddPgVertex: {
      if (vertices_.count(event.id)) {
        return Status::AlreadyExists("vertex '" + event.id + "' exists");
      }
      auto v = hg_->AddPgVertex(event.labels, event.properties,
                                Interval{event.at, kMaxTimestamp});
      if (!v.ok()) return v.status();
      vertices_[event.id] = *v;
      return Status::OK();
    }
    case UpdateEvent::Kind::kAddTsVertex: {
      if (vertices_.count(event.id)) {
        return Status::AlreadyExists("vertex '" + event.id + "' exists");
      }
      if (event.variables.empty()) {
        return Status::InvalidArgument("TS vertex needs variables");
      }
      auto v = hg_->AddTsVertex(event.labels,
                                ts::MultiSeries(event.id, event.variables));
      if (!v.ok()) return v.status();
      vertices_[event.id] = *v;
      return Status::OK();
    }
    case UpdateEvent::Kind::kAddPgEdge:
    case UpdateEvent::Kind::kAddTsEdge: {
      if (edges_.count(event.id)) {
        return Status::AlreadyExists("edge '" + event.id + "' exists");
      }
      auto src = ResolveVertex(event.src);
      if (!src.ok()) return src.status();
      auto dst = ResolveVertex(event.dst);
      if (!dst.ok()) return dst.status();
      if (event.kind == UpdateEvent::Kind::kAddPgEdge) {
        auto e = hg_->AddPgEdge(*src, *dst, event.label, event.properties,
                                Interval{event.at, kMaxTimestamp});
        if (!e.ok()) return e.status();
        edges_[event.id] = *e;
      } else {
        if (event.variables.empty()) {
          return Status::InvalidArgument("TS edge needs variables");
        }
        auto e = hg_->AddTsEdge(*src, *dst, event.label,
                                ts::MultiSeries(event.id, event.variables));
        if (!e.ok()) return e.status();
        edges_[event.id] = *e;
      }
      return Status::OK();
    }
    case UpdateEvent::Kind::kAppendVertexSample: {
      auto v = ResolveVertex(event.id);
      if (!v.ok()) return v.status();
      HYGRAPH_RETURN_IF_ERROR(
          hg_->AppendToVertexSeries(*v, event.at, event.row));
      ++stats_.samples_appended;
      return Status::OK();
    }
    case UpdateEvent::Kind::kAppendEdgeSample: {
      auto e = ResolveEdge(event.id);
      if (!e.ok()) return e.status();
      HYGRAPH_RETURN_IF_ERROR(
          hg_->AppendToEdgeSeries(*e, event.at, event.row));
      ++stats_.samples_appended;
      return Status::OK();
    }
    case UpdateEvent::Kind::kSetVertexProperty: {
      auto v = ResolveVertex(event.id);
      if (!v.ok()) return v.status();
      return hg_->SetVertexProperty(*v, event.key, event.value);
    }
    case UpdateEvent::Kind::kExpireVertex: {
      auto v = ResolveVertex(event.id);
      if (!v.ok()) return v.status();
      HYGRAPH_RETURN_IF_ERROR(hg_->mutable_tpg()->ExpireVertex(*v, event.at));
      ++stats_.elements_expired;
      return Status::OK();
    }
    case UpdateEvent::Kind::kExpireEdge: {
      auto e = ResolveEdge(event.id);
      if (!e.ok()) return e.status();
      HYGRAPH_RETURN_IF_ERROR(hg_->mutable_tpg()->ExpireEdge(*e, event.at));
      ++stats_.elements_expired;
      return Status::OK();
    }
  }
  return Status::Internal("unhandled event kind");
}

void StreamProcessor::MaybeEvict() {
  if (options_.retention <= 0) return;
  // kMinTimestamp means "never evicted". Otherwise watermark >=
  // last_eviction_, and their distance can exceed INT64_MAX, so it is
  // measured in uint64_t.
  const uint64_t since_eviction = static_cast<uint64_t>(stats_.watermark) -
                                  static_cast<uint64_t>(last_eviction_);
  if (last_eviction_ != kMinTimestamp && options_.eviction_period > 0 &&
      since_eviction < static_cast<uint64_t>(options_.eviction_period)) {
    return;
  }
  last_eviction_ = stats_.watermark;
  // Saturate at kMinTimestamp: watermark - retention overflows for event
  // times within `retention` of it, and nothing is older than that anyway.
  const Timestamp keep_from =
      stats_.watermark < kMinTimestamp + options_.retention
          ? kMinTimestamp
          : stats_.watermark - options_.retention;
  const Interval keep{keep_from, kMaxTimestamp};
  for (graph::VertexId v : hg_->TsVertices()) {
    auto removed = hg_->RetainVertexSeries(v, keep);
    if (removed.ok()) stats_.samples_evicted += *removed;
  }
  for (graph::EdgeId e : hg_->TsEdges()) {
    auto removed = hg_->RetainEdgeSeries(e, keep);
    if (removed.ok()) stats_.samples_evicted += *removed;
  }
}

}  // namespace hygraph::core
