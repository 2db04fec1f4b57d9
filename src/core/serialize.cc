#include "core/serialize.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "common/crc32.h"
#include "common/strings.h"
#include "obs/metrics.h"

namespace hygraph::core {

namespace {

std::string FormatInterval(const Interval& interval) {
  return std::to_string(interval.start) + " " + std::to_string(interval.end);
}

void AppendMultiSeries(std::string* out, const ts::MultiSeries& ms) {
  *out += " MS " + EncodeField(ms.name()) + " " +
          std::to_string(ms.variable_count());
  for (const std::string& var : ms.variables()) {
    *out += " " + EncodeField(var);
  }
  *out += " " + std::to_string(ms.size());
  for (size_t r = 0; r < ms.size(); ++r) {
    *out += " " + std::to_string(ms.times()[r]);
    for (size_t c = 0; c < ms.variable_count(); ++c) {
      *out += " " + FormatDouble(ms.at(r, c));
    }
  }
}

// Canonical pool renumbering: pooled series ids in order of first
// reference, scanning vertices then edges then subgraphs by id, properties
// in key order.
Result<std::map<SeriesId, SeriesId>> CanonicalPoolOrder(const HyGraph& hg) {
  std::map<SeriesId, SeriesId> remap;
  auto visit = [&](const graph::PropertyMap& props) {
    for (const auto& [key, value] : props) {
      if (value.is_series_ref()) {
        remap.emplace(value.AsSeriesId(), remap.size());
      }
    }
  };
  for (graph::VertexId v : hg.structure().VertexIds()) {
    visit((*hg.structure().GetVertex(v))->properties);
  }
  for (graph::EdgeId e : hg.structure().EdgeIds()) {
    visit((*hg.structure().GetEdge(e))->properties);
  }
  // Re-number values (emplace above kept first-seen order keyed by old id;
  // rebuild with sequential targets in first-reference order).
  // emplace with remap.size() already assigns sequential ids in first-visit
  // order, so nothing more to do.
  return remap;
}

}  // namespace

std::string EncodeField(const std::string& raw) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  out.reserve(raw.size() + 2);
  for (unsigned char c : raw) {
    if (c <= ' ' || c == '%' || c == 0x7f) {
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 0xf]);
    } else {
      out.push_back(static_cast<char>(c));
    }
  }
  if (out.empty()) out = "%00";  // empty fields stay visible
  return out;
}

Result<std::string> DecodeField(const std::string& encoded) {
  if (encoded == "%00") return std::string();
  std::string out;
  out.reserve(encoded.size());
  for (size_t i = 0; i < encoded.size(); ++i) {
    if (encoded[i] != '%') {
      out.push_back(encoded[i]);
      continue;
    }
    if (i + 2 >= encoded.size()) {
      return Status::Corruption("truncated escape in '" + encoded + "'");
    }
    auto hex = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      return -1;
    };
    const int hi = hex(encoded[i + 1]);
    const int lo = hex(encoded[i + 2]);
    if (hi < 0 || lo < 0) {
      return Status::Corruption("bad escape in '" + encoded + "'");
    }
    const int decoded = hi * 16 + lo;
    if (decoded == 0) {
      // %00 inside a non-empty field is not produced by EncodeField.
      return Status::Corruption("unexpected %00 inside field");
    }
    out.push_back(static_cast<char>(decoded));
    i += 2;
  }
  return out;
}

std::string FormatDouble(double d) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

std::string ValueToField(const Value& value,
                         const std::map<SeriesId, SeriesId>* pool_remap) {
  switch (value.type()) {
    case ValueType::kNull:
      return "n";
    case ValueType::kBool:
      return value.AsBool() ? "b:1" : "b:0";
    case ValueType::kInt:
      return "i:" + std::to_string(value.AsInt());
    case ValueType::kDouble:
      return "d:" + FormatDouble(value.AsDouble());
    case ValueType::kString:
      return "s:" + EncodeField(value.AsString());
    case ValueType::kSeriesRef: {
      SeriesId id = value.AsSeriesId();
      if (pool_remap != nullptr) id = pool_remap->at(id);
      return "ts:" + std::to_string(id);
    }
  }
  return "n";
}

Result<Value> ValueFromField(const std::string& field) {
  if (field == "n") return Value();
  if (StartsWith(field, "ts:")) {
    return Value::SeriesRef(static_cast<SeriesId>(
        std::strtoull(field.c_str() + 3, nullptr, 10)));
  }
  if (field.size() < 2 || field[1] != ':') {
    return Status::Corruption("malformed value field '" + field + "'");
  }
  const std::string payload = field.substr(2);
  switch (field[0]) {
    case 'b':
      return Value(payload == "1");
    case 'i':
      return Value(static_cast<int64_t>(std::strtoll(payload.c_str(),
                                                     nullptr, 10)));
    case 'd':
      return Value(std::strtod(payload.c_str(), nullptr));
    case 's': {
      auto decoded = DecodeField(payload);
      if (!decoded.ok()) return decoded.status();
      return Value(*decoded);
    }
    default:
      return Status::Corruption("unknown value tag in '" + field + "'");
  }
}

void AppendLabels(std::string* out, const std::vector<std::string>& labels) {
  *out += " L " + std::to_string(labels.size());
  for (const std::string& label : labels) {
    *out += " " + EncodeField(label);
  }
}

void AppendProperties(std::string* out, const graph::PropertyMap& props,
                      const std::map<SeriesId, SeriesId>* pool_remap) {
  *out += " P " + std::to_string(props.size());
  for (const auto& [key, value] : props) {
    *out += " " + EncodeField(key) + " " + ValueToField(value, pool_remap);
  }
}

Cursor::Cursor(const std::string& line, size_t line_number)
    : line_(line_number) {
  for (const std::string& tok : Split(line, ' ')) {
    if (!tok.empty()) tokens_.push_back(tok);
  }
}

Result<std::string> Cursor::Next() {
  if (pos_ >= tokens_.size()) return Fail("unexpected end of line");
  return tokens_[pos_++];
}

Result<int64_t> Cursor::NextInt() {
  auto tok = Next();
  if (!tok.ok()) return tok.status();
  return static_cast<int64_t>(std::strtoll(tok->c_str(), nullptr, 10));
}

Result<uint64_t> Cursor::NextUint() {
  auto tok = Next();
  if (!tok.ok()) return tok.status();
  return static_cast<uint64_t>(std::strtoull(tok->c_str(), nullptr, 10));
}

Result<double> Cursor::NextDouble() {
  auto tok = Next();
  if (!tok.ok()) return tok.status();
  return std::strtod(tok->c_str(), nullptr);
}

Result<std::string> Cursor::NextDecoded() {
  auto tok = Next();
  if (!tok.ok()) return tok.status();
  return DecodeField(*tok);
}

Result<Value> Cursor::NextValue() {
  auto tok = Next();
  if (!tok.ok()) return tok.status();
  return ValueFromField(*tok);
}

Status Cursor::Expect(const std::string& literal) {
  auto tok = Next();
  if (!tok.ok()) return tok.status();
  if (*tok != literal) {
    return Fail("expected '" + literal + "', found '" + *tok + "'");
  }
  return Status::OK();
}

Status Cursor::Fail(const std::string& msg) const {
  return Status::Corruption("line " + std::to_string(line_) + ": " + msg);
}

Result<Interval> Cursor::NextInterval() {
  auto start = NextInt();
  if (!start.ok()) return start.status();
  auto end = NextInt();
  if (!end.ok()) return end.status();
  return Interval{*start, *end};
}

Result<std::vector<std::string>> Cursor::NextLabels() {
  HYGRAPH_RETURN_IF_ERROR(Expect("L"));
  auto count = NextUint();
  if (!count.ok()) return count.status();
  std::vector<std::string> labels;
  for (uint64_t i = 0; i < *count; ++i) {
    auto label = NextDecoded();
    if (!label.ok()) return label.status();
    labels.push_back(std::move(*label));
  }
  return labels;
}

Result<graph::PropertyMap> Cursor::NextProperties() {
  HYGRAPH_RETURN_IF_ERROR(Expect("P"));
  auto count = NextUint();
  if (!count.ok()) return count.status();
  graph::PropertyMap props;
  for (uint64_t i = 0; i < *count; ++i) {
    auto key = NextDecoded();
    if (!key.ok()) return key.status();
    auto value = NextValue();
    if (!value.ok()) return value.status();
    props[*key] = std::move(*value);
  }
  return props;
}

Result<ts::MultiSeries> Cursor::NextMultiSeries() {
  HYGRAPH_RETURN_IF_ERROR(Expect("MS"));
  auto name = NextDecoded();
  if (!name.ok()) return name.status();
  auto var_count = NextUint();
  if (!var_count.ok()) return var_count.status();
  std::vector<std::string> variables;
  for (uint64_t i = 0; i < *var_count; ++i) {
    auto var = NextDecoded();
    if (!var.ok()) return var.status();
    variables.push_back(std::move(*var));
  }
  ts::MultiSeries ms(*name, std::move(variables));
  auto rows = NextUint();
  if (!rows.ok()) return rows.status();
  for (uint64_t r = 0; r < *rows; ++r) {
    auto t = NextInt();
    if (!t.ok()) return t.status();
    std::vector<double> row;
    for (uint64_t c = 0; c < *var_count; ++c) {
      auto v = NextDouble();
      if (!v.ok()) return v.status();
      row.push_back(*v);
    }
    HYGRAPH_RETURN_IF_ERROR(ms.AppendRow(*t, row));
  }
  return ms;
}

Status CheckDenseIds(const graph::PropertyGraph& graph) {
  const auto vertex_ids = graph.VertexIds();
  for (size_t i = 0; i < vertex_ids.size(); ++i) {
    if (vertex_ids[i] != i) {
      return Status::FailedPrecondition(
          "serialization requires dense vertex ids (no removals)");
    }
  }
  const auto edge_ids = graph.EdgeIds();
  for (size_t i = 0; i < edge_ids.size(); ++i) {
    if (edge_ids[i] != i) {
      return Status::FailedPrecondition(
          "serialization requires dense edge ids (no removals)");
    }
  }
  return Status::OK();
}

Result<std::string> Serialize(const HyGraph& hg) {
  HYGRAPH_RETURN_IF_ERROR(CheckDenseIds(hg.structure()));
  const auto vertex_ids = hg.structure().VertexIds();
  const auto edge_ids = hg.structure().EdgeIds();

  auto pool_remap = CanonicalPoolOrder(hg);
  if (!pool_remap.ok()) return pool_remap.status();

  std::string out = "HYGRAPH 1\n";
  for (graph::VertexId v : vertex_ids) {
    const graph::Vertex& vertex = **hg.structure().GetVertex(v);
    std::string line = "V " + std::to_string(v);
    if (hg.IsTsVertex(v)) {
      line += " TS";
      AppendLabels(&line, vertex.labels);
      AppendProperties(&line, vertex.properties, &*pool_remap);
      AppendMultiSeries(&line, **hg.VertexSeries(v));
    } else {
      line += " PG " + FormatInterval(*hg.VertexValidity(v));
      AppendLabels(&line, vertex.labels);
      AppendProperties(&line, vertex.properties, &*pool_remap);
    }
    out += line + "\n";
  }
  for (graph::EdgeId e : edge_ids) {
    const graph::Edge& edge = **hg.structure().GetEdge(e);
    std::string line = "E " + std::to_string(e) + " ";
    if (hg.IsTsEdge(e)) {
      line += "TS " + std::to_string(edge.src) + " " +
              std::to_string(edge.dst) + " " + EncodeField(edge.label);
      AppendProperties(&line, edge.properties, &*pool_remap);
      AppendMultiSeries(&line, **hg.EdgeSeries(e));
    } else {
      line += "PG " + std::to_string(edge.src) + " " +
              std::to_string(edge.dst) + " " + EncodeField(edge.label) +
              " " + FormatInterval(*hg.EdgeValidity(e));
      AppendProperties(&line, edge.properties, &*pool_remap);
    }
    out += line + "\n";
  }
  // Pooled series in canonical order.
  std::vector<std::pair<SeriesId, SeriesId>> pool(pool_remap->begin(),
                                                  pool_remap->end());
  std::sort(pool.begin(), pool.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  for (const auto& [old_id, new_id] : pool) {
    auto series = hg.LookupSeries(old_id);
    if (!series.ok()) return series.status();
    std::string line = "P " + std::to_string(new_id);
    AppendMultiSeries(&line, **series);
    out += line + "\n";
  }
  // Subgraphs and memberships.
  for (SubgraphId s : hg.SubgraphIds()) {
    std::string line = "S " + std::to_string(s) + " " +
                       FormatInterval(*hg.SubgraphValidity(s));
    AppendLabels(&line, **hg.SubgraphLabels(s));
    // Subgraph properties are not directly iterable; serialize the ones we
    // can reach is impossible without an accessor — expose via a stable
    // API: SubgraphAt carries no properties, so rely on GetSubgraphProperty
    // being keyed. We add a properties accessor below.
    AppendProperties(&line, hg.SubgraphProperties(s), &*pool_remap);
    out += line + "\n";
    // Memberships: γ is interval-based; enumerate raw member records.
    for (const auto& member : hg.SubgraphMemberRecords(s)) {
      out += "M " + std::to_string(s) + " " +
             (member.element.kind == ElementRef::Kind::kVertex ? "V" : "E") +
             " " + std::to_string(member.element.id) + " " +
             FormatInterval(member.membership) + "\n";
    }
  }
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", Crc32(out));
  out += std::string("CHECKSUM ") + crc + "\n";
  // Serialization is rare and heavy; the process-global registry keeps its
  // tally without threading a registry through every call site.
  auto& registry = obs::MetricsRegistry::Global();
  registry.counter("serialize.saves")->Increment();
  registry.counter("serialize.bytes_saved")->Add(out.size());
  return out;
}

Result<HyGraph> Deserialize(const std::string& text) {
  HyGraph hg;
  std::istringstream in(text);
  std::string line;
  size_t line_number = 0;
  bool saw_header = false;
  // Pooled-series fixup: properties referencing pool ids are collected and
  // re-attached after the P records are read.
  struct PendingRef {
    bool is_edge;
    uint64_t id;
    std::string key;
    SeriesId pool_id;
  };
  std::vector<PendingRef> pending_refs;
  std::map<SeriesId, ts::MultiSeries> pool;
  // Running CRC over every byte preceding the CHECKSUM trailer, matching
  // how Serialize computed it (each line + '\n').
  uint32_t crc_state = kCrc32Init;
  bool saw_checksum = false;

  while (std::getline(in, line)) {
    ++line_number;
    if (Trim(line).empty()) continue;
    if (saw_checksum) {
      return Status::Corruption("line " + std::to_string(line_number) +
                                ": data after CHECKSUM trailer");
    }
    Cursor cursor(line, line_number);
    auto kind = cursor.Next();
    if (!kind.ok()) return kind.status();
    if (*kind == "CHECKSUM") {
      if (!saw_header) return cursor.Fail("missing HYGRAPH header");
      auto stored = cursor.Next();
      if (!stored.ok()) return stored.status();
      const uint32_t expected =
          static_cast<uint32_t>(std::strtoul(stored->c_str(), nullptr, 16));
      if (Crc32Finalize(crc_state) != expected) {
        return cursor.Fail("checksum mismatch: file is corrupt");
      }
      saw_checksum = true;
      continue;
    }
    crc_state = Crc32Update(crc_state, line.data(), line.size());
    crc_state = Crc32Update(crc_state, "\n", 1);
    if (!saw_header) {
      if (*kind != "HYGRAPH") {
        return cursor.Fail("missing HYGRAPH header");
      }
      auto version = cursor.NextUint();
      if (!version.ok()) return version.status();
      if (*version != 1) return cursor.Fail("unsupported format version");
      saw_header = true;
      continue;
    }
    if (*kind == "V") {
      auto id = cursor.NextUint();
      if (!id.ok()) return id.status();
      auto flavor = cursor.Next();
      if (!flavor.ok()) return flavor.status();
      if (*flavor == "PG") {
        auto validity = cursor.NextInterval();
        if (!validity.ok()) return validity.status();
        auto labels = cursor.NextLabels();
        if (!labels.ok()) return labels.status();
        auto props = cursor.NextProperties();
        if (!props.ok()) return props.status();
        // Strip series refs; re-attach after the pool loads.
        graph::PropertyMap static_props;
        for (auto& [key, value] : *props) {
          if (value.is_series_ref()) {
            pending_refs.push_back(
                PendingRef{false, *id, key, value.AsSeriesId()});
          } else {
            static_props[key] = value;
          }
        }
        auto v = hg.AddPgVertex(std::move(*labels), std::move(static_props),
                                *validity);
        if (!v.ok()) return v.status();
        if (*v != *id) return cursor.Fail("non-sequential vertex id");
      } else if (*flavor == "TS") {
        auto labels = cursor.NextLabels();
        if (!labels.ok()) return labels.status();
        auto props = cursor.NextProperties();
        if (!props.ok()) return props.status();
        auto series = cursor.NextMultiSeries();
        if (!series.ok()) return series.status();
        auto v = hg.AddTsVertex(std::move(*labels), std::move(*series));
        if (!v.ok()) return v.status();
        if (*v != *id) return cursor.Fail("non-sequential vertex id");
        for (auto& [key, value] : *props) {
          if (value.is_series_ref()) {
            pending_refs.push_back(
                PendingRef{false, *id, key, value.AsSeriesId()});
          } else {
            HYGRAPH_RETURN_IF_ERROR(hg.SetVertexProperty(*v, key, value));
          }
        }
      } else {
        return cursor.Fail("unknown vertex flavor '" + *flavor + "'");
      }
    } else if (*kind == "E") {
      auto id = cursor.NextUint();
      if (!id.ok()) return id.status();
      auto flavor = cursor.Next();
      if (!flavor.ok()) return flavor.status();
      auto src = cursor.NextUint();
      if (!src.ok()) return src.status();
      auto dst = cursor.NextUint();
      if (!dst.ok()) return dst.status();
      auto label = cursor.NextDecoded();
      if (!label.ok()) return label.status();
      if (*flavor == "PG") {
        auto validity = cursor.NextInterval();
        if (!validity.ok()) return validity.status();
        auto props = cursor.NextProperties();
        if (!props.ok()) return props.status();
        graph::PropertyMap static_props;
        for (auto& [key, value] : *props) {
          if (value.is_series_ref()) {
            pending_refs.push_back(
                PendingRef{true, *id, key, value.AsSeriesId()});
          } else {
            static_props[key] = value;
          }
        }
        auto e = hg.AddPgEdge(*src, *dst, std::move(*label),
                              std::move(static_props), *validity);
        if (!e.ok()) return e.status();
        if (*e != *id) return cursor.Fail("non-sequential edge id");
      } else if (*flavor == "TS") {
        auto props = cursor.NextProperties();
        if (!props.ok()) return props.status();
        auto series = cursor.NextMultiSeries();
        if (!series.ok()) return series.status();
        auto e = hg.AddTsEdge(*src, *dst, std::move(*label),
                              std::move(*series));
        if (!e.ok()) return e.status();
        if (*e != *id) return cursor.Fail("non-sequential edge id");
        for (auto& [key, value] : *props) {
          if (value.is_series_ref()) {
            pending_refs.push_back(
                PendingRef{true, *id, key, value.AsSeriesId()});
          } else {
            HYGRAPH_RETURN_IF_ERROR(hg.SetEdgeProperty(*e, key, value));
          }
        }
      } else {
        return cursor.Fail("unknown edge flavor '" + *flavor + "'");
      }
    } else if (*kind == "P") {
      auto id = cursor.NextUint();
      if (!id.ok()) return id.status();
      auto series = cursor.NextMultiSeries();
      if (!series.ok()) return series.status();
      pool.emplace(*id, std::move(*series));
    } else if (*kind == "S") {
      auto id = cursor.NextUint();
      if (!id.ok()) return id.status();
      auto validity = cursor.NextInterval();
      if (!validity.ok()) return validity.status();
      auto labels = cursor.NextLabels();
      if (!labels.ok()) return labels.status();
      auto props = cursor.NextProperties();
      if (!props.ok()) return props.status();
      auto s = hg.CreateSubgraph(std::move(*labels), std::move(*props),
                                 *validity);
      if (!s.ok()) return s.status();
      if (*s != *id) return cursor.Fail("non-sequential subgraph id");
    } else if (*kind == "M") {
      auto s = cursor.NextUint();
      if (!s.ok()) return s.status();
      auto element_kind = cursor.Next();
      if (!element_kind.ok()) return element_kind.status();
      auto element_id = cursor.NextUint();
      if (!element_id.ok()) return element_id.status();
      auto membership = cursor.NextInterval();
      if (!membership.ok()) return membership.status();
      const ElementRef ref = *element_kind == "V"
                                 ? ElementRef::OfVertex(*element_id)
                                 : ElementRef::OfEdge(*element_id);
      HYGRAPH_RETURN_IF_ERROR(hg.AddToSubgraph(*s, ref, *membership));
    } else {
      return cursor.Fail("unknown record kind '" + *kind + "'");
    }
  }
  if (!saw_header) {
    return Status::Corruption("empty input (no HYGRAPH header)");
  }
  // Re-attach pooled series properties in canonical (pool-id) order so the
  // rebuilt pool gets the same ids.
  std::sort(pending_refs.begin(), pending_refs.end(),
            [](const PendingRef& a, const PendingRef& b) {
              return a.pool_id < b.pool_id;
            });
  for (const PendingRef& ref : pending_refs) {
    auto it = pool.find(ref.pool_id);
    if (it == pool.end()) {
      return Status::Corruption("property references missing pooled series " +
                                std::to_string(ref.pool_id));
    }
    if (ref.is_edge) {
      auto sid = hg.SetEdgeSeriesProperty(ref.id, ref.key, it->second);
      if (!sid.ok()) return sid.status();
    } else {
      auto sid = hg.SetVertexSeriesProperty(ref.id, ref.key, it->second);
      if (!sid.ok()) return sid.status();
    }
  }
  HYGRAPH_RETURN_IF_ERROR(hg.Validate());
  auto& registry = obs::MetricsRegistry::Global();
  registry.counter("serialize.loads")->Increment();
  registry.counter("serialize.bytes_loaded")->Add(text.size());
  return hg;
}

Status SaveToFile(const HyGraph& hg, const std::string& path) {
  auto text = Serialize(hg);
  if (!text.ok()) return text.status();
  // Write-temp + fsync + atomic rename: a crash or full disk mid-write can
  // only ever leave the temp file behind, never a truncated `path`.
  const std::string tmp = path + ".tmp";
  // core sits below the storage layer, so it cannot reach storage::Env.
  std::FILE* f = std::fopen(  // NOLINT(hygraph-raw-file-io)
      tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open '" + tmp +
                           "' for writing: " + std::strerror(errno));
  }
  const bool wrote =
      std::fwrite(text->data(), 1, text->size(), f) == text->size() &&
      std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return Status::IOError("write to '" + tmp + "' failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("rename '" + tmp + "' -> '" + path +
                           "' failed: " + std::strerror(errno));
  }
  return Status::OK();
}

Result<HyGraph> LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);  // NOLINT(hygraph-raw-file-io)
  if (!in) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IOError("read from '" + path + "' failed");
  return Deserialize(buffer.str());
}

}  // namespace hygraph::core
