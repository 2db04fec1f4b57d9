#ifndef HYGRAPH_CORE_SERIALIZE_H_
#define HYGRAPH_CORE_SERIALIZE_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/hygraph.h"

namespace hygraph::core {

/// Text serialization of a HyGraph instance — a line-oriented format so
/// instances survive process restarts, can be shipped between tools, and
/// diff cleanly in version control. One record per line:
///
///   HYGRAPH 1                      header + format version
///   V <id> PG <validity> <labels> <properties>
///   V <id> TS <labels> <properties> SERIES <multiseries>
///   E <id> PG <src> <dst> <label> <validity> <properties>
///   E <id> TS <src> <dst> <label> <properties> SERIES <multiseries>
///   P <series-id> <multiseries>    pooled series (series properties)
///   S <id> <validity> <labels> <properties>
///   M <subgraph-id> V|E <element-id> <interval>
///   CHECKSUM <crc32-hex>           trailer over every preceding byte
///
/// Serialize always ends the document with the CHECKSUM record (CRC-32 of
/// all preceding lines, each terminated by '\n'). Deserialize verifies it
/// when present — a mismatch, or any record after it, is kCorruption — so
/// truncation and single-bit rot are detected instead of silently parsed.
/// Checksum-less input (hand-written fixtures, pre-trailer files) still
/// loads.
///
/// Fields are space-separated; strings are percent-encoded so values may
/// contain spaces or newlines. Ids are preserved exactly, so references
/// (SeriesRef properties, subgraph members) remain valid after a round
/// trip and Serialize(Deserialize(x)) == x.
///
/// Not a paper artifact per se, but required for a usable system: the
/// paper's architecture assumes instances can be persisted and exchanged
/// between the storage layer and analysis tools.

/// Renders the instance to the textual format. Requires dense ids.
Result<std::string> Serialize(const HyGraph& hg);

/// The format carries no id maps, so it needs vertex and edge ids 0..n-1;
/// kFailedPrecondition otherwise (after a removal).
Status CheckDenseIds(const graph::PropertyGraph& graph);

/// Parses an instance from the textual format. Fails with a line-numbered
/// error on malformed input; validates the result before returning.
Result<HyGraph> Deserialize(const std::string& text);

/// File convenience wrappers. SaveToFile is atomic and durable: it writes
/// `path + ".tmp"`, fsyncs, then renames over `path`, reporting any write,
/// sync, close, or rename failure as kIOError (a crashed or full disk never
/// leaves a half-written `path` behind). LoadFromFile verifies the
/// CHECKSUM trailer via Deserialize.
Status SaveToFile(const HyGraph& hg, const std::string& path);
Result<HyGraph> LoadFromFile(const std::string& path);

/// Percent-encoding helpers (exposed for tests).
std::string EncodeField(const std::string& raw);
Result<std::string> DecodeField(const std::string& encoded);

// -- field codec --------------------------------------------------------------
//
// The fields this format is built from. storage::DurableStore writes and
// parses its WAL records with them too, so the snapshot and the log share
// one codec and one fuzzed parser.

/// Round-trippable double formatting ("%.17g").
std::string FormatDouble(double d);

/// Tagged value field: n, b:0|1, i:<int>, d:<double>, s:<encoded string>
/// or ts:<series id>. SeriesRef ids are remapped through `pool_remap` when
/// it is non-null and written literally otherwise.
std::string ValueToField(
    const Value& value,
    const std::map<SeriesId, SeriesId>* pool_remap = nullptr);
/// Inverse of ValueToField; ts:<id> is taken literally.
Result<Value> ValueFromField(const std::string& field);

/// Appends " L <count> <label>..." to `out`.
void AppendLabels(std::string* out, const std::vector<std::string>& labels);
/// Appends " P <count> <key> <value field>..." to `out`.
void AppendProperties(
    std::string* out, const graph::PropertyMap& props,
    const std::map<SeriesId, SeriesId>* pool_remap = nullptr);

/// Token cursor over one line: fields are split on spaces (runs of spaces
/// count as one), and every error is kCorruption prefixed with
/// "line <line>: ".
class Cursor {
 public:
  Cursor(const std::string& line, size_t line_number);

  Result<std::string> Next();
  Result<int64_t> NextInt();
  Result<uint64_t> NextUint();
  Result<double> NextDouble();
  Result<std::string> NextDecoded();
  Result<Value> NextValue();
  Status Expect(const std::string& literal);
  Status Fail(const std::string& msg) const;

  Result<Interval> NextInterval();
  Result<std::vector<std::string>> NextLabels();
  Result<graph::PropertyMap> NextProperties();
  Result<ts::MultiSeries> NextMultiSeries();

 private:
  std::vector<std::string> tokens_;
  size_t pos_ = 0;
  size_t line_;
};

}  // namespace hygraph::core

#endif  // HYGRAPH_CORE_SERIALIZE_H_
