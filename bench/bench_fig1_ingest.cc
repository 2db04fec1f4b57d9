// Figure 1's architectural contrast, measured from the write path: the
// paper notes that storing each timestamp/value pair as a separate Neo4j
// property "significantly increases the number of properties, resulting in
// high write overhead". This bench ingests the same samples into both
// architectures and reports per-sample ingestion cost as the series grow —
// the all-in-graph cost climbs with property-map size while the hypertable
// stays flat — and then proves both engines answer the same HGQL query
// identically (the unified-model contract).

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "query/executor.h"
#include "storage/all_in_graph.h"
#include "storage/polyglot.h"

int main() {
  using namespace hygraph;

  constexpr size_t kStations = 20;
  constexpr Duration kStep = kMinute;
  const std::vector<size_t> batches = {1000, 1000, 2000, 4000, 8000};

  bench::PrintHeader(
      "Figure 1: ingestion cost, all-in-graph (red) vs polyglot (green)");

  storage::AllInGraphStore red;
  storage::PolyglotStore green;
  std::vector<graph::VertexId> red_ids;
  std::vector<graph::VertexId> green_ids;
  for (size_t i = 0; i < kStations; ++i) {
    graph::PropertyMap props;
    props["name"] = Value("S" + std::to_string(i));
    red_ids.push_back(red.mutable_topology()->AddVertex({"Station"}, props));
    green_ids.push_back(
        green.mutable_topology()->AddVertex({"Station"}, props));
  }

  std::printf("%18s | %22s | %22s\n", "series length", "all-in-graph ns/sample",
              "polyglot ns/sample");
  std::printf("%s\n", std::string(68, '-').c_str());

  size_t written = 0;
  for (size_t batch : batches) {
    const size_t begin = written;
    const double red_ms = bench::TimeMs([&] {
      for (size_t s = 0; s < kStations; ++s) {
        for (size_t i = 0; i < batch; ++i) {
          (void)red.AppendSample(
              {true, red_ids[s], "bikes"},
              static_cast<Timestamp>(begin + i) * kStep,
              std::sin(static_cast<double>(begin + i) * 0.01));
        }
      }
    });
    const double green_ms = bench::TimeMs([&] {
      for (size_t s = 0; s < kStations; ++s) {
        for (size_t i = 0; i < batch; ++i) {
          (void)green.AppendSample(
              {true, green_ids[s], "bikes"},
              static_cast<Timestamp>(begin + i) * kStep,
              std::sin(static_cast<double>(begin + i) * 0.01));
        }
      }
    });
    written += batch;
    const double total = static_cast<double>(batch * kStations);
    std::printf("%8zu -> %6zu | %19.0f ns | %19.0f ns\n", begin, written,
                red_ms * 1e6 / total, green_ms * 1e6 / total);
  }

  // Unified-model contract: identical answers from both architectures.
  const std::string query =
      "MATCH (s:Station) RETURN s.name AS n, ts_avg(s.bikes, 0, " +
      std::to_string(static_cast<Timestamp>(written) * kStep) +
      ") AS a ORDER BY n";
  auto from_red = query::Execute(red, query);
  auto from_green = query::Execute(green, query);
  if (!from_red.ok() || !from_green.ok()) {
    std::fprintf(stderr, "query failed\n");
    return 1;
  }
  bool consistent = from_red->row_count() == from_green->row_count();
  for (size_t r = 0; consistent && r < from_red->row_count(); ++r) {
    consistent = from_red->rows[r][0] == from_green->rows[r][0] &&
                 std::abs(from_red->rows[r][1].AsDouble() -
                          from_green->rows[r][1].AsDouble()) < 1e-9;
  }
  std::printf("\nconsistency: %zu rows from each engine -> %s\n",
              from_red->row_count(),
              consistent ? "IDENTICAL" : "MISMATCH (bug!)");
  std::printf("read check: same ts_avg over %zu samples/station\n", written);
  return consistent ? 0 : 1;
}
