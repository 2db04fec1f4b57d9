// Quickstart: build a tiny HyGraph by hand, exercise the model's core
// ideas (PG + TS elements, series properties, subgraphs, validation), and
// run an HGQL query against a polyglot store.
//
//   build:  cmake -B build -G Ninja && cmake --build build --target quickstart
//   run:    ./build/examples/quickstart

#include <cstdio>

#include "core/builder.h"
#include "query/executor.h"
#include "storage/polyglot.h"

using namespace hygraph;

namespace {

ts::MultiSeries MakeSeries(const std::string& name,
                           std::initializer_list<double> values) {
  ts::MultiSeries ms(name, {"value"});
  Timestamp t = 1700000000000;
  for (double v : values) {
    (void)ms.AppendRow(t, {v});
    t += kHour;
  }
  return ms;
}

}  // namespace

int main() {
  std::printf("== HyGraph quickstart ==\n\n");

  // 1. Build a HyGraph: users and merchants are property-graph vertices,
  //    the credit card is a *time-series vertex* — the entity IS its
  //    balance series (the paper's first-class-citizen principle).
  core::HyGraphBuilder builder;
  builder
      .PgVertex("alice", {"User"}, {{"name", Value("Alice")}})
      .PgVertex("bob", {"User"}, {{"name", Value("Bob")}})
      .TsVertex("card_a", {"CreditCard"},
                MakeSeries("balance", {1200, 1150, 980, 310, 290, 250}))
      .PgVertex("grocer", {"Merchant"}, {{"name", Value("Grocer")}})
      .PgEdge("alice", "card_a", "USES")
      .TsEdge("card_a", "grocer", "TX",
              MakeSeries("amount", {50, 170, 670, 20, 40}))
      .PgEdge("alice", "bob", "KNOWS");
  auto hg = builder.Build();
  if (!hg.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 hg.status().ToString().c_str());
    return 1;
  }
  std::printf("model: %zu vertices (%zu PG + %zu TS), %zu edges\n",
              hg->VertexCount(), hg->PgVertices().size(),
              hg->TsVertices().size(), hg->EdgeCount());

  // 2. R2 consistency: the instance validates as a whole.
  const Status valid = hg->Validate();
  std::printf("validate: %s\n", valid.ToString().c_str());

  // 3. δ in action: read the card's series straight off the vertex.
  const graph::VertexId card = hg->TsVertices().front();
  const ts::MultiSeries& balance = **hg->VertexSeries(card);
  std::printf("card balance: %zu samples, last value %.0f\n\n",
              balance.size(), balance.at(balance.size() - 1, 0));

  // 4. Query through a storage engine: load a small station world into the
  //    polyglot store and ask a hybrid question in HGQL.
  storage::PolyglotStore store;
  graph::PropertyGraph* g = store.mutable_topology();
  const Timestamp t0 = 1700000000000;
  for (int i = 0; i < 4; ++i) {
    const graph::VertexId v = g->AddVertex(
        {"Station"}, {{"name", Value("S" + std::to_string(i))}});
    for (int h = 0; h < 48; ++h) {
      (void)store.AppendSample({true, v, "bikes"}, t0 + h * kHour,
                               10.0 + i * 5 + (h % 12));
    }
  }
  const std::string query =
      "MATCH (s:Station) "
      "RETURN s.name AS station, ts_avg(s.bikes, " +
      std::to_string(t0) + ", " + std::to_string(t0 + 48 * kHour) +
      ") AS avg_bikes ORDER BY avg_bikes DESC LIMIT 3";
  auto result = query::Execute(store, query);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("HGQL> %s\n\n%s\n", query.c_str(),
              result->ToString().c_str());
  return valid.ok() ? 0 : 1;
}
