#include "workloads/bike_sharing.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace hygraph::workloads {

namespace {
constexpr double kPi = 3.14159265358979323846;
}  // namespace

Result<BikeSharingDataset> GenerateBikeSharing(
    const BikeSharingConfig& config) {
  if (config.stations == 0 || config.districts == 0 || config.days == 0) {
    return Status::InvalidArgument(
        "stations, districts and days must be positive");
  }
  if (config.sample_interval <= 0) {
    return Status::InvalidArgument("sample_interval must be positive");
  }
  BikeSharingDataset dataset;
  dataset.config = config;
  Rng rng(config.seed);

  // District centers on a ring; stations scatter around their center.
  std::vector<std::pair<double, double>> centers;
  for (size_t d = 0; d < config.districts; ++d) {
    const double angle =
        2.0 * kPi * static_cast<double>(d) / static_cast<double>(config.districts);
    centers.emplace_back(10000.0 + 6000.0 * std::cos(angle),
                         10000.0 + 6000.0 * std::sin(angle));
  }

  for (size_t i = 0; i < config.stations; ++i) {
    StationRecord station;
    station.name = "S" + std::to_string(i);
    station.district = static_cast<int64_t>(i % config.districts);
    const auto [cx, cy] = centers[static_cast<size_t>(station.district)];
    station.x = cx + rng.NextGaussian() * 800.0;
    station.y = cy + rng.NextGaussian() * 800.0;
    station.capacity = rng.NextInRange(15, 60);
    dataset.stations.push_back(std::move(station));
  }

  // Availability series: base load + daily sinusoid with district phase +
  // weekly modulation + noise, clamped to [0, capacity] and rounded — a
  // station holds a whole number of bikes.
  const size_t samples = dataset.samples_per_station();
  for (StationRecord& station : dataset.stations) {
    const double base = static_cast<double>(station.capacity) * 0.5;
    const double amplitude = static_cast<double>(station.capacity) * 0.3;
    const double phase = 2.0 * kPi *
                         static_cast<double>(station.district) /
                         static_cast<double>(config.districts);
    station.bikes.set_name(station.name + ".bikes");
    for (size_t s = 0; s < samples; ++s) {
      const Timestamp t =
          config.start_time + static_cast<Duration>(s) * config.sample_interval;
      const double day_fraction =
          static_cast<double>(t % kDay) / static_cast<double>(kDay);
      const double week_fraction =
          static_cast<double>(t % (7 * kDay)) / static_cast<double>(7 * kDay);
      double value = base +
                     amplitude * std::sin(2.0 * kPi * day_fraction + phase) +
                     0.15 * amplitude * std::sin(2.0 * kPi * week_fraction) +
                     rng.NextGaussian() * 1.5;
      value = std::round(
          std::clamp(value, 0.0, static_cast<double>(station.capacity)));
      HYGRAPH_RETURN_IF_ERROR(station.bikes.Append(t, value));
    }
  }

  // Gravity-model trips: prefer big, nearby stations.
  for (size_t src = 0; src < config.stations; ++src) {
    std::vector<std::pair<double, size_t>> weights;
    for (size_t dst = 0; dst < config.stations; ++dst) {
      if (dst == src) continue;
      const double dx = dataset.stations[src].x - dataset.stations[dst].x;
      const double dy = dataset.stations[src].y - dataset.stations[dst].y;
      const double dist = std::sqrt(dx * dx + dy * dy) + 100.0;
      const double w =
          static_cast<double>(dataset.stations[dst].capacity) / (dist * dist);
      weights.emplace_back(w, dst);
    }
    std::sort(weights.begin(), weights.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    const size_t fanout = std::min(config.trips_per_station, weights.size());
    for (size_t k = 0; k < fanout; ++k) {
      TripRecord trip;
      trip.src = src;
      trip.dst = weights[k].second;
      const double dx = dataset.stations[src].x -
                        dataset.stations[trip.dst].x;
      const double dy = dataset.stations[src].y -
                        dataset.stations[trip.dst].y;
      trip.distance = std::sqrt(dx * dx + dy * dy);
      trip.daily_trips.set_name(dataset.stations[src].name + "->" +
                                dataset.stations[trip.dst].name);
      for (size_t day = 0; day < config.days; ++day) {
        const Timestamp t =
            config.start_time + static_cast<Duration>(day) * kDay;
        const double mean_trips = 20.0 * weights[k].first /
                                  (weights.front().first + 1e-9);
        // Rounded like the availability series: trip totals are counts.
        HYGRAPH_RETURN_IF_ERROR(trip.daily_trips.Append(
            t, std::round(std::max(0.0, mean_trips + rng.NextGaussian() * 2.0))));
      }
      dataset.trips.push_back(std::move(trip));
    }
  }
  return dataset;
}

Result<std::vector<graph::VertexId>> LoadIntoBackend(
    const BikeSharingDataset& dataset, query::QueryBackend* backend) {
  graph::PropertyGraph* g = backend->mutable_topology();
  std::vector<graph::VertexId> station_ids;
  station_ids.reserve(dataset.stations.size());
  for (const StationRecord& station : dataset.stations) {
    graph::PropertyMap props;
    props["name"] = station.name;
    props["district"] = station.district;
    props["capacity"] = station.capacity;
    props["x"] = station.x;
    props["y"] = station.y;
    station_ids.push_back(g->AddVertex({"Station"}, std::move(props)));
  }
  for (const StationRecord& station : dataset.stations) {
    const query::SeriesSlot slot{
        true, station_ids[&station - dataset.stations.data()], "bikes"};
    for (const ts::Sample& s : station.bikes.samples()) {
      HYGRAPH_RETURN_IF_ERROR(backend->AppendSample(slot, s.t, s.value));
    }
  }
  for (const TripRecord& trip : dataset.trips) {
    graph::PropertyMap props;
    props["distance"] = trip.distance;
    auto e = g->AddEdge(station_ids[trip.src], station_ids[trip.dst], "TRIP",
                        std::move(props));
    if (!e.ok()) return e.status();
    const query::SeriesSlot slot{false, *e, "trips"};
    for (const ts::Sample& s : trip.daily_trips.samples()) {
      HYGRAPH_RETURN_IF_ERROR(backend->AppendSample(slot, s.t, s.value));
    }
  }
  return station_ids;
}

Result<core::HyGraph> ToHyGraph(const BikeSharingDataset& dataset) {
  core::HyGraph hg;
  std::vector<graph::VertexId> station_ids;
  for (const StationRecord& station : dataset.stations) {
    graph::PropertyMap props;
    props["name"] = station.name;
    props["district"] = station.district;
    props["capacity"] = station.capacity;
    props["x"] = station.x;
    props["y"] = station.y;
    auto v = hg.AddPgVertex({"Station"}, std::move(props));
    if (!v.ok()) return v.status();
    ts::MultiSeries ms(station.name + ".bikes", {"bikes"});
    for (const ts::Sample& s : station.bikes.samples()) {
      HYGRAPH_RETURN_IF_ERROR(ms.AppendRow(s.t, {s.value}));
    }
    auto sid = hg.SetVertexSeriesProperty(*v, "history", std::move(ms));
    if (!sid.ok()) return sid.status();
    station_ids.push_back(*v);
  }
  for (const TripRecord& trip : dataset.trips) {
    ts::MultiSeries ms(trip.daily_trips.name(), {"trips"});
    for (const ts::Sample& s : trip.daily_trips.samples()) {
      HYGRAPH_RETURN_IF_ERROR(ms.AppendRow(s.t, {s.value}));
    }
    auto e = hg.AddTsEdge(station_ids[trip.src], station_ids[trip.dst],
                          "TRIP", std::move(ms));
    if (!e.ok()) return e.status();
    HYGRAPH_RETURN_IF_ERROR(
        hg.SetEdgeProperty(*e, "distance", Value(trip.distance)));
  }
  return hg;
}

}  // namespace hygraph::workloads
