#ifndef UBERRT_WORKLOAD_GENERATORS_H_
#define UBERRT_WORKLOAD_GENERATORS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/value.h"
#include "stream/admission.h"
#include "stream/message.h"
#include "stream/message_bus.h"

namespace uberrt::workload {

/// Share of open-loop traffic produced at each priority class; whatever is
/// left after critical + important is best-effort. Drives the capacity
/// layer's load shedding (allactive/capacity.h).
struct PriorityMix {
  double critical = 0.1;
  double important = 0.3;
};

/// Outcome tally of one open-loop production burst. Open-loop means the
/// generator never blocks or retries: a rejection is recorded and the next
/// event is offered anyway, like real traffic that keeps arriving during an
/// overload or failover drill.
struct OpenLoopTick {
  int64_t attempted = 0;
  int64_t acked = 0;
  /// Sheds (kResourceExhausted) by priority class, indexed by
  /// stream::Priority.
  std::array<int64_t, stream::kNumPriorities> shed{};
  /// kUnavailable rejections (region down or draining) and any other
  /// produce failure — traffic the caller should re-route, not back off.
  int64_t unavailable = 0;
};

/// Imperfection knobs shared by all generators — the real-world behaviours
/// the paper's infrastructure must absorb: late arrivals (out-of-order event
/// time), duplicates (at-least-once delivery upstream) and corrupt payloads
/// (the DLQ/Chaperone stories).
struct NoiseOptions {
  double late_probability = 0.0;
  int64_t max_lateness_ms = 60'000;
  double duplicate_probability = 0.0;
  double corrupt_probability = 0.0;
};

/// Ride trip events (surge pricing input, Section 5.1): skewed hexagon
/// geofences, fares, driver/rider ids and trip status transitions.
class TripEventGenerator {
 public:
  struct Options {
    int64_t num_hexes = 50;
    double hex_skew = 1.1;  ///< zipf exponent: a few hot geofences
    int64_t num_drivers = 500;
    int64_t num_riders = 2000;
    TimestampMs start_time_ms = 0;
    int64_t time_step_ms = 100;  ///< event-time spacing
    NoiseOptions noise;
  };

  explicit TripEventGenerator(Options options, uint64_t seed = 42);

  static RowSchema Schema();

  /// Next event row: [trip_id, hex, driver_id, rider_id, status, fare, ts].
  Row NextRow();

  /// Produces `count` rows (encoded, keyed by hex, `uid` header set) to the
  /// topic through a BatchingProducer flushed before returning, applying
  /// the noise options. Returns rows produced (duplicates count extra).
  Result<int64_t> Produce(stream::MessageBus* bus, const std::string& topic,
                          int64_t count);

  /// Open-loop drive for failover drills: offers `count` events, each sent
  /// alone (stream::ProduceOne) at a priority drawn from `mix` and routed
  /// per event via `route(key)` — which is how the drill harness points
  /// traffic at whatever region the coordinator's split says. A nullptr
  /// route or failed produce is tallied, never retried (open loop: riders
  /// keep requesting trips whether or not the region is melting).
  /// `on_ack` fires for every acked message (uid ledger for loss audits).
  OpenLoopTick ProduceOpenLoop(
      const std::function<stream::MessageBus*(const std::string& key)>& route,
      const std::string& topic, int64_t count, const PriorityMix& mix,
      const std::function<void(const stream::Message&, stream::Priority)>& on_ack =
          nullptr);

  TimestampMs last_event_time() const { return current_time_; }

 private:
  Options options_;
  Rng rng_;
  int64_t next_trip_id_ = 0;
  TimestampMs current_time_;
};

/// UberEats order events (restaurant manager / ops automation input,
/// Sections 5.2/5.4).
class EatsOrderGenerator {
 public:
  struct Options {
    int64_t num_restaurants = 200;
    double restaurant_skew = 1.1;
    int64_t num_eaters = 5000;
    int64_t num_couriers = 800;
    std::vector<std::string> cities = {"amsterdam", "paris", "london", "berlin"};
    std::vector<std::string> items = {"pizza", "burger", "sushi",
                                      "salad", "tacos",  "noodles"};
    TimestampMs start_time_ms = 0;
    int64_t time_step_ms = 200;
    NoiseOptions noise;
  };

  explicit EatsOrderGenerator(Options options, uint64_t seed = 43);

  static RowSchema Schema();

  /// [order_id, restaurant_id, eater_id, courier_id, city, item, total,
  ///  status, ts]
  Row NextRow();

  Result<int64_t> Produce(stream::MessageBus* bus, const std::string& topic,
                          int64_t count);

  TimestampMs last_event_time() const { return current_time_; }

 private:
  Options options_;
  Rng rng_;
  int64_t next_order_id_ = 0;
  TimestampMs current_time_;
};

/// ML prediction / observed-outcome pairs (real-time prediction monitoring,
/// Section 5.3). Predictions and outcomes are separate streams joined by
/// prediction_id downstream.
class PredictionGenerator {
 public:
  struct Options {
    int64_t num_models = 20;
    TimestampMs start_time_ms = 0;
    int64_t time_step_ms = 50;
    int64_t outcome_delay_ms = 2000;  ///< label arrives after the prediction
    double model_bias = 0.05;         ///< systematic error injected per model
  };

  explicit PredictionGenerator(Options options, uint64_t seed = 44);

  static RowSchema PredictionSchema();
  static RowSchema OutcomeSchema();

  struct Pair {
    Row prediction;  ///< [prediction_id, model_id, predicted, ts]
    Row outcome;     ///< [prediction_id, model_id, actual, ts]
  };
  Pair NextPair();

  /// Produces `count` pairs to the two topics (keyed by prediction id).
  Result<int64_t> ProducePairs(stream::MessageBus* bus,
                               const std::string& predictions_topic,
                               const std::string& outcomes_topic, int64_t count);

 private:
  Options options_;
  Rng rng_;
  int64_t next_id_ = 0;
  TimestampMs current_time_;
};

}  // namespace uberrt::workload

#endif  // UBERRT_WORKLOAD_GENERATORS_H_
