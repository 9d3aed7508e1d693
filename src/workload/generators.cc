#include "workload/generators.h"

#include "stream/producer.h"

namespace uberrt::workload {

namespace {

const char* kTripStatuses[] = {"requested", "accepted", "started", "completed",
                               "canceled"};

stream::Message RowMessage(const Row& row, const std::string& key,
                           TimestampMs event_time, const std::string& uid) {
  stream::Message message;
  message.key = key;
  message.value = EncodeRow(row);
  message.timestamp = event_time;
  message.headers[stream::kHeaderUid] = uid;
  return message;
}

/// Buffers one generated event (plus a noise duplicate); returns how many
/// records it buffered.
Result<int64_t> ProduceWithNoise(stream::BatchingProducer* producer, const Row& row,
                                 const std::string& key, TimestampMs event_time,
                                 const std::string& uid, const NoiseOptions& noise,
                                 Rng* rng) {
  stream::Message message = RowMessage(row, key, event_time, uid);
  message.headers[stream::kHeaderService] = "workload-gen";
  if (noise.corrupt_probability > 0 && rng->Chance(noise.corrupt_probability)) {
    message.value = "corrupt:" + rng->AlphaString(8);
  }
  UBERRT_RETURN_IF_ERROR(producer->Produce(message));
  if (noise.duplicate_probability > 0 && rng->Chance(noise.duplicate_probability)) {
    UBERRT_RETURN_IF_ERROR(producer->Produce(message));
    return 2;
  }
  return 1;
}

}  // namespace

// --- TripEventGenerator ------------------------------------------------------

TripEventGenerator::TripEventGenerator(Options options, uint64_t seed)
    : options_(options), rng_(seed), current_time_(options.start_time_ms) {}

RowSchema TripEventGenerator::Schema() {
  return RowSchema({{"trip_id", ValueType::kInt},
                    {"hex", ValueType::kString},
                    {"driver_id", ValueType::kInt},
                    {"rider_id", ValueType::kInt},
                    {"status", ValueType::kString},
                    {"fare", ValueType::kDouble},
                    {"ts", ValueType::kInt}});
}

Row TripEventGenerator::NextRow() {
  current_time_ += options_.time_step_ms;
  TimestampMs event_time = current_time_;
  if (options_.noise.late_probability > 0 &&
      rng_.Chance(options_.noise.late_probability)) {
    event_time -= rng_.Uniform(1, options_.noise.max_lateness_ms);
    if (event_time < 0) event_time = 0;
  }
  std::string hex = "hex" + std::to_string(rng_.Zipf(options_.num_hexes,
                                                     options_.hex_skew));
  double fare = std::max(2.5, rng_.Gaussian(18.0, 7.0));
  return Row{Value(next_trip_id_++),
             Value(hex),
             Value(rng_.Uniform(0, options_.num_drivers - 1)),
             Value(rng_.Uniform(0, options_.num_riders - 1)),
             Value(std::string(kTripStatuses[rng_.Uniform(0, 4)])),
             Value(fare),
             Value(static_cast<int64_t>(event_time))};
}

Result<int64_t> TripEventGenerator::Produce(stream::MessageBus* bus,
                                            const std::string& topic, int64_t count) {
  stream::BatchingProducer producer(bus, topic);
  int64_t produced = 0;
  for (int64_t i = 0; i < count; ++i) {
    Row row = NextRow();
    std::string key = row[1].AsString();
    TimestampMs event_time = row[6].AsInt();
    std::string uid = "trip-" + std::to_string(row[0].AsInt());
    Result<int64_t> n =
        ProduceWithNoise(&producer, row, key, event_time, uid, options_.noise, &rng_);
    if (!n.ok()) return n;
    produced += n.value();
  }
  UBERRT_RETURN_IF_ERROR(producer.Flush());
  return produced;
}

OpenLoopTick TripEventGenerator::ProduceOpenLoop(
    const std::function<stream::MessageBus*(const std::string& key)>& route,
    const std::string& topic, int64_t count, const PriorityMix& mix,
    const std::function<void(const stream::Message&, stream::Priority)>& on_ack) {
  OpenLoopTick tick;
  for (int64_t i = 0; i < count; ++i) {
    Row row = NextRow();
    const std::string key = row[1].AsString();
    const TimestampMs event_time = row[6].AsInt();
    const std::string uid = "trip-" + std::to_string(row[0].AsInt());
    const double u = rng_.NextDouble();
    const stream::Priority priority =
        u < mix.critical ? stream::Priority::kCritical
        : u < mix.critical + mix.important ? stream::Priority::kImportant
                                           : stream::Priority::kBestEffort;
    stream::Message message = RowMessage(row, key, event_time, uid);
    message.headers[stream::kHeaderService] = "workload-gen";
    ++tick.attempted;
    stream::MessageBus* bus = route ? route(key) : nullptr;
    if (bus == nullptr) {
      ++tick.unavailable;
      continue;
    }
    Result<stream::ProduceResult> produced =
        stream::ProduceOne(bus, topic, message, stream::AckMode::kLeader, priority);
    if (produced.ok()) {
      ++tick.acked;
      if (on_ack) on_ack(message, priority);
    } else if (produced.status().code() == StatusCode::kResourceExhausted) {
      ++tick.shed[static_cast<size_t>(priority)];
    } else {
      ++tick.unavailable;
    }
  }
  return tick;
}

// --- EatsOrderGenerator ------------------------------------------------------

EatsOrderGenerator::EatsOrderGenerator(Options options, uint64_t seed)
    : options_(options), rng_(seed), current_time_(options.start_time_ms) {}

RowSchema EatsOrderGenerator::Schema() {
  return RowSchema({{"order_id", ValueType::kInt},
                    {"restaurant_id", ValueType::kInt},
                    {"eater_id", ValueType::kInt},
                    {"courier_id", ValueType::kInt},
                    {"city", ValueType::kString},
                    {"item", ValueType::kString},
                    {"total", ValueType::kDouble},
                    {"status", ValueType::kString},
                    {"ts", ValueType::kInt}});
}

Row EatsOrderGenerator::NextRow() {
  current_time_ += options_.time_step_ms;
  TimestampMs event_time = current_time_;
  if (options_.noise.late_probability > 0 &&
      rng_.Chance(options_.noise.late_probability)) {
    event_time -= rng_.Uniform(1, options_.noise.max_lateness_ms);
    if (event_time < 0) event_time = 0;
  }
  static const char* kOrderStatuses[] = {"placed", "preparing", "picked_up",
                                         "delivered", "abandoned"};
  double total = std::max(4.0, rng_.Gaussian(24.0, 10.0));
  return Row{Value(next_order_id_++),
             Value(rng_.Zipf(options_.num_restaurants, options_.restaurant_skew)),
             Value(rng_.Uniform(0, options_.num_eaters - 1)),
             Value(rng_.Uniform(0, options_.num_couriers - 1)),
             Value(rng_.Pick(options_.cities)),
             Value(rng_.Pick(options_.items)),
             Value(total),
             Value(std::string(kOrderStatuses[rng_.Uniform(0, 4)])),
             Value(static_cast<int64_t>(event_time))};
}

Result<int64_t> EatsOrderGenerator::Produce(stream::MessageBus* bus,
                                            const std::string& topic, int64_t count) {
  stream::BatchingProducer producer(bus, topic);
  int64_t produced = 0;
  for (int64_t i = 0; i < count; ++i) {
    Row row = NextRow();
    std::string key = row[1].ToString();  // restaurant id
    TimestampMs event_time = row[8].AsInt();
    std::string uid = "order-" + std::to_string(row[0].AsInt());
    Result<int64_t> n =
        ProduceWithNoise(&producer, row, key, event_time, uid, options_.noise, &rng_);
    if (!n.ok()) return n;
    produced += n.value();
  }
  UBERRT_RETURN_IF_ERROR(producer.Flush());
  return produced;
}

// --- PredictionGenerator -----------------------------------------------------

PredictionGenerator::PredictionGenerator(Options options, uint64_t seed)
    : options_(options), rng_(seed), current_time_(options.start_time_ms) {}

RowSchema PredictionGenerator::PredictionSchema() {
  return RowSchema({{"prediction_id", ValueType::kInt},
                    {"model_id", ValueType::kString},
                    {"predicted", ValueType::kDouble},
                    {"ts", ValueType::kInt}});
}

RowSchema PredictionGenerator::OutcomeSchema() {
  return RowSchema({{"prediction_id", ValueType::kInt},
                    {"model_id", ValueType::kString},
                    {"actual", ValueType::kDouble},
                    {"ts", ValueType::kInt}});
}

PredictionGenerator::Pair PredictionGenerator::NextPair() {
  current_time_ += options_.time_step_ms;
  int64_t id = next_id_++;
  int64_t model_index = rng_.Uniform(0, options_.num_models - 1);
  std::string model = "model" + std::to_string(model_index);
  double actual = rng_.NextDouble();
  // Each model has a deterministic bias so the monitoring pipeline has a
  // real signal to detect.
  double bias = options_.model_bias * static_cast<double>(model_index % 5);
  double predicted = actual + bias + rng_.Gaussian(0.0, 0.02);
  Pair pair;
  pair.prediction = {Value(id), Value(model), Value(predicted),
                     Value(static_cast<int64_t>(current_time_))};
  pair.outcome = {Value(id), Value(model), Value(actual),
                  Value(static_cast<int64_t>(current_time_ + options_.outcome_delay_ms))};
  return pair;
}

Result<int64_t> PredictionGenerator::ProducePairs(stream::MessageBus* bus,
                                                  const std::string& predictions_topic,
                                                  const std::string& outcomes_topic,
                                                  int64_t count) {
  stream::BatchingProducer predictions(bus, predictions_topic);
  stream::BatchingProducer outcomes(bus, outcomes_topic);
  for (int64_t i = 0; i < count; ++i) {
    Pair pair = NextPair();
    std::string key = pair.prediction[0].ToString();
    UBERRT_RETURN_IF_ERROR(predictions.Produce(RowMessage(
        pair.prediction, key, pair.prediction[3].AsInt(), "pred-" + key)));
    UBERRT_RETURN_IF_ERROR(outcomes.Produce(
        RowMessage(pair.outcome, key, pair.outcome[3].AsInt(), "outc-" + key)));
  }
  UBERRT_RETURN_IF_ERROR(predictions.Flush());
  UBERRT_RETURN_IF_ERROR(outcomes.Flush());
  return count;
}

}  // namespace uberrt::workload
