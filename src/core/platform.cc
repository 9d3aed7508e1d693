#include "core/platform.h"

#include "sql/parser.h"
#include "stream/producer.h"

#include <sstream>

namespace uberrt::core {

namespace {

common::ExecutorOptions PlatformExecutorOptions(const RealtimePlatform::Options& options) {
  common::ExecutorOptions exec;
  exec.num_threads = options.executor_threads;
  exec.name = "executor.platform";
  return exec;
}

compute::JobManagerOptions PlatformJobManagerOptions(common::Executor* executor) {
  compute::JobManagerOptions jm;
  jm.default_executor = executor;
  return jm;
}

}  // namespace

RealtimePlatform::RealtimePlatform(Options options)
    : faults_(options.fault_seed),
      executor_(PlatformExecutorOptions(options)),
      olap_(&federation_, &store_, &executor_),
      job_manager_(&federation_, &store_, PlatformJobManagerOptions(&executor_)),
      presto_(&catalog_) {
  store_.SetFaultInjector(&faults_);
  olap_.SetFaultInjector(&faults_);
  job_manager_.SetFaultInjector(&faults_);
  for (int32_t i = 0; i < options.num_stream_clusters; ++i) {
    stream::BrokerOptions broker_options;
    broker_options.num_nodes = 100;
    auto broker = std::make_unique<stream::Broker>("cluster-" + std::to_string(i),
                                                   broker_options);
    broker->SetFaultInjector(&faults_);
    federation_.AddCluster(std::move(broker), options.cluster_topic_capacity).ok();
  }
}

void RealtimePlatform::MarkUsage(const std::string& actor, const std::string& layer) {
  if (actor.empty()) return;
  std::lock_guard<std::mutex> lock(usage_mu_);
  usage_[actor].insert(layer);
}

Status RealtimePlatform::ProvisionTopic(const std::string& topic,
                                        const RowSchema& schema, int32_t partitions,
                                        const std::string& actor, bool lossless) {
  Result<int> version = registry_.Register(topic, schema);
  if (!version.ok()) return version.status();
  stream::TopicConfig config;
  config.num_partitions = partitions;
  config.lossless = lossless;
  Status created = federation_.CreateTopic(topic, config);
  if (!created.ok() && !created.IsAlreadyExists()) return created;
  MarkUsage(actor, kLayerStream);
  return Status::Ok();
}

Status RealtimePlatform::ProvisionOlapTable(olap::TableConfig config,
                                            const std::string& source_topic,
                                            olap::ClusterTableOptions cluster_options,
                                            const std::string& actor) {
  if (!federation_.HasTopic(source_topic)) {
    return Status::NotFound("source topic missing: " + source_topic);
  }
  // Schema inference from the source topic's registered schema when the
  // table config omits it (Section 4.3.3 integration).
  if (config.schema.NumFields() == 0) {
    Result<metadata::SchemaVersion> schema = registry_.GetLatest(source_topic);
    if (!schema.ok()) return schema.status();
    config.schema = schema.value().schema;
  }
  std::string table = config.name;
  UBERRT_RETURN_IF_ERROR(olap_.CreateTable(std::move(config), source_topic,
                                           cluster_options));
  registry_.AddLineage(source_topic, "olap:" + table);
  catalog_.Register(table, std::make_unique<sql::OlapConnector>(&olap_, table));
  olap_tables_.push_back(table);
  MarkUsage(actor, kLayerOlap);
  MarkUsage(actor, kLayerStorage);  // segment archival
  return Status::Ok();
}

Result<stream::ProduceResult> RealtimePlatform::ProduceRow(const std::string& topic,
                                                           const Row& row,
                                                           const std::string& key,
                                                           TimestampMs event_time,
                                                           const std::string& actor) {
  stream::Message message;
  message.key = key;
  message.value = EncodeRow(row);
  message.timestamp = event_time;
  message.headers[stream::kHeaderUid] =
      actor + "-" + std::to_string(next_uid_++);
  message.headers[stream::kHeaderService] = actor;
  chaperone_.Record("producer", topic, message);
  MarkUsage(actor, kLayerStream);
  return stream::ProduceOne(&federation_, topic, message);
}

Result<std::string> RealtimePlatform::SubmitJob(const compute::JobGraph& graph,
                                                const std::string& actor,
                                                compute::JobRunnerOptions runner_options) {
  Result<std::string> id = job_manager_.Submit(graph, runner_options);
  if (!id.ok()) return id;
  MarkUsage(actor, kLayerApi);
  MarkUsage(actor, kLayerCompute);
  for (const compute::SourceSpec& source : graph.sources()) {
    registry_.AddLineage(source.topic, "job:" + id.value());
  }
  if (graph.sink().kind == compute::SinkSpec::Kind::kTopic) {
    registry_.AddLineage("job:" + id.value(), graph.sink().topic);
  }
  return id;
}

Result<std::string> RealtimePlatform::SubmitSqlJob(const std::string& sql,
                                                   const std::string& sink_topic,
                                                   const std::string& actor,
                                                   compute::FlinkSqlOptions sql_options) {
  // Resolve the FROM topic's schema from the registry.
  Result<std::unique_ptr<sql::SelectStmt>> parsed = sql::ParseSelect(sql);
  if (!parsed.ok()) return parsed.status();
  if (!parsed.value()->from ||
      parsed.value()->from->kind != sql::TableRef::Kind::kNamed) {
    return Status::InvalidArgument("streaming SQL requires FROM <topic>");
  }
  const std::string& source_topic = parsed.value()->from->name;
  Result<metadata::SchemaVersion> schema = registry_.GetLatest(source_topic);
  if (!schema.ok()) return schema.status();

  Result<compute::JobGraph> graph =
      compute::CompileStreamingSql(sql, schema.value().schema, sql_options);
  if (!graph.ok()) return graph.status();

  // Provision the sink topic with the job's output schema.
  compute::JobGraph job = graph.value().WithName("flinksql");
  RowSchema output_schema =
      job.SchemaAfter(static_cast<int>(job.transforms().size()) - 1);
  if (!sink_topic.empty()) {
    Result<int32_t> partitions = federation_.NumPartitions(source_topic);
    UBERRT_RETURN_IF_ERROR(ProvisionTopic(sink_topic, output_schema,
                                          partitions.ok() ? partitions.value() : 4,
                                          actor));
    job.SinkToTopic(sink_topic);
  }
  Result<std::string> id = job_manager_.Submit(job);
  if (!id.ok()) return id;
  MarkUsage(actor, kLayerSql);
  MarkUsage(actor, kLayerCompute);
  MarkUsage(actor, kLayerStream);
  registry_.AddLineage(source_topic, "job:" + id.value());
  if (!sink_topic.empty()) registry_.AddLineage("job:" + id.value(), sink_topic);
  return id;
}

Result<sql::QueryResult> RealtimePlatform::Query(const std::string& sql,
                                                 const std::string& actor) {
  MarkUsage(actor, kLayerSql);
  MarkUsage(actor, kLayerOlap);
  return presto_.Execute(sql);
}

Result<olap::OlapResult> RealtimePlatform::QueryOlap(const std::string& table,
                                                     const olap::OlapQuery& query,
                                                     const std::string& actor) {
  MarkUsage(actor, kLayerOlap);
  return olap_.Query(table, query);
}

Status RealtimePlatform::PumpOnce() {
  for (const std::string& table : olap_tables_) {
    Result<int64_t> ingested = olap_.IngestOnce(table);
    if (!ingested.ok()) return ingested.status();
    olap_.DrainArchivalQueue(table).ok();
  }
  return job_manager_.Tick();
}

Status RealtimePlatform::PumpUntilIngested(int32_t max_cycles) {
  for (int32_t i = 0; i < max_cycles; ++i) {
    UBERRT_RETURN_IF_ERROR(PumpOnce());
    bool done = true;
    for (const std::string& table : olap_tables_) {
      Result<int64_t> lag = olap_.IngestLag(table);
      if (!lag.ok()) return lag.status();
      if (lag.value() > 0) done = false;
    }
    if (done) return Status::Ok();
  }
  return Status::Timeout("olap ingestion did not catch up");
}

std::set<std::string> RealtimePlatform::LayersUsed(const std::string& actor) const {
  std::lock_guard<std::mutex> lock(usage_mu_);
  auto it = usage_.find(actor);
  return it == usage_.end() ? std::set<std::string>{} : it->second;
}

std::string RealtimePlatform::RenderComponentTable(
    const std::vector<std::string>& actors) const {
  static const char* kLayers[] = {kLayerApi, kLayerSql,    kLayerOlap,
                                  kLayerCompute, kLayerStream, kLayerStorage};
  std::ostringstream os;
  os << "Component";
  for (const std::string& actor : actors) os << "\t" << actor;
  os << "\n";
  for (const char* layer : kLayers) {
    os << layer;
    for (const std::string& actor : actors) {
      os << "\t" << (LayersUsed(actor).count(layer) > 0 ? "Y" : "");
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace uberrt::core
