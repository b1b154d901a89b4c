#include "plan/stats.h"

#include <algorithm>
#include <cstring>

#include "crypto/sha256.h"

namespace secmed {
namespace plan {

namespace {

/// 64-bit fingerprint of a join value: the first 8 bytes of the SHA-256
/// of its canonical encoding, big-endian. Collision probability over the
/// domain sizes involved here is negligible.
uint64_t Fingerprint(const Value& v) {
  Bytes digest = Sha256::Hash(v.Encode());
  uint64_t fp = 0;
  for (size_t i = 0; i < 8; ++i) fp = (fp << 8) | digest[i];
  return fp;
}

/// The cached form of TableStats (core/prepared.h).
struct PreparedStats : PreparedValue {
  TableStats stats;

  explicit PreparedStats(TableStats s) : stats(std::move(s)) {}
  size_t ByteSize() const override {
    // Dominated by the sketch and the bucket histogram.
    return sizeof(TableStats) + stats.join_sketch.size() * sizeof(uint64_t) +
           stats.buckets.size() * (sizeof(BucketStat) + 32);
  }
};

}  // namespace

obs::JsonValue TableStats::ToJson() const {
  std::vector<obs::JsonValue> bucket_json;
  bucket_json.reserve(buckets.size());
  for (const BucketStat& b : buckets) {
    bucket_json.push_back(obs::JsonValue::Object({
        {"bounds", obs::JsonValue::String(b.partition.ToString())},
        {"distinct_values", obs::JsonValue::Number(double(b.distinct_values))},
        {"tuples", obs::JsonValue::Number(double(b.tuples))},
    }));
  }
  return obs::JsonValue::Object({
      {"table", obs::JsonValue::String(table)},
      {"source", obs::JsonValue::String(source)},
      {"catalog_version", obs::JsonValue::Number(double(catalog_version))},
      {"tuples", obs::JsonValue::Number(double(tuples))},
      {"columns", obs::JsonValue::Number(double(columns))},
      {"distinct_join_values",
       obs::JsonValue::Number(double(distinct_join_values))},
      {"avg_tuple_bytes", obs::JsonValue::Number(avg_tuple_bytes)},
      {"join_attribute", obs::JsonValue::String(join_attribute)},
      {"buckets", obs::JsonValue::Array(std::move(bucket_json))},
      {"sketch_size", obs::JsonValue::Number(double(join_sketch.size()))},
      {"sketch_exact", obs::JsonValue::Bool(sketch_exact)},
  });
}

Result<TableStats> CollectStats(const Relation& rel,
                                const std::string& join_attribute,
                                const StatsOptions& options) {
  TableStats stats;
  stats.join_attribute = join_attribute;
  stats.tuples = rel.size();
  stats.columns = rel.schema().size();

  // Resolve the join column: exact (possibly qualified) match first, then
  // by base name, so the collector works on both stored base tables and
  // qualified partial results.
  const size_t none = rel.schema().size();
  const Result<size_t> exact = rel.schema().IndexOf(join_attribute);
  size_t col = exact.ok() ? *exact : none;
  std::string stored_name = join_attribute;
  for (size_t i = 0; col == none && i < rel.schema().size(); ++i) {
    if (Schema::BaseName(rel.schema().column(i).name) == join_attribute) {
      stored_name = rel.schema().column(i).name;
      col = i;
    }
  }
  if (col == none) {
    return Status::InvalidArgument("stats: no column '" + join_attribute +
                                   "' in schema");
  }

  size_t total_bytes = 0;
  for (const Tuple& t : rel.tuples()) total_bytes += EncodeTuple(t).size();
  stats.avg_tuple_bytes =
      rel.empty() ? 0.0 : double(total_bytes) / double(rel.size());

  SECMED_ASSIGN_OR_RETURN(std::vector<Value> domain,
                          rel.ActiveDomain(stored_name));
  stats.distinct_join_values = domain.size();

  stats.join_sketch.reserve(domain.size());
  for (const Value& v : domain) stats.join_sketch.push_back(Fingerprint(v));
  std::sort(stats.join_sketch.begin(), stats.join_sketch.end());
  if (stats.join_sketch.size() > kJoinSketchCap) {
    stats.join_sketch.resize(kJoinSketchCap);  // bottom-k
    stats.sketch_exact = false;
  }

  // DAS bucket histogram: the same partitioning the DAS protocol would
  // build. The salt only randomizes identifiers, never boundaries, so
  // the histogram is salt-free. A strategy/domain mismatch (equi-width
  // over strings, empty domain) leaves the histogram empty: DAS is then
  // not a plannable candidate for this table rather than an error.
  if (!domain.empty()) {
    Result<std::vector<DasPartition>> parts = PartitionDomain(
        domain, options.das_strategy, options.das_partitions, Bytes{});
    if (parts.ok()) {
      stats.buckets.reserve(parts->size());
      for (DasPartition& p : *parts) {
        BucketStat b;
        b.partition = std::move(p);
        for (const Value& v : domain) {
          if (b.partition.Contains(v)) ++b.distinct_values;
        }
        for (const Tuple& t : rel.tuples()) {
          const Value& v = t[col];
          if (!v.is_null() && b.partition.Contains(v)) ++b.tuples;
        }
        stats.buckets.push_back(std::move(b));
      }
    }
  }
  return stats;
}

Result<TableStats> CollectSourceStats(const DataSource& source,
                                      const std::string& table,
                                      const std::string& join_attribute,
                                      const StatsOptions& options,
                                      PreparedCache* cache) {
  auto compute = [&]() -> Result<TableStats> {
    Result<TableStats> stats = Status::Internal("relation not visited");
    Status visit = source.WithRelation(table, [&](const Relation& rel) {
      stats = CollectStats(rel, join_attribute, options);
    });
    if (!visit.ok()) return visit;
    if (!stats.ok()) return stats.status();
    stats->table = table;
    stats->source = source.name();
    stats->catalog_version = source.catalog_version();
    return stats;
  };

  if (cache == nullptr) return compute();

  // Key material: every parameter the statistics depend on besides the
  // relation content itself, which the catalog version covers.
  std::string material_str =
      table + "|" + join_attribute + "|" +
      PartitionStrategyToString(options.das_strategy) + "|" +
      std::to_string(options.das_partitions);
  std::string key = PreparedKey("plan.stats", source.name(),
                                source.catalog_version(),
                                ToBytes(material_str));
  SECMED_ASSIGN_OR_RETURN(
      std::shared_ptr<const PreparedStats> entry,
      (GetOrCompute<PreparedStats>(
          cache, key,
          [&](RandomSource*) -> Result<std::shared_ptr<const PreparedStats>> {
            SECMED_ASSIGN_OR_RETURN(TableStats stats, compute());
            return std::make_shared<const PreparedStats>(std::move(stats));
          })));
  return entry->stats;
}

double EstimateDomainIntersection(const TableStats& a, const TableStats& b) {
  if (a.join_sketch.empty() || b.join_sketch.empty()) return 0.0;
  if (a.sketch_exact && b.sketch_exact) {
    size_t i = 0, j = 0, common = 0;
    while (i < a.join_sketch.size() && j < b.join_sketch.size()) {
      if (a.join_sketch[i] == b.join_sketch[j]) {
        ++common, ++i, ++j;
      } else if (a.join_sketch[i] < b.join_sketch[j]) {
        ++i;
      } else {
        ++j;
      }
    }
    return double(common);
  }
  // Bottom-k (KMV) estimate: Jaccard from the bottom-k of the union, then
  // |A∩B| = J/(1+J) · (|A| + |B|).
  size_t k = std::min(a.join_sketch.size(), b.join_sketch.size());
  std::vector<uint64_t> merged;
  merged.reserve(a.join_sketch.size() + b.join_sketch.size());
  std::merge(a.join_sketch.begin(), a.join_sketch.end(), b.join_sketch.begin(),
             b.join_sketch.end(), std::back_inserter(merged));
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  if (merged.size() > k) merged.resize(k);
  size_t in_both = 0;
  for (uint64_t fp : merged) {
    bool in_a = std::binary_search(a.join_sketch.begin(), a.join_sketch.end(),
                                   fp);
    bool in_b = std::binary_search(b.join_sketch.begin(), b.join_sketch.end(),
                                   fp);
    if (in_a && in_b) ++in_both;
  }
  double jaccard = k == 0 ? 0.0 : double(in_both) / double(k);
  return jaccard / (1.0 + jaccard) *
         double(a.distinct_join_values + b.distinct_join_values);
}

double EstimateDasSupersetPairs(const TableStats& a, const TableStats& b) {
  if (a.buckets.empty() || b.buckets.empty()) return -1.0;
  double pairs = 0;
  for (const BucketStat& ba : a.buckets) {
    for (const BucketStat& bb : b.buckets) {
      if (ba.partition.Overlaps(bb.partition)) {
        pairs += double(ba.tuples) * double(bb.tuples);
      }
    }
  }
  return pairs;
}

double EstimateJoinTuples(const TableStats& a, const TableStats& b) {
  if (a.distinct_join_values == 0 || b.distinct_join_values == 0) return 0.0;
  double intersection = EstimateDomainIntersection(a, b);
  return intersection * (double(a.tuples) / double(a.distinct_join_values)) *
         (double(b.tuples) / double(b.distinct_join_values));
}

TableStats JoinedStats(const TableStats& a, const TableStats& b,
                       const TableStats& carrier_next_attr) {
  TableStats out = carrier_next_attr;  // domain shape of the next attribute
  out.table = a.table + "*" + b.table;
  out.source.clear();
  out.catalog_version = 0;
  out.columns = a.columns + b.columns - 1;
  out.avg_tuple_bytes = a.avg_tuple_bytes + b.avg_tuple_bytes;

  double joined = EstimateJoinTuples(a, b);
  out.tuples = size_t(joined + 0.5);
  // Rescale the inherited per-bucket tuple counts to the new cardinality;
  // the distinct counts cannot exceed the tuple count.
  double scale = carrier_next_attr.tuples == 0
                     ? 0.0
                     : joined / double(carrier_next_attr.tuples);
  for (BucketStat& bucket : out.buckets) {
    bucket.tuples = size_t(double(bucket.tuples) * scale + 0.5);
    bucket.distinct_values = std::min(bucket.distinct_values, bucket.tuples);
  }
  out.distinct_join_values = std::min(out.distinct_join_values, out.tuples);
  // Inherited through one approximation step: no longer exact.
  out.sketch_exact = false;
  return out;
}

}  // namespace plan
}  // namespace secmed
