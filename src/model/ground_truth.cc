#include "model/ground_truth.h"

#include <charconv>
#include <limits>
#include <unordered_map>

#include "common/tsv.h"

namespace progres {

GroundTruth::GroundTruth(std::vector<int32_t> cluster_of)
    : cluster_of_(std::move(cluster_of)) {
  std::unordered_map<int32_t, int64_t> sizes;
  for (int32_t c : cluster_of_) ++sizes[c];
  for (const auto& [cluster, n] : sizes) {
    (void)cluster;
    num_duplicate_pairs_ += n * (n - 1) / 2;
  }
}

std::vector<PairKey> GroundTruth::AllDuplicatePairs() const {
  std::unordered_map<int32_t, std::vector<EntityId>> members;
  for (size_t i = 0; i < cluster_of_.size(); ++i) {
    members[cluster_of_[i]].push_back(static_cast<EntityId>(i));
  }
  std::vector<PairKey> pairs;
  pairs.reserve(static_cast<size_t>(num_duplicate_pairs_));
  for (const auto& [cluster, ids] : members) {
    (void)cluster;
    for (size_t i = 0; i < ids.size(); ++i) {
      for (size_t j = i + 1; j < ids.size(); ++j) {
        pairs.push_back(MakePairKey(ids[i], ids[j]));
      }
    }
  }
  return pairs;
}

bool GroundTruth::SaveTsv(const std::string& path) const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(cluster_of_.size());
  for (size_t i = 0; i < cluster_of_.size(); ++i) {
    rows.push_back({std::to_string(i), std::to_string(cluster_of_[i])});
  }
  return WriteTsv(path, rows);
}

bool GroundTruth::LoadTsv(const std::string& path, GroundTruth* out,
                          std::string* error) {
  std::string scratch;
  std::string& message = error != nullptr ? *error : scratch;
  message.clear();
  std::vector<std::vector<std::string>> rows;
  if (!ReadTsv(path, &rows)) return false;
  // Row i names one entity id in [0, rows) and its cluster id; every id
  // appears exactly once, so the rows are a permutation of the entities.
  std::vector<int32_t> cluster_of(rows.size(), 0);
  std::vector<char> seen(rows.size(), 0);
  const auto parse = [](const std::string& field, int64_t* value) {
    const char* end = field.data() + field.size();
    const auto [stop, ec] = std::from_chars(field.data(), end, *value);
    return !field.empty() && ec == std::errc() && stop == end;
  };
  for (size_t line = 1; line <= rows.size(); ++line) {
    const std::vector<std::string>& row = rows[line - 1];
    const std::string where = "line " + std::to_string(line) + ": ";
    if (row.size() != 2) {
      message = where + "expected entity id and cluster id, got " +
                std::to_string(row.size()) + " field(s)";
      return false;
    }
    int64_t id = 0;
    int64_t cluster = 0;
    if (!parse(row[0], &id)) {
      message = where + "\"" + row[0] + "\" is not an entity id";
      return false;
    }
    if (id < 0 || id >= static_cast<int64_t>(rows.size())) {
      message = where + "entity id " + row[0] + " is outside [0, " +
                std::to_string(rows.size()) + ")";
      return false;
    }
    if (seen[static_cast<size_t>(id)]) {
      message = where + "entity id " + row[0] + " is listed twice";
      return false;
    }
    if (!parse(row[1], &cluster) ||
        cluster < std::numeric_limits<int32_t>::min() ||
        cluster > std::numeric_limits<int32_t>::max()) {
      message = where + "\"" + row[1] + "\" is not a 32-bit cluster id";
      return false;
    }
    seen[static_cast<size_t>(id)] = 1;
    cluster_of[static_cast<size_t>(id)] = static_cast<int32_t>(cluster);
  }
  *out = GroundTruth(std::move(cluster_of));
  return true;
}

}  // namespace progres
