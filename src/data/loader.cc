#include "src/data/loader.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "src/util/csv.h"
#include "src/util/string_util.h"

namespace gnmr {
namespace data {

namespace {
constexpr char kMagic[] = "gnmr-v1";
}  // namespace

util::Status SaveDataset(const Dataset& dataset, const std::string& path) {
  GNMR_RETURN_IF_ERROR(dataset.Validate());
  std::vector<std::vector<std::string>> rows;
  rows.reserve(dataset.interactions.size() + 1);
  std::string behaviors;
  for (size_t k = 0; k < dataset.behavior_names.size(); ++k) {
    if (k > 0) behaviors += '|';
    behaviors += dataset.behavior_names[k];
  }
  rows.push_back({kMagic, dataset.name, std::to_string(dataset.num_users),
                  std::to_string(dataset.num_items),
                  std::to_string(dataset.target_behavior), behaviors});
  for (const graph::Interaction& e : dataset.interactions) {
    rows.push_back({std::to_string(e.user), std::to_string(e.item),
                    std::to_string(e.behavior), std::to_string(e.timestamp)});
  }
  return util::WriteDelimited(path, rows, '\t');
}

util::Result<Dataset> LoadDataset(const std::string& path) {
  auto rows_or = util::ReadDelimited(path, '\t');
  if (!rows_or.ok()) return rows_or.status();
  const auto& rows = rows_or.value();
  if (rows.empty() || rows[0].size() != 6 || rows[0][0] != kMagic) {
    return util::Status::ParseError("missing gnmr-v1 header in " + path);
  }
  Dataset d;
  d.name = rows[0][1];
  auto users = util::ParseInt64(rows[0][2]);
  auto items = util::ParseInt64(rows[0][3]);
  auto target = util::ParseInt64(rows[0][4]);
  if (!users.ok() || !items.ok() || !target.ok()) {
    return util::Status::ParseError("bad header numbers in " + path);
  }
  d.num_users = users.value();
  d.num_items = items.value();
  d.target_behavior = target.value();
  for (const std::string& n : util::Split(rows[0][5], '|')) {
    d.behavior_names.push_back(n);
  }
  d.interactions.reserve(rows.size() - 1);
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].size() != 4) {
      return util::Status::ParseError(
          util::StrFormat("row %zu has %zu fields, want 4", i,
                          rows[i].size()));
    }
    auto u = util::ParseInt64(rows[i][0]);
    auto v = util::ParseInt64(rows[i][1]);
    auto b = util::ParseInt64(rows[i][2]);
    auto t = util::ParseInt64(rows[i][3]);
    if (!u.ok() || !v.ok() || !b.ok() || !t.ok()) {
      return util::Status::ParseError(
          util::StrFormat("row %zu has non-integer fields", i));
    }
    d.interactions.push_back({u.value(), v.value(), b.value(), t.value()});
  }
  GNMR_RETURN_IF_ERROR(d.Validate());
  return d;
}

util::Result<Dataset> LoadRawTsv(const std::string& path,
                                 std::vector<std::string> behavior_names,
                                 int64_t target_behavior,
                                 const std::string& name) {
  auto rows_or = util::ReadDelimited(path, '\t');
  if (!rows_or.ok()) return rows_or.status();
  Dataset d;
  d.name = name;
  d.behavior_names = std::move(behavior_names);
  d.target_behavior = target_behavior;
  int64_t ts = 0;
  for (size_t i = 0; i < rows_or.value().size(); ++i) {
    const auto& row = rows_or.value()[i];
    if (row.size() != 3 && row.size() != 4) {
      return util::Status::ParseError(
          util::StrFormat("row %zu has %zu fields, want 3 or 4", i,
                          row.size()));
    }
    auto u = util::ParseInt64(row[0]);
    auto v = util::ParseInt64(row[1]);
    auto b = util::ParseInt64(row[2]);
    if (!u.ok() || !v.ok() || !b.ok()) {
      return util::Status::ParseError(
          util::StrFormat("row %zu has non-integer fields", i));
    }
    // The shape is max id + 1, so an id must leave room for that +1.
    constexpr int64_t kMaxId = std::numeric_limits<int64_t>::max();
    if (u.value() < 0 || u.value() >= kMaxId || v.value() < 0 ||
        v.value() >= kMaxId) {
      return util::Status::ParseError(
          util::StrFormat("row %zu has a user or item id outside "
                          "[0, INT64_MAX)", i));
    }
    int64_t timestamp = ts++;
    if (row.size() == 4) {
      auto t = util::ParseInt64(row[3]);
      if (!t.ok()) return t.status();
      timestamp = t.value();
    }
    d.num_users = std::max(d.num_users, u.value() + 1);
    d.num_items = std::max(d.num_items, v.value() + 1);
    d.interactions.push_back({u.value(), v.value(), b.value(), timestamp});
  }
  GNMR_RETURN_IF_ERROR(d.Validate());
  return d;
}

}  // namespace data
}  // namespace gnmr
