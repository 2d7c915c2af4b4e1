#include "report_io.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace msts::benchtool {

namespace {

using msts::obs::json::Value;

bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

std::string informational_key(std::string_view name) {
  std::string key(kInformationalPrefix);
  key += name;
  return key;
}

std::optional<Value> read_json(const char* path, std::string* why) {
  std::ifstream in(path);
  if (!in) {
    *why = "cannot open";
    return std::nullopt;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  std::string err;
  auto doc = msts::obs::json::parse(buf.str(), &err);
  if (!doc) {
    *why = "invalid JSON: " + err;
    return std::nullopt;
  }
  if (!doc->is_object()) {
    *why = "root is not an object";
    return std::nullopt;
  }
  return doc;
}

std::optional<Value> read_report_json(const char* path, std::string* why) {
  auto doc = read_json(path, why);
  if (!doc) return std::nullopt;
  const Value* version = doc->find("schema_version");
  if (version == nullptr || !version->is_number() || version->number != kSchemaVersion) {
    *why = "not a schema-v" + std::to_string(kSchemaVersion) + " bench report";
    return std::nullopt;
  }
  return doc;
}

std::optional<Report> load_report(const char* path, const char* tool) {
  std::string why;
  const auto doc = read_report_json(path, &why);
  if (!doc) {
    std::fprintf(stderr, "%s: %s: %s\n", tool, path, why.c_str());
    return std::nullopt;
  }

  Report r;
  r.path = path;
  if (const Value* bench = doc->find("bench"); bench != nullptr && bench->is_string()) {
    r.bench = bench->string;
  }
  if (const Value* total = doc->find("total_wall_s");
      total != nullptr && total->is_number()) {
    r.total_wall_s = total->number;
  }
  if (const Value* scalars = doc->find("scalars");
      scalars != nullptr && scalars->is_object()) {
    for (const auto& [key, v] : scalars->object) {
      // The writer encodes NaN/Inf as null; keep the key, as NaN, so the
      // tools can refuse it instead of treating it as missing.
      if (v.is_number()) r.scalars.emplace_back(key, v.number);
      if (v.is_null()) r.scalars.emplace_back(key, std::nan(""));
    }
  }
  if (const Value* labels = doc->find("labels");
      labels != nullptr && labels->is_object()) {
    for (const auto& [key, v] : labels->object) {
      if (v.is_string()) r.labels.emplace_back(key, v.string);
    }
  }
  if (const Value* phases = doc->find("phases"); phases != nullptr && phases->is_array()) {
    for (const Value& p : phases->array) {
      if (!p.is_object()) continue;
      const Value* name = p.find("name");
      const Value* wall = p.find("wall_s");
      if (name != nullptr && name->is_string() && wall != nullptr && wall->is_number()) {
        r.phase_wall_s.emplace_back(name->string, wall->number);
      }
    }
  }
  return r;
}

std::string Report::label(const std::string& key) const {
  for (const auto& [k, v] : labels) {
    if (k == key) return v;
  }
  return {};
}

const double* find(const std::vector<std::pair<std::string, double>>& kv,
                   const std::string& key) {
  for (const auto& [k, v] : kv) {
    if (k == key) return &v;
  }
  return nullptr;
}

double rel_change(double base, double now) {
  const double denom = std::max(std::abs(base), 1e-12);
  return (now - base) / denom;
}

Direction scalar_direction(const std::string& key) {
  if (contains(key, "per_sec") || contains(key, "throughput")) {
    return Direction::kLowerIsWorse;
  }
  if (ends_with(key, "_ns") || ends_with(key, "_s_per_iter") ||
      contains(key, "latency") || contains(key, "wait")) {
    return Direction::kHigherIsWorse;
  }
  return Direction::kBoth;
}

bool is_informational(const std::string& key) {
  return key.rfind(kInformationalPrefix, 0) == 0;
}

bool is_regression(Direction dir, double change, double threshold) {
  switch (dir) {
    case Direction::kHigherIsWorse:
      return change > threshold;
    case Direction::kLowerIsWorse:
      return change < -threshold;
    case Direction::kBoth:
      break;
  }
  return std::abs(change) > threshold;
}

}  // namespace msts::benchtool
