// Schema validator for the BENCH_*.json files emitted by obs::BenchReport.
// The bench_smoke CTest label runs every bench at reduced scale and then
// this tool over the emitted file; a malformed or incomplete report fails
// the test. Reports of traced runs must carry their span sections whole:
// `spans` comes with `spans_dropped` and a `span_stages` array whose entries
// each have a name and numeric count / total / min / max / p50 / p99.
// Usage: bench_validate BENCH_<name>.json...
//
// --trace switches to validating Chrome/Perfetto trace-event files (the
// MSTS_TRACE_PATH export from obs/span.h): a traceEvents array whose "X"
// slices carry name/ts/dur and whose nestable async "b"/"e" pairs balance
// per (cat, id). The trace_smoke CTest flow runs a bench with tracing on
// and this mode over the exported file.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "obs/json.h"

namespace {

using msts::obs::json::Value;

bool fail(const char* path, const std::string& why) {
  std::fprintf(stderr, "bench_validate: %s: %s\n", path, why.c_str());
  return false;
}

bool is_number(const Value* v) { return v != nullptr && v->is_number(); }

// The JSON writer serializes non-finite doubles (NaN/Inf) as null, so a
// null where a number belongs almost always means the bench computed a
// non-finite value; say so instead of a generic type complaint.
std::string number_problem(const Value* v) {
  if (v == nullptr) return "missing";
  if (v->is_null()) return "null (a non-finite value was serialized as null)";
  return "not a number";
}

bool validate(const char* path) {
  std::ifstream in(path);
  if (!in) return fail(path, "cannot open");
  std::stringstream buf;
  buf << in.rdbuf();

  std::string err;
  const auto doc = msts::obs::json::parse(buf.str(), &err);
  if (!doc) return fail(path, "invalid JSON: " + err);
  if (!doc->is_object()) return fail(path, "root is not an object");

  const Value* bench = doc->find("bench");
  if (bench == nullptr || !bench->is_string() || bench->string.empty()) {
    return fail(path, "missing or invalid 'bench'");
  }
  const Value* version = doc->find("schema_version");
  if (!is_number(version) || version->number != 1.0) {
    return fail(path, "missing or invalid 'schema_version' (want 1)");
  }
  const Value* threads = doc->find("threads");
  if (!is_number(threads) || threads->number < 1.0) {
    return fail(path, "missing or invalid 'threads'");
  }
  const Value* scale = doc->find("scale");
  if (!is_number(scale) || scale->number <= 0.0 || scale->number > 1.0) {
    return fail(path, "missing or invalid 'scale'");
  }
  const Value* total = doc->find("total_wall_s");
  if (!is_number(total) || total->number < 0.0) {
    return fail(path, "'total_wall_s' is " + number_problem(total));
  }

  const Value* phases = doc->find("phases");
  if (phases == nullptr || !phases->is_array()) {
    return fail(path, "missing or invalid 'phases'");
  }
  for (const Value& p : phases->array) {
    if (!p.is_object()) return fail(path, "phase entry is not an object");
    const Value* name = p.find("name");
    const Value* wall = p.find("wall_s");
    if (name == nullptr || !name->is_string() || name->string.empty()) {
      return fail(path, "phase entry missing 'name'");
    }
    if (!is_number(wall) || wall->number < 0.0) {
      return fail(path, "phase '" + name->string + "': 'wall_s' is " +
                            number_problem(wall));
    }
  }

  const Value* scalars = doc->find("scalars");
  if (scalars == nullptr || !scalars->is_object()) {
    return fail(path, "missing or invalid 'scalars'");
  }
  for (const auto& [key, v] : scalars->object) {
    if (key.empty() || !v.is_number()) {
      return fail(path, "scalar '" + key + "' is " + number_problem(&v));
    }
  }

  // Traced reports carry the span sections together (obs/bench_report.h).
  std::size_t stages_checked = 0;
  if (const Value* spans = doc->find("spans"); spans != nullptr) {
    if (!is_number(spans) || spans->number < 0.0) {
      return fail(path, "'spans' is " + number_problem(spans));
    }
    const Value* dropped = doc->find("spans_dropped");
    if (!is_number(dropped) || dropped->number < 0.0) {
      return fail(path, "'spans_dropped' is " + number_problem(dropped));
    }
    const Value* stages = doc->find("span_stages");
    if (stages == nullptr || !stages->is_array()) {
      return fail(path, "'spans' without a 'span_stages' array");
    }
    for (const Value& st : stages->array) {
      if (!st.is_object()) return fail(path, "span_stages entry is not an object");
      const Value* name = st.find("name");
      if (name == nullptr || !name->is_string() || name->string.empty()) {
        return fail(path, "span_stages entry missing 'name'");
      }
      for (const char* field :
           {"count", "total_ns", "min_ns", "max_ns", "p50_ns", "p99_ns"}) {
        const Value* v = st.find(field);
        if (!is_number(v) || v->number < 0.0) {
          return fail(path, "span stage '" + name->string + "': '" + field +
                                "' is " + number_problem(v));
        }
      }
    }
    stages_checked = stages->array.size();
  }

  std::printf("bench_validate: %s OK (%zu phases, %zu scalars, %zu span stages)\n",
              path, phases->array.size(), scalars->object.size(), stages_checked);
  return true;
}

bool validate_trace(const char* path) {
  std::ifstream in(path);
  if (!in) return fail(path, "cannot open");
  std::stringstream buf;
  buf << in.rdbuf();

  std::string err;
  const auto doc = msts::obs::json::parse(buf.str(), &err);
  if (!doc) return fail(path, "invalid JSON: " + err);
  if (!doc->is_object()) return fail(path, "root is not an object");

  const Value* events = doc->find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return fail(path, "missing or invalid 'traceEvents'");
  }

  std::size_t slices = 0;
  std::map<std::pair<std::string, std::string>, long> async_depth;
  for (const Value& e : events->array) {
    if (!e.is_object()) return fail(path, "trace event is not an object");
    const Value* ph = e.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->string.empty()) {
      return fail(path, "trace event missing 'ph'");
    }
    const std::string& phase = ph->string;
    if (phase == "M") continue;  // metadata (process/thread names)
    const Value* name = e.find("name");
    const Value* ts = e.find("ts");
    const Value* tid = e.find("tid");
    if (phase == "X") {
      const Value* dur = e.find("dur");
      if (name == nullptr || !name->is_string() || name->string.empty()) {
        return fail(path, "'X' slice missing 'name'");
      }
      if (!is_number(ts) || ts->number < 0.0) {
        return fail(path, "'X' slice '" + name->string + "': 'ts' is " +
                              number_problem(ts));
      }
      if (!is_number(dur) || dur->number < 0.0) {
        return fail(path, "'X' slice '" + name->string + "': 'dur' is " +
                              number_problem(dur));
      }
      if (!is_number(tid)) {
        return fail(path, "'X' slice '" + name->string + "': 'tid' is " +
                              number_problem(tid));
      }
      ++slices;
    } else if (phase == "b" || phase == "e") {
      const Value* cat = e.find("cat");
      const Value* id = e.find("id");
      if (cat == nullptr || !cat->is_string() || id == nullptr || !id->is_string()) {
        return fail(path, "async '" + phase + "' event missing 'cat'/'id'");
      }
      if (!is_number(ts) || ts->number < 0.0) {
        return fail(path, "async event id " + id->string + ": 'ts' is " +
                              number_problem(ts));
      }
      if (phase == "b" &&
          (name == nullptr || !name->is_string() || name->string.empty())) {
        return fail(path, "async 'b' event id " + id->string + " missing 'name'");
      }
      long& depth = async_depth[{cat->string, id->string}];
      depth += (phase == "b") ? 1 : -1;
      if (depth < 0) {
        return fail(path, "async 'e' before 'b' for id " + id->string);
      }
      if (phase == "b") ++slices;
    } else {
      return fail(path, "unexpected trace event ph '" + phase + "'");
    }
  }
  for (const auto& [key, depth] : async_depth) {
    if (depth != 0) {
      return fail(path, "unbalanced async events for id " + key.second);
    }
  }

  std::printf("bench_validate: %s OK (trace, %zu events, %zu spans)\n", path,
              events->array.size(), slices);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool trace_mode = false;
  int first = 1;
  if (argc >= 2 && std::string(argv[1]) == "--trace") {
    trace_mode = true;
    first = 2;
  }
  if (first >= argc) {
    std::fprintf(stderr,
                 "usage: bench_validate BENCH_<name>.json...\n"
                 "       bench_validate --trace TRACE.json...\n");
    return 2;
  }
  bool ok = true;
  for (int i = first; i < argc; ++i) {
    ok = (trace_mode ? validate_trace(argv[i]) : validate(argv[i])) && ok;
  }
  return ok ? 0 : 1;
}
