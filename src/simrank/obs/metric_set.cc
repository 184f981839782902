#include "simrank/obs/metric_set.h"

#include <algorithm>
#include <array>
#include <map>

#include "simrank/common/json_writer.h"
#include "simrank/common/macros.h"
#include "simrank/common/string_util.h"

namespace simrank {
namespace {

/// Strips a histogram sample suffix so `foo_bucket`, `foo_sum` and
/// `foo_count` group under family `foo` (only when `foo` is a declared
/// histogram — plain counters legitimately end in _count-like names).
std::string FamilyNameFor(const std::string& sample_name,
                          const std::map<std::string, std::string>& types) {
  static constexpr std::string_view kSuffixes[] = {"_bucket", "_sum",
                                                   "_count"};
  for (std::string_view suffix : kSuffixes) {
    if (sample_name.size() > suffix.size() &&
        sample_name.compare(sample_name.size() - suffix.size(),
                            suffix.size(), suffix) == 0) {
      std::string base =
          sample_name.substr(0, sample_name.size() - suffix.size());
      auto it = types.find(base);
      if (it != types.end() && it->second == "histogram") return base;
    }
  }
  return sample_name;
}

/// The `le` label value of each bucket: its upper bound in seconds.
const std::array<std::string, LatencyHistogram::kNumBuckets>& BucketBounds() {
  static const auto bounds = [] {
    std::array<std::string, LatencyHistogram::kNumBuckets> out;
    for (uint32_t b = 0; b + 1 < LatencyHistogram::kNumBuckets; ++b) {
      out[b] = JsonDouble(
          static_cast<double>(LatencyHistogram::BucketUpperMicros(b)) / 1e6);
    }
    out.back() = "+Inf";
    return out;
  }();
  return bounds;
}

}  // namespace

std::vector<PromFamily> ParsePrometheusText(std::string_view text) {
  std::vector<PromFamily> families;
  std::map<std::string, size_t> index;
  std::map<std::string, std::string> types;

  auto family_for = [&](const std::string& name) -> PromFamily& {
    auto [it, inserted] = index.emplace(name, families.size());
    if (inserted) {
      families.push_back(PromFamily{name, "untyped", {}});
      auto type_it = types.find(name);
      if (type_it != types.end()) families.back().type = type_it->second;
    }
    return families[it->second];
  };

  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = StrTrim(text.substr(pos, eol - pos));
    pos = eol + 1;
    if (line.empty()) continue;

    if (line[0] == '#') {
      if (StartsWith(line, "# TYPE ")) {
        const std::string_view rest = line.substr(7);
        const size_t space = rest.find(' ');
        if (space != std::string_view::npos) {
          const std::string name(StrTrim(rest.substr(0, space)));
          const std::string type(StrTrim(rest.substr(space + 1)));
          types[name] = type;
          family_for(name).type = type;
        }
      }
      continue;
    }

    // Sample line: name[{labels}] value
    size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string_view::npos || name_end == 0) continue;
    PromSample sample;
    sample.name.assign(line.substr(0, name_end));
    std::string_view rest = line.substr(name_end);
    if (rest[0] == '{') {
      // Our exporters never emit '}' inside label values, so the last '}'
      // closes the block.
      const size_t close = rest.rfind('}');
      if (close == std::string_view::npos) continue;
      sample.labels.assign(rest.substr(0, close + 1));
      rest = rest.substr(close + 1);
    }
    double value = 0.0;
    if (!ParseDouble(StrTrim(rest), &value)) continue;
    sample.value = value;
    family_for(FamilyNameFor(sample.name, types))
        .samples.push_back(std::move(sample));
  }
  return families;
}

std::string PrometheusText(const std::vector<PromFamily>& families) {
  std::string out;
  for (const PromFamily& family : families) {
    out += "# TYPE " + family.name + " " + family.type + "\n";
    for (const PromSample& sample : family.samples) {
      out += sample.name;
      out += sample.labels;
      out += ' ';
      out += JsonDouble(sample.value);
      out += '\n';
    }
  }
  return out;
}

void MergeFamilies(const std::vector<PromFamily>& from,
                   std::vector<PromFamily>* into) {
  for (const PromFamily& family : from) {
    auto it = std::find_if(
        into->begin(), into->end(),
        [&family](const PromFamily& f) { return f.name == family.name; });
    if (it == into->end()) {
      into->push_back(family);
    } else {
      it->samples.insert(it->samples.end(), family.samples.begin(),
                         family.samples.end());
    }
  }
}

std::string PromLabel(std::string_view key, std::string_view value) {
  return std::string(key) + "=\"" + std::string(value) + "\"";
}

MetricSet& MetricSet::Add(Entry entry) {
  OIPSIM_CHECK_MSG(entry.family.empty() ||
                       entry.value.kind_ != StatValue::Kind::kText,
                   "family %s given a string", entry.family.c_str());
  entries_.push_back(std::move(entry));
  return *this;
}

std::string MetricSet::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  std::string open;                 // dotted path of the innermost open object
  std::vector<std::string> closed;  // objects already closed
  // Positions the writer inside the object at dotted path `parent` ("" =
  // the root), closing and opening the objects in between.
  auto enter = [&](std::string_view parent) {
    while (!open.empty() &&
           !(parent == open || (StartsWith(parent, open) &&
                                parent[open.size()] == '.'))) {
      closed.push_back(open);
      json.EndObject();
      const size_t dot = open.rfind('.');
      open.resize(dot == std::string::npos ? 0 : dot);
    }
    while (open.size() < parent.size()) {
      const size_t begin = open.empty() ? 0 : open.size() + 1;
      const std::string_view child =
          parent.substr(0, std::min(parent.find('.', begin), parent.size()));
      OIPSIM_CHECK_MSG(
          std::find(closed.begin(), closed.end(), child) == closed.end(),
          "stats path %s reopens a closed object", std::string(child).c_str());
      json.Key(child.substr(begin)).BeginObject();
      open.assign(child);
    }
  };
  for (const Entry& entry : entries_) {
    const std::string_view path = entry.json_path;
    if (path.empty()) continue;
    if (entry.kind == Kind::kHistogram) {
      const LatencyHistogram::Snapshot& snapshot = entry.histogram;
      enter(path);
      json.Key("count").Uint(snapshot.count);
      json.Key("sum_us").Uint(snapshot.sum_micros);
      json.Key("p50_us").Uint(snapshot.QuantileUpperMicros(0.5));
      json.Key("p99_us").Uint(snapshot.QuantileUpperMicros(0.99));
      json.Key("buckets").BeginArray();
      for (const uint64_t count : snapshot.buckets) json.Uint(count);
      json.EndArray();
      continue;
    }
    const size_t dot = path.rfind('.');
    enter(dot == std::string_view::npos ? "" : path.substr(0, dot));
    json.Key(path.substr(dot + 1));  // npos + 1 == 0: the whole path
    const StatValue& value = entry.value;
    if (value.kind_ == StatValue::Kind::kUint) {
      json.Uint(value.uint_);
    } else if (value.kind_ == StatValue::Kind::kReal) {
      json.Double(value.real_);
    } else if (value.kind_ == StatValue::Kind::kBool) {
      json.Bool(value.uint_ != 0);
    } else {
      json.String(value.text_);
    }
  }
  enter("");
  json.EndObject();
  return json.str();
}

std::vector<PromFamily> MetricSet::Families() const {
  std::vector<PromFamily> families;
  std::map<std::string_view, size_t> index;
  for (const Entry& entry : entries_) {
    if (entry.family.empty()) continue;
    const char* type = entry.kind == Kind::kCounter     ? "counter"
                       : entry.kind == Kind::kHistogram ? "histogram"
                                                        : "gauge";
    auto [it, inserted] = index.emplace(entry.family, families.size());
    if (inserted) families.push_back(PromFamily{entry.family, type, {}});
    PromFamily& family = families[it->second];
    OIPSIM_CHECK_MSG(family.type == type, "family %s declared as %s and %s",
                     family.name.c_str(), family.type.c_str(), type);
    const std::string labels =
        entry.labels.empty() ? "" : "{" + entry.labels + "}";
    if (entry.kind != Kind::kHistogram) {
      const StatValue& value = entry.value;
      double number = value.kind_ == StatValue::Kind::kReal
                          ? value.real_
                          : static_cast<double>(value.uint_);
      if (entry.kind == Kind::kDuration) number /= 1e6;
      family.samples.push_back(PromSample{family.name, labels, number});
      continue;
    }
    const LatencyHistogram::Snapshot& snapshot = entry.histogram;
    const std::string le =
        entry.labels.empty() ? "{le=\"" : "{" + entry.labels + ",le=\"";
    uint64_t cumulative = 0;
    for (uint32_t b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
      cumulative += snapshot.buckets[b];
      family.samples.push_back(PromSample{family.name + "_bucket",
                                          le + BucketBounds()[b] + "\"}",
                                          static_cast<double>(cumulative)});
    }
    family.samples.push_back(
        PromSample{family.name + "_sum", labels,
                   static_cast<double>(snapshot.sum_micros) / 1e6});
    family.samples.push_back(PromSample{family.name + "_count", labels,
                                        static_cast<double>(snapshot.count)});
  }
  return families;
}

}  // namespace simrank
