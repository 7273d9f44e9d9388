#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.hpp"
#include "perfbench.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Digest::add(const std::vector<double>& values) {
  for (const double v : values) {
    char text[40];
    const int n = std::snprintf(text, sizeof text, "%.17g;", v);
    for (int i = 0; i < n; ++i) {
      hash_ ^= static_cast<unsigned char>(text[i]);
      hash_ *= 1099511628211ULL;
    }
  }
}

std::string Digest::hex() const {
  char text[20];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(hash_));
  return text;
}

namespace {

std::string proc_path(int pid, const char* file) {
  return pid == 0 ? std::string("/proc/self/") + file
                  : "/proc/" + std::to_string(pid) + "/" + file;
}

}  // namespace

double vm_hwm_mib(int pid) {
  std::ifstream in(proc_path(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the kernel reports kB
    }
  }
  return -1.0;
}

double cpu_seconds(int pid) {
  std::ifstream in(proc_path(pid, "stat"));
  std::string text;
  std::getline(in, text);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the line.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::string RunResult::to_json() const {
  const auto object = [](const std::map<std::string, double>& m) {
    std::string out = "{";
    for (const auto& [name, value] : m) {
      if (out.size() > 1) out += ", ";
      char num[40];
      std::snprintf(num, sizeof num, "%.17g", value);
      out += "\"" + name + "\": " + num;
    }
    return out + "}";
  };
  std::string arrays = "{";
  for (const auto& [name, values] : samples) {
    if (arrays.size() > 1) arrays += ", ";
    arrays += "\"" + name + "\": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      char num[32];
      std::snprintf(num, sizeof num, i == 0 ? "%.9g" : ",%.9g", values[i]);
      arrays += num;
    }
    arrays += "]";
  }
  arrays += "}";
  return "{\"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": " + object(metrics) +
         ", \"samples\": " + arrays + ", \"info\": " + object(info) + "}";
}

MetricsSnapshot parse_metrics_snapshot(const std::string& text) {
  const ipass::JsonValue root = ipass::parse_json(text, "metrics snapshot");
  MetricsSnapshot out;
  for (const auto& [section, value] : root.object) {
    if (section == "counters") {
      for (const auto& [name, v] : value.object) out.counters[name] = v.number;
    } else if (section == "histograms") {
      for (const auto& [name, h] : value.object) {
        HistogramStat stat;
        for (const auto& [field, v] : h.object) {
          if (field == "count") stat.count = v.number;
          if (field == "sum_ns") stat.sum_ns = v.number;
        }
        out.histograms[name] = stat;
      }
    }
  }
  return out;
}

double mean_us_between(const MetricsSnapshot& before, const MetricsSnapshot& after,
                       const std::string& name) {
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return 0.0;
  HistogramStat b;
  if (const auto it = before.histograms.find(name); it != before.histograms.end()) {
    b = it->second;
  }
  const double count = a->second.count - b.count;
  return count > 0.0 ? (a->second.sum_ns - b.sum_ns) / count / 1000.0 : 0.0;
}

double stats_field(const std::string& stats_json, const std::vector<std::string>& path) {
  const ipass::JsonValue root = ipass::parse_json(stats_json, "stats probe");
  const ipass::JsonValue* node = &root;
  for (const std::string& key : path) {
    const ipass::JsonValue* next = nullptr;
    for (const auto& [name, v] : node->object) {
      if (name == key) next = &v;
    }
    if (next == nullptr) return 0.0;
    node = next;
  }
  return node->number;
}

}  // namespace perfbench
