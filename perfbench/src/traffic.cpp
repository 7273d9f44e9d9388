// Seeded serve traffic.  Everything here is a pure function of its
// arguments: the same seed gives the same request bytes, and the same seed
// and stream give the same closed-loop request order.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/rng.hpp"
#include "kits/kit_json.hpp"
#include "kits/registry.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

std::string number(double v) {
  char text[40];
  std::snprintf(text, sizeof text, "%.17g", v);
  return text;
}

// Optional per-request evaluation state: a volume override (log-uniform in
// [1e3, 1e6] started units) and FoM weights.
std::string overrides(ipass::Pcg32& rng, bool volume, bool weights) {
  static const double kWeights[] = {0.5, 1.0, 1.5, 2.0, 3.0};
  std::string out;
  if (volume) {
    out += ", \"volume\": " + number(std::round(std::pow(10.0, rng.uniform(3.0, 6.0))));
  }
  if (weights) {
    // One draw per statement: argument evaluation order is unspecified.
    const double performance = kWeights[rng.below(5)];
    const double size = kWeights[rng.below(5)];
    const double cost = kWeights[rng.below(5)];
    out += ", \"weights\": {\"performance\": " + number(performance) +
           ", \"size\": " + number(size) + ", \"cost\": " + number(cost) + "}";
  }
  return out;
}

template <typename T>
void shuffle(std::vector<T>& v, ipass::Pcg32& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(static_cast<std::uint32_t>(i))]);
  }
}

void finish_warmup(Traffic& t) {
  std::vector<bool> seen(t.keys, false);
  for (std::uint32_t i = 0; i < t.requests.size(); ++i) {
    if (!seen[t.key_of[i]]) {
      seen[t.key_of[i]] = true;
      t.warmup.push_back(i);
    }
  }
}

// A seeded variant of a built-in kit: new name, perturbed substrate cost,
// filter overhead, corner and per-variant assembly cost/NRE — a distinct
// study (its own cache key) of the same shape and compile cost.
ipass::kits::ProcessKit kit_variant(const ipass::kits::ProcessKit& base, std::uint64_t seed,
                                    std::size_t index, ipass::Pcg32& rng) {
  ipass::kits::ProcessKit kit = base;
  kit.name = "variant-" + std::to_string(seed) + "-" + std::to_string(index);
  kit.version = "bench." + std::to_string(index);
  kit.substrate.cost_per_cm2 *= rng.uniform(0.8, 1.2);
  kit.passives.integrated_filter_overhead *= rng.uniform(0.95, 1.05);
  kit.corner.cost_scale *= rng.uniform(0.9, 1.1);
  for (ipass::kits::KitVariant& v : kit.variants) {
    v.production.chip_assembly_cost *= rng.uniform(0.8, 1.2);
    v.production.nre_total *= rng.uniform(0.8, 1.2);
  }
  return kit;
}

}  // namespace

Traffic make_hot_traffic(std::uint64_t seed) {
  const std::vector<std::string> kits = ipass::kits::builtin_kit_registry().names();
  ipass::Pcg32 rng(seed, 0x686f74);  // "hot"
  constexpr std::size_t kPerKit = 40;
  const std::size_t n = kits.size() * kPerKit;
  // Optional stages on seeded positions but in exact numbers per kit (6 of
  // 40 pareto = 15%, 1 of 40 sensitivity = 2.5%), so every seed carries the
  // same stage mix over the same kits.
  std::vector<char> stage(n, 0);
  for (std::size_t k = 0; k < kits.size(); ++k) {
    std::vector<std::uint32_t> slots(kPerKit);
    std::iota(slots.begin(), slots.end(), 0U);
    shuffle(slots, rng);
    for (std::size_t j = 0; j < 7; ++j) stage[slots[j] * kits.size() + k] = j < 6 ? 'p' : 's';
  }

  Traffic t;
  t.keys = kits.size();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t key = i % static_cast<std::uint32_t>(kits.size());
    std::string text = "{\"id\": \"h" + std::to_string(i) + "\", \"kit_name\": \"" + kits[key] + "\"";
    const bool volume = rng.bernoulli(0.7);
    const bool weights = rng.bernoulli(0.5);
    text += overrides(rng, volume, weights);
    if (stage[i] == 'p') text += ", \"pareto\": true";
    if (stage[i] == 's') text += ", \"sensitivity\": true";
    t.requests.push_back(text + "}");
    t.key_of.push_back(key);
  }
  finish_warmup(t);
  return t;
}

Traffic make_churn_traffic(std::uint64_t seed) {
  const ipass::kits::KitRegistry registry = ipass::kits::builtin_kit_registry();
  const std::vector<std::string> kits = registry.names();
  ipass::Pcg32 rng(seed, 0x636875726e);  // "churn"
  constexpr std::size_t kKeys = 40;
  constexpr std::uint32_t kPerKey = 4;

  Traffic t;
  t.keys = kKeys;
  for (std::uint32_t key = 0; key < kKeys; ++key) {
    // Keys 0..13: every built-in kit at both scopes.  Keys 14..39: inline
    // kit documents (one third of them cost-only).
    std::string kit_field;
    bool full = true;
    if (key < 2 * kits.size()) {
      kit_field = "\"kit_name\": \"" + kits[key / 2] + "\"";
      full = key % 2 == 0;
    } else {
      const std::size_t j = key - 2 * kits.size();
      kit_field = "\"kit\": " +
                  ipass::kits::kit_json(kit_variant(registry.at(kits[j % kits.size()]), seed, j, rng));
      full = j % 3 != 2;
    }
    for (std::uint32_t v = 0; v < kPerKey; ++v) {
      const auto i = static_cast<std::uint32_t>(t.requests.size());
      std::string text = "{\"id\": \"c" + std::to_string(i) + "\", " + kit_field +
                         ", \"scope\": \"" + (full ? "full" : "cost-only") + "\"";
      text += overrides(rng, v % 2 == 1, v >= 2);
      t.requests.push_back(text + "}");
      t.key_of.push_back(key);
    }
  }
  finish_warmup(t);

  // Zipf(1) popularity over a fixed ranking of the keys: ranks cycle
  // through the four key kinds (built-in full, built-in cost-only, inline
  // full, inline cost-only) in a fixed pattern.  The seed changes the
  // request bytes and the draws, not which study sits at which rank, so
  // every seed puts the same compile cost at each popularity.
  std::vector<std::vector<std::uint32_t>> kinds(4);
  for (std::uint32_t key = 0; key < kKeys; ++key) {
    const bool builtin = key < 2 * kits.size();
    const bool full = builtin ? key % 2 == 0 : (key - 2 * kits.size()) % 3 != 2;
    kinds[(builtin ? 0 : 2) + (full ? 0 : 1)].push_back(key);
  }
  std::vector<std::uint32_t> rank_to_key;
  std::vector<std::size_t> taken(kinds.size(), 0);
  while (rank_to_key.size() < kKeys) {
    // Next kind: the one furthest behind its share of the ranks so far.
    std::size_t pick = 0;
    double behind = -1.0;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const double share = static_cast<double>(kinds[k].size()) / kKeys;
      const double lag = share * static_cast<double>(rank_to_key.size() + 1) -
                         static_cast<double>(taken[k]);
      if (taken[k] < kinds[k].size() && lag > behind) {
        behind = lag;
        pick = k;
      }
    }
    rank_to_key.push_back(kinds[pick][taken[pick]++]);
  }
  // A key's requests share its rank's popularity.
  std::vector<double> weight(t.requests.size());
  for (std::size_t r = 0; r < kKeys; ++r) {
    for (std::uint32_t v = 0; v < kPerKey; ++v) {
      weight[rank_to_key[r] * kPerKey + v] = 1.0 / static_cast<double>(r + 1);
    }
  }
  double total = 0.0;
  for (const double w : weight) t.popularity_cdf.push_back(total += w);
  for (double& c : t.popularity_cdf) c /= total;
  return t;
}

ClosedLoopOrder::ClosedLoopOrder(std::uint64_t seed, unsigned stream, const Traffic& traffic)
    : state_(seed * 1000003ULL + stream),
      perm_(traffic.requests.size()),
      pos_(traffic.requests.size()),
      cdf_(traffic.popularity_cdf),
      draws_(state_, 0x6472617773) {  // "draws"
  std::iota(perm_.begin(), perm_.end(), 0U);
}

std::uint32_t ClosedLoopOrder::next() {
  if (!cdf_.empty()) {
    const auto at = std::lower_bound(cdf_.begin(), cdf_.end(), draws_.uniform()) - cdf_.begin();
    return static_cast<std::uint32_t>(
        std::min<std::ptrdiff_t>(at, static_cast<std::ptrdiff_t>(cdf_.size() - 1)));
  }
  if (pos_ == perm_.size()) {
    ipass::Pcg32 rng(state_++, 0x6f72646572);  // "order": one stream per pass
    shuffle(perm_, rng);
    pos_ = 0;
  }
  return perm_[pos_++];
}

}  // namespace perfbench
