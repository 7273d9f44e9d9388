// Differential mutation test of the JSON reading layer: the tape parser,
// ObjectReader, the kit-JSON loader and the serve request reader against
// the DOM-era implementations kept in json_oracle.hpp.
//
// Seeds: the kit corpus (tests/kits/corpus), the built-in registry's
// document and the committed request log.  Each seed is mutated by
// Pcg32-driven bit flips, splices of seed bytes, truncations, depth bombs
// around the 64-level cap, insertions of number and escape edge cases, and
// keys respelled with escapes (in place, or duplicated).  Kit and registry
// seeds also get value-only mutants, which mostly stay well-formed: a
// number moved to its nextafter neighbour (0 to -0 and back), a number
// respelled with the same value, an enum token swapped for another valid
// one.
// For every input both sides must agree: accepted or rejected, the same
// ErrorCode, the same message byte for byte, and equal results (trees with
// bit-equal numbers in the same key order; kits, registries and requests
// compared through their canonical serializations).  An accepted value-only
// mutant's cache key (kits::append_kit_key) must equal its seed's exactly
// when their kit_json texts are equal.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "json_oracle.hpp"
#include "kits/kit_json.hpp"
#include "kits/registry.hpp"
#include "serve/protocol.hpp"
#include "serve/replay.hpp"

namespace ipass {
namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// A tree in a canonical text: numbers as their bit patterns, strings
// length-prefixed, members in document order.
void dump(std::string& out, const JsonValue& v) {
  switch (v.type) {
    case JsonType::Object:
      out += '{';
      for (const auto& [key, value] : v.object) {
        out += std::to_string(key.size()) + ':' + key + '=';
        dump(out, value);
        out += ',';
      }
      out += '}';
      break;
    case JsonType::Array:
      out += '[';
      for (const JsonValue& e : v.array) {
        dump(out, e);
        out += ',';
      }
      out += ']';
      break;
    case JsonType::String:
      out += 's' + std::to_string(v.string.size()) + ':' + v.string;
      break;
    case JsonType::Number: {
      std::uint64_t bits;
      std::memcpy(&bits, &v.number, sizeof bits);
      char buf[32];
      std::snprintf(buf, sizeof buf, "n%016" PRIx64, bits);
      out += buf;
      break;
    }
    case JsonType::Bool:
      out += v.boolean ? "true" : "false";
      break;
  }
}

std::string tree_text(const JsonValue& v) {
  std::string out;
  dump(out, v);
  return out;
}

std::string bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return std::to_string(b);
}

std::string request_text(const serve::AssessmentRequest& r) {
  return r.id + '|' + r.bom + '|' + r.reference + '|' + r.kit_name + '|' +
         (r.has_inline_kit ? kits::kit_json(r.inline_kit) : "-") + '|' +
         std::to_string(static_cast<int>(r.scope)) + '|' + (r.want_pareto ? "P" : "p") +
         (r.want_sensitivity ? "S" : "s") + '|' + bits(r.weights.performance) + ',' +
         bits(r.weights.size) + ',' + bits(r.weights.cost) + '|' + bits(r.volume) + '|' +
         std::to_string(r.deadline_ms);
}

// What one implementation did with one input.
struct Outcome {
  bool accepted = false;
  ErrorCode code = ErrorCode::Unspecified;
  std::string text;  // the result's canonical text, or the message

  bool operator==(const Outcome& o) const {
    return accepted == o.accepted && code == o.code && text == o.text;
  }
};

Outcome run(const std::function<std::string()>& f) {
  Outcome out;
  try {
    out.text = f();
    out.accepted = true;
  } catch (const PreconditionError& e) {
    out.code = e.code();
    out.text = e.what();
  } catch (const std::exception& e) {
    // Any other exception type is a difference in itself.
    out.code = ErrorCode::Internal;
    out.text = std::string("non-precondition exception: ") + e.what();
  }
  return out;
}

std::string describe(const Outcome& o) {
  return o.accepted ? "accepted" : std::string("rejected [") + error_code_name(o.code) +
                                       "] " + o.text;
}

// What a seed is, beyond a JSON document: every input is also compared as
// one of these.
enum class Target { Kit, Registry, Request };

class Differential {
 public:
  void check(Target target, const std::string& input) {
    ++checked_;
    compare("json", input, run([&] { return tree_text(parse_json(input, "doc")); }),
            run([&] { return tree_text(oracle::parse_json(input, "doc")); }));
    switch (target) {
      case Target::Kit: {
        const auto rewrite = [](const std::string& text) {
          return kits::kit_json(kits::parse_kit_json(text));
        };
        const Outcome got = run([&] { return rewrite(input); });
        compare("kit", input, got,
                run([&] { return kits::kit_json(kits::oracle::parse_kit_json(input)); }));
        fixed_point("kit", got, rewrite);
        break;
      }
      case Target::Registry: {
        const auto rewrite = [](const std::string& text) {
          return kits::registry_json(kits::parse_registry_json(text));
        };
        const Outcome got = run([&] { return rewrite(input); });
        compare("registry", input, got, run([&] {
                  return kits::registry_json(kits::oracle::parse_registry_json(input));
                }));
        fixed_point("registry", got, rewrite);
        break;
      }
      case Target::Request:
        // The service's path: one parse, its error carried to the reader.
        compare("request", input, run([&] {
                  return request_text(
                      serve::parse_request(serve::parse_request_document(input)));
                }),
                run([&] { return request_text(serve::oracle::parse_request(input)); }));
        break;
    }
  }

  std::size_t checked() const { return checked_; }
  std::size_t accepted() const { return accepted_; }
  std::size_t mismatches() const { return mismatches_; }
  std::size_t fixed_point_checks() const { return fixed_point_checks_; }
  std::size_t fixed_point_misses() const { return fixed_point_misses_; }

 private:
  // The reader and the writer held to each other: the text written for an
  // accepted input reads back to a value that is written byte for byte the
  // same, i.e. write(read(write(x))) == write(x).
  void fixed_point(const char* what, const Outcome& got,
                   const std::function<std::string(const std::string&)>& rewrite) {
    if (!got.accepted) return;
    ++fixed_point_checks_;
    const Outcome again = run([&] { return rewrite(got.text); });
    if (again.accepted && again.text == got.text) return;
    if (++fixed_point_misses_ <= 5) {
      ADD_FAILURE() << what << " is not a fixed point of read and write: '"
                    << got.text.substr(0, 300) << "'\n  reread: " << describe(again);
    }
  }

  void compare(const char* what, const std::string& input, const Outcome& got,
               const Outcome& want) {
    if (want.accepted) ++accepted_;
    if (got == want) return;
    if (++mismatches_ <= 5) {
      ADD_FAILURE() << what << " differs on input (" << input.size() << " bytes) '"
                    << input.substr(0, 300) << "'\n  tape:   " << describe(got)
                    << "\n  oracle: " << describe(want);
    }
  }

  std::size_t checked_ = 0;
  std::size_t accepted_ = 0;  // counted per compared target
  std::size_t mismatches_ = 0;
  std::size_t fixed_point_checks_ = 0;
  std::size_t fixed_point_misses_ = 0;
};

// Number and escape spellings where std::from_chars and strtod, or the
// decoded and raw forms of a string, could part ways; plus structural
// tokens that turn one valid document into a near miss.
const char* const kTokens[] = {
    "1e-400", "-1e-400", "1e999", "-1e999", "0123", "-.5", "1.", "-", "--1", "-0",
    "1e", "1e+", "1E-5", ".5", "1.e5", "2.4703282292062328e-324",
    "2.4703282292062327e-324", "4.9406564584124654e-324", "2.2250738585072011e-308",
    "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
    "0.30000000000000004", "123456789012345678901234567890", "1e-5e5", "1-2", "+1",
    "\"\\u0041\"", "\"\\u00e9\"", "\"\\u004\"", "\"\\q\"", "\"a\\\"b\"", "\"\\/\"", "true",
    "fals", "null", ",", ":", "{", "}", "[", "]", "\"", "\"name\"", "\"n\\u0061me\"",
    "\"dup\": 1, \"dup\": 2", " ", "\n"};

class Mutator {
 public:
  Mutator(const std::vector<std::string>& seeds, std::uint64_t seed)
      : seeds_(seeds), rng_(seed) {}

  std::string mutate(std::string s) {
    const int rounds = 1 + static_cast<int>(below(3) == 0);
    for (int r = 0; r < rounds; ++r) s = mutate_once(std::move(s));
    return s;
  }

 private:
  std::size_t below(std::size_t n) { return n == 0 ? 0 : rng_.next_u32() % n; }

  std::string mutate_once(std::string s) {
    switch (below(7)) {
      case 0: {  // bit flips
        if (s.empty()) return s;
        const std::size_t flips = 1 + below(4);
        for (std::size_t i = 0; i < flips; ++i) {
          s[below(s.size())] ^= static_cast<char>(1u << below(8));
        }
        return s;
      }
      case 1: {  // splice a range of some seed over a range of this one
        const std::string& other = seeds_[below(seeds_.size())];
        const std::size_t from = below(other.size() + 1);
        const std::size_t len = below(std::min<std::size_t>(other.size() - from, 64) + 1);
        const std::size_t at = below(s.size() + 1);
        const std::size_t cut = below(std::min<std::size_t>(s.size() - at, 64) + 1);
        return s.replace(at, cut, other, from, len);
      }
      case 2:  // truncation
        return s.substr(0, below(s.size() + 1));
      case 3: {  // depth bomb straddling the 64-level cap
        const std::size_t depth = 56 + below(16);
        const bool objects = below(2) == 0;
        std::string open, close;
        for (std::size_t i = 0; i < depth; ++i) {
          open += objects ? "{\"a\": " : "[";
          close += objects ? "}" : "]";
        }
        const std::size_t at = below(s.size() + 1);
        return s.substr(0, at) + open + (below(2) == 0 ? "1" : "") +
               (below(4) == 0 ? std::string() : close) + s.substr(at);
      }
      case 4: {  // insert an edge-case token
        const std::size_t at = below(s.size() + 1);
        return s.insert(at, kTokens[below(std::size(kTokens))]);
      }
      case 5: {  // replace a short range (a number, a key, ...) by a token
        const std::size_t at = below(s.size() + 1);
        const std::size_t cut = below(std::min<std::size_t>(s.size() - at, 12) + 1);
        return s.replace(at, cut, kTokens[below(std::size(kTokens))]);
      }
      default:
        return escape_a_key(std::move(s));
    }
  }

  // Spells the first character of some object's first key as a \u escape:
  // in place (the readers must match decoded keys), or next to a plain copy
  // of that key, before or after it (a duplicate only decoding reveals).
  std::string escape_a_key(std::string s) {
    std::vector<std::size_t> keys;  // the opening quote of each first key
    for (std::size_t i = s.find('{'); i != std::string::npos; i = s.find('{', i + 1)) {
      const std::size_t q = s.find_first_not_of(" \n\r\t", i + 1);
      if (q != std::string::npos && s[q] == '"' && q + 1 < s.size() && s[q + 1] != '"' &&
          s[q + 1] != '\\') {
        keys.push_back(q);
      }
    }
    if (keys.empty()) return s;
    const std::size_t q = keys[below(keys.size())];
    const std::size_t close = s.find('"', q + 1);
    if (close == std::string::npos) return s;
    char escape[8];
    std::snprintf(escape, sizeof escape, "\\u%04x", static_cast<unsigned char>(s[q + 1]));
    const std::string spelled = '"' + std::string(escape) + s.substr(q + 2, close - q - 1);
    const std::string plain = s.substr(q, close - q + 1);
    switch (below(3)) {
      case 0: return s.replace(q, close - q + 1, spelled);
      case 1: return s.insert(q, spelled + ": 0, ");
      default: return s.replace(q, close - q + 1, plain + ": 0, " + spelled);
    }
  }

  const std::vector<std::string>& seeds_;
  Pcg32 rng_;
};

// Every enum's tokens in kit documents, one list per enum.
const std::vector<std::vector<std::string>> kEnumTokens = {
    {"experimental", "pilot", "production", "mature"},
    {"pcb", "mcm-d", "mcm-d-ip", "ltcc", "organic-ep", "si-interposer"},
    {"all-smd", "all-integrated", "optimized"},
    {"packaged-smt", "wire-bond", "flip-chip"},
    {"pcb-line", "mcm-line"},
    {"si3n4", "batio"},
    {"per-step", "per-joint"}};

// Mutants that change one value and leave the document's shape alone, so
// that many of them are accepted: a number moved one ulp (0 to -0 and
// back), a number respelled with the same value, or an enum token
// replaced by another token of its enum.
class ValueMutator {
 public:
  explicit ValueMutator(std::uint64_t seed) : rng_(seed, 0x76616c7565ULL) {}

  std::string mutate(std::string s) {
    const std::size_t kind = below(3);
    if (kind == 2) {
      std::vector<std::pair<std::size_t, const std::vector<std::string>*>> enums;
      for (const std::vector<std::string>& tokens : kEnumTokens) {
        for (const std::string& token : tokens) {
          const std::string value = "\": \"" + token + '"';
          for (std::size_t at = s.find(value); at != std::string::npos;
               at = s.find(value, at + 1)) {
            enums.emplace_back(at + 4, &tokens);
          }
        }
      }
      if (!enums.empty()) {
        const auto& [at, tokens] = enums[below(enums.size())];
        const std::size_t len = s.find('"', at) - at;
        std::string other = s.substr(at, len);
        while (other == s.substr(at, len)) other = (*tokens)[below(tokens->size())];
        return s.replace(at, len, other);
      }
    }
    // A number: a value token after ':', '[' or ','.
    std::vector<std::size_t> numbers;
    for (std::size_t i = 1; i < s.size(); ++i) {
      if (!std::strchr("-0123456789", s[i]) || std::strchr("-.0123456789eE+", s[i - 1])) continue;
      const std::size_t prev = s.find_last_not_of(" \n\t\r", i - 1);
      if (prev != std::string::npos && std::strchr(":[,", s[prev])) numbers.push_back(i);
    }
    if (numbers.empty()) return s;
    const std::size_t at = numbers[below(numbers.size())];
    const std::size_t len = s.find_first_not_of("-.0123456789eE+", at) - at;
    const std::string token = s.substr(at, len);
    if (kind == 1) {  // the same value, spelled otherwise
      const std::size_t e = token.find_first_of("eE");
      return e == std::string::npos ? s.insert(at + len, "e0")
                                    : s.replace(at + e, 1, token[e] == 'e' ? "E" : "e");
    }
    const double v = std::strtod(token.c_str(), nullptr);
    const double w = v == 0.0 ? -v : std::nextafter(v, below(2) == 0 ? -HUGE_VAL : HUGE_VAL);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", w);
    return s.replace(at, len, buf);
  }

 private:
  std::size_t below(std::size_t n) { return n == 0 ? 0 : rng_.next_u32() % n; }

  Pcg32 rng_;
};

// A kit or registry document as written back two ways: its kit_json (or
// registry_json) text and its kits' append_kit_key bytes, one kit after
// another.  Empty when the document is rejected.
struct Written {
  std::string json, key;
};

std::optional<Written> written(Target target, const std::string& text) {
  Written w;
  try {
    if (target == Target::Kit) {
      const kits::ProcessKit kit = kits::parse_kit_json(text);
      w.json = kits::kit_json(kit);
      kits::append_kit_key(w.key, kit);
    } else {
      const kits::KitRegistry registry = kits::parse_registry_json(text);
      w.json = kits::registry_json(registry);
      for (const kits::ProcessKit& kit : registry.kits()) kits::append_kit_key(w.key, kit);
    }
  } catch (const PreconditionError&) {
    return std::nullopt;
  }
  return w;
}

struct Seed {
  Target target;
  std::string text;
};

std::vector<Seed> seeds() {
  std::vector<Seed> out;
  std::vector<std::filesystem::path> corpus;
  for (const auto& entry : std::filesystem::directory_iterator(IPASS_KIT_CORPUS_DIR)) {
    if (entry.path().extension() == ".json") corpus.push_back(entry.path());
  }
  std::sort(corpus.begin(), corpus.end());
  for (const auto& path : corpus) out.push_back({Target::Kit, read_file(path)});
  const kits::KitRegistry registry = kits::builtin_kit_registry();
  for (const kits::ProcessKit& kit : registry.kits()) {
    out.push_back({Target::Kit, kits::kit_json(kit)});
  }
  out.push_back({Target::Registry, kits::registry_json(registry)});
  for (const std::string& line :
       serve::read_request_log(std::string(IPASS_SERVE_LOG_DIR) + "/requests.log")) {
    out.push_back({Target::Request, line});
  }
  return out;
}

TEST(JsonDifferential, SeedsAgreeWithTheOracle) {
  const std::vector<Seed> all = seeds();
  ASSERT_GE(all.size(), 28u + 7u + 1u + 16u);  // corpus, kits, registry, log
  Differential diff;
  for (const Seed& seed : all) diff.check(seed.target, seed.text);
  EXPECT_EQ(diff.mismatches(), 0u);
  EXPECT_GT(diff.accepted(), 0u);  // the built-in kits and the good requests
}

TEST(JsonDifferential, MutantsAgreeWithTheOracle) {
  const std::vector<Seed> all = seeds();
  std::vector<std::string> texts;
  for (const Seed& s : all) texts.push_back(s.text);
  Differential diff;
  constexpr std::size_t kMutantsPerSeed = 120;
  for (std::size_t i = 0; i < all.size(); ++i) {
    Mutator mutator(texts, 0x6a736f6eu + i);
    for (std::size_t m = 0; m < kMutantsPerSeed; ++m) {
      diff.check(all[i].target, mutator.mutate(all[i].text));
    }
  }
  // Value-only mutants of the kit and registry seeds, on a stream of their
  // own (the mutants above keep their bytes).  Where a seed and its mutant
  // are both accepted, their key bytes are equal exactly when their texts
  // are.
  constexpr std::size_t kValueMutantsPerSeed = 60;
  std::size_t key_checks = 0, key_misses = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].target == Target::Request) continue;
    const std::optional<Written> seed = written(all[i].target, all[i].text);
    ValueMutator mutator(0x6a736f6eu + i);
    for (std::size_t m = 0; m < kValueMutantsPerSeed; ++m) {
      const std::string mutant = mutator.mutate(all[i].text);
      diff.check(all[i].target, mutant);
      const std::optional<Written> got = written(all[i].target, mutant);
      if (!seed || !got) continue;
      ++key_checks;
      if ((got->key == seed->key) != (got->json == seed->json) && ++key_misses <= 5) {
        ADD_FAILURE() << "key and text disagree on whether mutant '" << mutant.substr(0, 300)
                      << "' equals its seed (texts " << (got->json == seed->json ? "" : "un")
                      << "equal)";
      }
    }
  }
  EXPECT_GT(key_checks, 0u);
  EXPECT_EQ(key_misses, 0u) << "of " << key_checks << " accepted value-only mutants";
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checked() << " mutants";
  // Every accepted kit and registry mutant is also a fixed point of read and
  // write (some must be accepted for that to mean anything).
  EXPECT_GT(diff.fixed_point_checks(), 0u);
  EXPECT_EQ(diff.fixed_point_misses(), 0u)
      << "of " << diff.fixed_point_checks() << " accepted kit and registry mutants";
  // The mutants must exercise the accept path too, not only rejections.
  EXPECT_GT(diff.accepted(), diff.checked() / 20);
}

}  // namespace
}  // namespace ipass
