// JSON exchange for process kits: kits are data, not code.
//
// The serializer uses the library's one JSON writer (common/jsonfmt.hpp,
// shared with core::export and the served responses): every double in the
// %.17g format of the golden files, which round-trips IEEE-754 binary64
// exactly; the loader reads back the nearest binary64 — so kit -> JSON ->
// kit is bit-identical field for field, and a kit file produced on one
// machine reproduces the same assessment everywhere.  The loader validates on the
// way in (validate_kit): out-of-range yields, negative costs and duplicate
// kit names are rejected with messages naming the kit and field.
//
// The format is described once, in kit_json.cpp: one fields() function per
// object (registry, kit, substrate, passives, ..., die) lists its keys in
// document order, and one token table per enum lists its tokens.  The
// writer, the reader and the cache-key writer all walk those lists, so a
// new field is added there, once, and is then written, read and keyed
// alike.
#pragma once

#include <string>

#include "common/json.hpp"
#include "kits/registry.hpp"

namespace ipass::kits {

// One kit as a JSON object, appended to `out`.  Throws PreconditionError
// on a non-finite number; `out` then holds a partial document.
void append_kit_json(std::string& out, const ProcessKit& kit);

// The same fields as bytes, for a cache key (the served study cache key
// embeds them): each double's 8 bytes, each string and array after its
// length, each enum as its underlying value, in the order kit_json writes
// them.  Two kits get equal bytes exactly when kit_json gives them equal
// text (bar enum values outside their token tables, which no document
// can produce and only the bytes tell apart), and the bytes cost a
// fraction of the text to write.  Throws like
// append_kit_json on a non-finite number.  Not a file format: the bytes
// follow the host's endianness and the fields' in-memory widths.
void append_kit_key(std::string& out, const ProcessKit& kit);

// The same as a string of its own.
std::string kit_json(const ProcessKit& kit);

// A whole registry: {"kits": [ ... ]} in insertion order.
std::string registry_json(const KitRegistry& registry);

// Parse one kit object.  Throws PreconditionError on malformed JSON,
// unknown enum tokens, missing required fields, or contract violations.
ProcessKit parse_kit_json(const std::string& text);

// The same from a value of an already-parsed document — for documents that
// embed a kit object inside a larger envelope (the serve wire protocol's
// inline kits).  Validation is identical to parse_kit_json.
ProcessKit parse_kit_json_value(JsonRef value);

// Parse a registry document; duplicate kit names are rejected.
KitRegistry parse_registry_json(const std::string& text);

}  // namespace ipass::kits
