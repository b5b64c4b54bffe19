#include "runner/grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "sim/parse.hpp"
#include "traffic/registry.hpp"
#include "workloads/stamp.hpp"

namespace puno::runner {

namespace {

/// One parse overload per knob field type: unsigned integers (range-checked
/// against the field's width), finite doubles, bools and spelled enums.
template <class T>
  requires(std::is_unsigned_v<T> && !std::is_same_v<T, bool>)
[[nodiscard]] bool parse(std::string_view v, T& out) {
  return sim::parse_number(v, out);
}

[[nodiscard]] bool parse(std::string_view v, double& out) {
  return sim::parse_number(v, out);
}

[[nodiscard]] bool parse(std::string_view v, bool& out) {
  if (v == "1" || v == "true" || v == "on") {
    out = true;
    return true;
  }
  if (v == "0" || v == "false" || v == "off") {
    out = false;
    return true;
  }
  return false;
}

template <SpelledEnum E>
[[nodiscard]] bool parse(std::string_view v, E& out) {
  const auto e = from_string<E>(v);
  if (e) out = *e;
  return e.has_value();
}

/// Resizes the mesh to n > 0 nodes: square if n is a perfect square,
/// otherwise the most square w x h factorisation (w >= h).
void set_num_nodes(SystemConfig& c, std::uint32_t n) {
  const auto r = static_cast<std::uint32_t>(
      std::lround(std::sqrt(static_cast<double>(n))));
  c.num_nodes = n;
  if (r * r == n) {
    c.noc.mesh_width = r;
    c.noc.mesh_height = 0;
    return;
  }
  std::uint32_t h = r;
  while (n % h != 0) --h;
  c.noc.mesh_width = n / h;
  c.noc.mesh_height = h;
}

/// Writes one knob from its string form. The mesh shape is a derivation,
/// not a field write: num_nodes == mesh_width * rows() must keep holding,
/// so setting a dimension recomputes num_nodes and setting num_nodes
/// re-derives the dimensions. Those three fields are told apart by address.
template <class T>
[[nodiscard]] bool set_knob(SystemConfig& c, T& field, std::string_view v) {
  T value{};
  if (!parse(v, value)) return false;
  if constexpr (std::is_same_v<T, std::uint32_t>) {
    if (&field == &c.num_nodes) {
      if (value == 0) return false;
      set_num_nodes(c, value);
      return true;
    }
    if (&field == &c.noc.mesh_width || &field == &c.noc.mesh_height) {
      if (value == 0 && &field == &c.noc.mesh_width) return false;
      field = value;  // a zero height means square
      c.num_nodes = c.noc.mesh_width * c.noc.rows();
      return true;
    }
  }
  field = value;
  return true;
}

}  // namespace

bool apply_override(SystemConfig& cfg, std::string_view key,
                    std::string_view value) {
  bool ok = false;
  for_each_knob(cfg, [&](std::string_view name, auto& field, Knob knob) {
    if (name == key && knob == Knob::kSettable) {
      ok = set_knob(cfg, field, value);
    }
  });
  return ok;
}

const std::vector<std::string>& override_keys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> k;
    const SystemConfig probe;
    for_each_knob(probe, [&k](const char* name, const auto&, Knob knob) {
      if (knob == Knob::kSettable) k.emplace_back(name);
    });
    std::sort(k.begin(), k.end());
    return k;
  }();
  return keys;
}

std::vector<std::string> split_list(std::string_view csv) {
  std::vector<std::string> out;
  while (!csv.empty()) {
    const std::size_t comma = csv.find(',');
    const std::string_view piece = csv.substr(0, comma);
    if (!piece.empty()) out.emplace_back(piece);
    if (comma == std::string_view::npos) break;
    csv.remove_prefix(comma + 1);
  }
  return out;
}

std::vector<std::uint64_t> parse_seed_list(std::string_view spec) {
  std::vector<std::uint64_t> seeds;
  if (const std::size_t dots = spec.find(".."); dots != std::string_view::npos) {
    std::uint64_t lo = 0, hi = 0;
    if (!sim::parse_number(spec.substr(0, dots), lo) ||
        !sim::parse_number(spec.substr(dots + 2), hi) || hi < lo) {
      throw std::invalid_argument("bad seed range '" + std::string(spec) +
                                  "' (expected e.g. 1..8)");
    }
    for (std::uint64_t s = lo; s <= hi; ++s) seeds.push_back(s);
    return seeds;
  }
  for (const std::string& piece : split_list(spec)) {
    std::uint64_t s = 0;
    if (!sim::parse_number(piece, s)) {
      throw std::invalid_argument("bad seed '" + piece + "'");
    }
    seeds.push_back(s);
  }
  if (seeds.empty()) {
    throw std::invalid_argument("empty seed list '" + std::string(spec) + "'");
  }
  return seeds;
}

std::vector<Scheme> parse_scheme_list(std::string_view spec) {
  if (spec == "all") {
    return {std::begin(kAllSchemes), std::end(kAllSchemes)};
  }
  std::vector<Scheme> schemes;
  for (const std::string& piece : split_list(spec)) {
    const auto s = scheme_from_string(piece);
    if (!s) throw std::invalid_argument("unknown scheme '" + piece + "'");
    schemes.push_back(*s);
  }
  if (schemes.empty()) {
    throw std::invalid_argument("empty scheme list '" + std::string(spec) +
                                "'");
  }
  return schemes;
}

std::vector<std::string> parse_workload_list(std::string_view spec) {
  // "all" keeps its historical meaning (the 8 closed-loop STAMP profiles);
  // "traffic" expands to the open-loop kernels; any registry name works
  // explicitly. The two groups compose: "all,traffic" runs everything.
  std::vector<std::string> names;
  const auto known = traffic::registry::names();
  for (const std::string& piece : split_list(spec)) {
    if (piece == "all") {
      const auto& stamp = workloads::stamp::benchmark_names();
      names.insert(names.end(), stamp.begin(), stamp.end());
    } else if (piece == "traffic") {
      for (const auto& e : traffic::registry::entries()) {
        if (e.open_loop) names.push_back(e.name);
      }
    } else if (std::find(known.begin(), known.end(), piece) != known.end()) {
      names.push_back(piece);
    } else {
      throw std::invalid_argument("unknown workload '" + piece +
                                  "' (see --list-workloads)");
    }
  }
  if (names.empty()) {
    throw std::invalid_argument("empty workload list '" + std::string(spec) +
                                "'");
  }
  return names;
}

std::vector<JobSpec> expand_grid(const GridSpec& grid) {
  for (const std::string& w : grid.workloads) {
    if (!traffic::registry::known(w)) {
      throw std::invalid_argument("unknown workload '" + w + "'");
    }
  }
  const auto& keys = override_keys();
  for (const OverrideAxis& axis : grid.overrides) {
    if (!std::binary_search(keys.begin(), keys.end(), axis.key)) {
      throw std::invalid_argument("unknown override key '" + axis.key +
                                  "' (see --list-keys)");
    }
  }

  // Expand the override axes' cross product once; each combo is a list of
  // (key, value) picks applied on top of the base config.
  struct Combo {
    SystemConfig config;
    std::string desc;   // "k=v k=v"
    std::string label;  // "/k=v/k=v"
  };
  std::vector<Combo> combos{{grid.base_config, "", ""}};
  for (const OverrideAxis& axis : grid.overrides) {
    std::vector<Combo> expanded;
    for (const Combo& base : combos) {
      for (const std::string& value : axis.values) {
        Combo c = base;
        if (!apply_override(c.config, axis.key, value)) {
          throw std::invalid_argument("bad value '" + value + "' for '" +
                                      axis.key + "'");
        }
        if (!c.desc.empty()) c.desc += ' ';
        c.desc += axis.key + "=" + value;
        c.label += "/" + axis.key + "=" + value;
        expanded.push_back(std::move(c));
      }
    }
    combos = std::move(expanded);
  }

  std::vector<JobSpec> specs;
  specs.reserve(grid.workloads.size() * grid.schemes.size() *
                grid.seeds.size() * combos.size());
  for (const std::string& w : grid.workloads) {
    for (const Scheme scheme : grid.schemes) {
      for (const std::uint64_t seed : grid.seeds) {
        for (const Combo& combo : combos) {
          JobSpec spec;
          spec.params.workload = w;
          spec.params.scheme = scheme;
          spec.params.seed = seed;
          spec.params.scale = grid.scale;
          spec.params.max_cycles = grid.max_cycles;
          spec.params.base_config = combo.config;
          spec.label = w + "/" + to_string(scheme) + "/s" +
                       std::to_string(seed) + combo.label;
          spec.overrides = combo.desc;
          specs.push_back(std::move(spec));
        }
      }
    }
  }
  return specs;
}

}  // namespace puno::runner
