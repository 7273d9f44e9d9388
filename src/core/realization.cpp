#include "core/realization.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <utility>

#include "common/error.hpp"
#include "common/strfmt.hpp"
#include "rf/cauer.hpp"
#include "rf/matching.hpp"
#include "rf/transform.hpp"
#include "tech/smd.hpp"

namespace ipass::core {

const char* mount_name(Mount mount) {
  switch (mount) {
    case Mount::Smd: return "SMD";
    case Mount::Integrated: return "integrated";
    case Mount::Die: return "die";
  }
  return "?";
}

const char* filter_style_name(FilterStyle style) {
  switch (style) {
    case FilterStyle::SmdBlock: return "SMD block";
    case FilterStyle::Integrated: return "integrated";
    case FilterStyle::Hybrid: return "hybrid (SMD L + IP C/R)";
  }
  return "?";
}

int RealizedBom::smd_placement_count() const {
  int n = 0;
  for (const ComponentInstance& c : components) {
    if (c.mount == Mount::Smd) n += c.count;
  }
  return n;
}

double RealizedBom::smd_parts_cost() const {
  double sum = 0.0;
  for (const ComponentInstance& c : components) {
    if (c.mount == Mount::Smd) sum += c.unit_price * c.count;
  }
  return sum;
}

double RealizedBom::area_mm2(Mount mount) const {
  double sum = 0.0;
  for (const ComponentInstance& c : components) {
    if (c.mount == mount) sum += c.area_mm2 * c.count;
  }
  return sum;
}

double RealizedBom::total_component_area_mm2() const {
  double sum = 0.0;
  for (const ComponentInstance& c : components) sum += c.area_mm2 * c.count;
  return sum;
}

layout::AreaBreakdown RealizedBom::breakdown() const {
  layout::AreaBreakdown b;
  for (const ComponentInstance& c : components) {
    b.add(c.area_category, c.name, c.area_mm2, c.count);
  }
  return b;
}

FilterStyle filter_style_for(const FilterSpec& spec, PassivePolicy policy) {
  switch (policy) {
    case PassivePolicy::AllSmd:
      return FilterStyle::SmdBlock;
    case PassivePolicy::AllIntegrated:
      return FilterStyle::Integrated;
    case PassivePolicy::Optimized:
      // Performance assessment drives this choice (paper 4.1): filters whose
      // fully integrated realization misses the loss spec keep SMD
      // inductors; everything else integrates (12 mm^2 beats 27.5 mm^2).
      return spec.hybrid_preferred ? FilterStyle::Hybrid : FilterStyle::Integrated;
  }
  throw PreconditionError("filter_style_for: unknown policy");
}

namespace {

rf::LadderPrototype make_prototype(const FilterSpec& spec) {
  switch (spec.family) {
    case rf::FilterFamily::Butterworth:
      return rf::butterworth(spec.order);
    case rf::FilterFamily::Chebyshev:
      return rf::chebyshev(spec.order, spec.ripple_db);
    case rf::FilterFamily::Elliptic:
      return rf::cauer_lowpass(spec.order, spec.ripple_db, spec.selectivity);
  }
  throw PreconditionError("make_prototype: unknown family");
}

// The lossless bandpass ladders of the last kLadderMemoCapacity filter
// specs, process-wide.  A ladder depends on the spec alone, never on the
// kit, so every study over one BOM shares its filters' ladders: only the
// Q models and the areas a kit puts on them are recomputed.  Keyed on the
// bits of the seven fields synthesis reads; the oldest entry goes first.
// Synthesis runs outside the lock, and a spec that fails to synthesize is
// not kept, so it throws again on the next call.
class LadderMemo {
 public:
  using Ladder = std::shared_ptr<const rf::Circuit>;

  Ladder get(const FilterSpec& spec) {
    const Key key = key_of(spec);
    {
      const std::lock_guard<std::mutex> lock(m_);
      if (const Ladder* hit = find(key)) return *hit;
    }
    Ladder ladder = std::make_shared<const rf::Circuit>(
        rf::realize_bandpass(make_prototype(spec), spec.f0_hz, spec.bw_hz, spec.z0));
    const std::lock_guard<std::mutex> lock(m_);
    if (const Ladder* raced = find(key)) return *raced;
    if (entries_.size() < kLadderMemoCapacity) {
      entries_.push_back({key, ladder});
    } else {
      entries_[oldest_] = {key, ladder};
      oldest_ = (oldest_ + 1) % kLadderMemoCapacity;
    }
    return ladder;
  }

 private:
  using Key = std::array<std::uint64_t, 7>;

  static std::uint64_t bits(double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
  }
  static Key key_of(const FilterSpec& s) {
    return {static_cast<std::uint64_t>(s.family), static_cast<std::uint64_t>(s.order),
            bits(s.ripple_db), bits(s.selectivity), bits(s.f0_hz), bits(s.bw_hz),
            bits(s.z0)};
  }
  const Ladder* find(const Key& key) const {
    for (const auto& [k, ladder] : entries_) {
      if (k == key) return &ladder;
    }
    return nullptr;
  }

  std::mutex m_;
  std::vector<std::pair<Key, Ladder>> entries_;
  std::size_t oldest_ = 0;
};

std::shared_ptr<const rf::Circuit> lossless_ladder(const FilterSpec& spec) {
  static LadderMemo memo;
  return memo.get(spec);
}

// integrated_filter_area_mm2 on the filter's own ladder, which reads only
// element kinds and values (so Q models never matter here).
double integrated_area_mm2(const rf::Circuit& ladder, FilterStyle style,
                           const TechKits& kits) {
  double area = 0.0;
  int integrated_elements = 0;
  for (const rf::Element& e : ladder.elements()) {
    switch (e.kind) {
      case rf::ElementKind::Inductor:
        if (style == FilterStyle::Hybrid) continue;  // SMD part, counted separately
        area += tech::design_spiral(kits.spiral, e.value).area_mm2;
        ++integrated_elements;
        break;
      case rf::ElementKind::Capacitor:
        area += tech::capacitor_area_mm2(kits.precision_cap, e.value);
        ++integrated_elements;
        break;
      case rf::ElementKind::Resistor:
        area += tech::resistor_area_mm2(kits.resistor_process, e.value);
        ++integrated_elements;
        break;
    }
  }
  area += kits.integrated_filter_spacing_mm2 * integrated_elements;
  return area * kits.integrated_filter_overhead;
}

}  // namespace

rf::Circuit synthesize_filter(const FilterSpec& spec, FilterStyle style,
                              const TechKits& kits) {
  require(style != FilterStyle::SmdBlock,
          "synthesize_filter: SMD blocks are catalog parts, not synthesized");
  rf::Circuit ckt = *lossless_ladder(spec);

  // Assign per-element quality models.
  const rf::QModel cap_q = kits.precision_cap.quality;
  for (std::size_t i = 0; i < ckt.elements().size(); ++i) {
    const rf::Element& e = ckt.elements()[i];
    switch (e.kind) {
      case rf::ElementKind::Capacitor:
        ckt.set_quality(i, cap_q);
        break;
      case rf::ElementKind::Inductor:
        if (style == FilterStyle::Hybrid) {
          ckt.set_quality(i, tech::smd_quality(tech::SmdKind::Inductor));
        } else {
          ckt.set_quality(i, tech::design_spiral(kits.spiral, e.value).q_model);
        }
        break;
      case rf::ElementKind::Resistor:
        break;
    }
  }
  return ckt;
}

double integrated_filter_area_mm2(const FilterSpec& spec, FilterStyle style,
                                  const TechKits& kits) {
  require(style != FilterStyle::SmdBlock,
          "integrated_filter_area_mm2: SMD blocks use their catalog footprint");
  return integrated_area_mm2(*lossless_ladder(spec), style, kits);
}

namespace {

void realize_filters(const FunctionalBom& bom, const BuildUp& buildup, const TechKits& kits,
                     RealizedBom& out) {
  for (const FilterSpec& f : bom.filters) {
    RealizedFilter rf_info;
    rf_info.spec = f;
    rf_info.style = filter_style_for(f, buildup.policy);

    switch (rf_info.style) {
      case FilterStyle::SmdBlock: {
        ComponentInstance c;
        c.name = f.smd_block.name.empty() ? f.name + " (SMD block)" : f.smd_block.name;
        c.mount = Mount::Smd;
        c.area_category = layout::AreaCategory::Filters;
        c.area_mm2 = f.smd_block.footprint_area_mm2;
        c.unit_price = tech::filter_block_price(f.smd_block, buildup.parts_grade);
        c.count = f.count;
        rf_info.area_mm2 = c.area_mm2;
        out.components.push_back(std::move(c));
        break;
      }
      case FilterStyle::Integrated: {
        ComponentInstance c;
        c.name = f.name + " (integrated)";
        c.mount = Mount::Integrated;
        c.area_category = layout::AreaCategory::Filters;
        c.area_mm2 = integrated_filter_area_mm2(f, FilterStyle::Integrated, kits);
        c.count = f.count;
        rf_info.area_mm2 = c.area_mm2;
        out.components.push_back(std::move(c));
        break;
      }
      case FilterStyle::Hybrid: {
        // Integrated portion (capacitors/resistors).
        ComponentInstance ip;
        ip.name = f.name + " (IP portion)";
        ip.mount = Mount::Integrated;
        ip.area_category = layout::AreaCategory::Filters;
        const std::shared_ptr<const rf::Circuit> ladder = lossless_ladder(f);
        ip.area_mm2 = integrated_area_mm2(*ladder, FilterStyle::Hybrid, kits);
        ip.count = f.count;
        // SMD inductors; the case size follows the largest value in the
        // filter (VHF resonators need 1206 bodies).
        const int inductors = rf::count_elements(*ladder).inductors;
        double max_l = 0.0;
        for (const rf::Element& e : ladder->elements()) {
          if (e.kind == rf::ElementKind::Inductor) max_l = std::max(max_l, e.value);
        }
        const tech::SmdCase l_case = tech::inductor_case_for(max_l);
        ComponentInstance l;
        l.name = f.name + " SMD inductor";
        l.mount = Mount::Smd;
        l.area_category = layout::AreaCategory::Filters;
        l.area_mm2 = tech::smd_spec(l_case).footprint_area_mm2;
        l.unit_price =
            tech::smd_price(tech::SmdKind::Inductor, l_case, buildup.parts_grade);
        l.count = inductors * f.count;
        rf_info.area_mm2 = ip.area_mm2 + l.area_mm2 * inductors;
        rf_info.smd_inductors_per_filter = inductors;
        out.components.push_back(std::move(ip));
        out.components.push_back(std::move(l));
        break;
      }
    }
    out.filters.push_back(std::move(rf_info));
  }
}

// Area/price of a generic passive under a given mounting.
struct PartRealization {
  double area_mm2 = 0.0;
  double price = 0.0;
};

PartRealization smd_part(tech::SmdKind kind, tech::PartsGrade grade) {
  const tech::SmdCase code = tech::default_case(kind);
  return {tech::smd_spec(code).footprint_area_mm2, tech::smd_price(kind, code, grade)};
}

// Pick SMD or integrated by the optimized min-area rule.
Mount pick_mount(PassivePolicy policy, double smd_area, double ip_area) {
  switch (policy) {
    case PassivePolicy::AllSmd: return Mount::Smd;
    case PassivePolicy::AllIntegrated: return Mount::Integrated;
    case PassivePolicy::Optimized:
      return smd_area < ip_area ? Mount::Smd : Mount::Integrated;
  }
  throw PreconditionError("pick_mount: unknown policy");
}

void push_part(RealizedBom& out, const std::string& name, Mount mount,
               layout::AreaCategory category, double area, double price, int count) {
  ComponentInstance c;
  c.name = name;
  c.mount = mount;
  c.area_category = category;
  c.area_mm2 = area;
  c.unit_price = mount == Mount::Smd ? price : 0.0;
  c.count = count;
  out.components.push_back(std::move(c));
}

void realize_discretes(const FunctionalBom& bom, const BuildUp& buildup,
                       const TechKits& kits, RealizedBom& out) {
  const tech::PartsGrade grade = buildup.parts_grade;

  for (const MatchingSpec& m : bom.matchings) {
    // A matching network is one L-section: one inductor + one capacitor.
    const rf::LSection design = rf::design_l_section(m.f0_hz, m.r_source, m.r_load);
    const PartRealization smd_l = smd_part(tech::SmdKind::Inductor, grade);
    const PartRealization smd_c = smd_part(tech::SmdKind::Capacitor, grade);
    const double ip_l = tech::design_spiral(kits.spiral, design.series_l).area_mm2;
    const double ip_c = tech::capacitor_area_mm2(kits.precision_cap, design.shunt_c);
    const Mount mount_l = pick_mount(buildup.policy, smd_l.area_mm2, ip_l);
    const Mount mount_c = pick_mount(buildup.policy, smd_c.area_mm2, ip_c);
    push_part(out, m.name + " L", mount_l, layout::AreaCategory::Passives,
              mount_l == Mount::Smd ? smd_l.area_mm2 : ip_l, smd_l.price, m.count);
    push_part(out, m.name + " C", mount_c, layout::AreaCategory::Passives,
              mount_c == Mount::Smd ? smd_c.area_mm2 : ip_c, smd_c.price, m.count);
  }

  for (const DecapSpec& d : bom.decaps) {
    const PartRealization smd = smd_part(tech::SmdKind::DecouplingCap, grade);
    const double ip_area = tech::capacitor_area_mm2(kits.decap_cap, d.farad);
    const Mount mount = pick_mount(buildup.policy, smd.area_mm2, ip_area);
    push_part(out, d.name, mount, layout::AreaCategory::DecouplingCaps,
              mount == Mount::Smd ? smd.area_mm2 : ip_area, smd.price, d.count);
  }

  for (const ResistorSpec& r : bom.resistors) {
    const PartRealization smd = smd_part(tech::SmdKind::Resistor, grade);
    const double ip_area = tech::resistor_area_mm2(kits.resistor_process, r.ohms);
    const Mount mount = pick_mount(buildup.policy, smd.area_mm2, ip_area);
    push_part(out, r.name, mount, layout::AreaCategory::Passives,
              mount == Mount::Smd ? smd.area_mm2 : ip_area, smd.price, r.count);
  }

  for (const CapacitorSpec& c : bom.capacitors) {
    const PartRealization smd = smd_part(tech::SmdKind::Capacitor, grade);
    const double ip_area = tech::capacitor_area_mm2(kits.precision_cap, c.farad);
    const Mount mount = pick_mount(buildup.policy, smd.area_mm2, ip_area);
    push_part(out, c.name, mount, layout::AreaCategory::Passives,
              mount == Mount::Smd ? smd.area_mm2 : ip_area, smd.price, c.count);
  }
}

}  // namespace

RealizedBom realize_bom(const FunctionalBom& bom, const BuildUp& buildup,
                        const TechKits& kits) {
  require(buildup.policy == PassivePolicy::AllSmd ||
              buildup.substrate.supports_integrated_passives,
          "realize_bom: substrate technology cannot host integrated passives");

  RealizedBom out;

  // Dies.
  for (const tech::DieSpec* die : {&kits.rf_die, &kits.dsp_die}) {
    ComponentInstance c;
    c.name = die->name + strf(" (%s)", tech::die_attach_name(buildup.die_attach));
    c.mount = Mount::Die;
    c.area_category = layout::AreaCategory::Dies;
    c.area_mm2 = tech::die_area_mm2(*die, buildup.die_attach);
    c.count = 1;
    out.components.push_back(std::move(c));
  }

  realize_filters(bom, buildup, kits, out);
  realize_discretes(bom, buildup, kits, out);
  return out;
}

}  // namespace ipass::core
