#include "exp/campaign.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <set>

#include "common/check.h"
#include "common/units.h"

namespace clover::exp {
namespace {

// Shortest round-trip decimal for name tokens ("0.5", "1", "1.25").
std::string NumToken(double value) {
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  CLOVER_DCHECK(ec == std::errc());
  return std::string(buffer, end);
}

struct NamedScheme {
  const char* token;
  core::Scheme scheme;
};
constexpr NamedScheme kSchemes[] = {
    {"base", core::Scheme::kBase},     {"co2opt", core::Scheme::kCo2Opt},
    {"blover", core::Scheme::kBlover}, {"clover", core::Scheme::kClover},
    {"oracle", core::Scheme::kOracle},
};

struct NamedApp {
  const char* token;
  models::Application app;
};
constexpr NamedApp kApps[] = {
    {"detection", models::Application::kDetection},
    {"language", models::Application::kLanguage},
    {"classification", models::Application::kClassification},
};

struct NamedRouter {
  const char* token;
  fleet::RouterPolicy policy;
};
constexpr NamedRouter kRouters[] = {
    {"static", fleet::RouterPolicy::kStatic},
    {"least-loaded", fleet::RouterPolicy::kLeastLoaded},
    {"carbon-greedy", fleet::RouterPolicy::kCarbonGreedy},
};

const char* SchemeToken(core::Scheme scheme) {
  for (const NamedScheme& entry : kSchemes)
    if (entry.scheme == scheme) return entry.token;
  return "?";
}

const char* AppToken(models::Application app) {
  for (const NamedApp& entry : kApps)
    if (entry.app == app) return entry.token;
  return "?";
}

const char* RouterToken(fleet::RouterPolicy policy) {
  for (const NamedRouter& entry : kRouters)
    if (entry.policy == policy) return entry.token;
  return "?";
}

// The synthetic grid profiles addressable as single-cluster traces. Region
// presets (us-west, ...) are resolved through carbon::FindRegionPreset.
const carbon::TraceProfile* FindProfile(const std::string& name) {
  static const struct {
    const char* token;
    carbon::TraceProfile profile;
  } kProfiles[] = {
      {"ciso-march", carbon::TraceProfile::kCisoMarch},
      {"ciso-september", carbon::TraceProfile::kCisoSeptember},
      {"eso-march", carbon::TraceProfile::kEsoMarch},
  };
  for (const auto& entry : kProfiles)
    if (name == entry.token) return &entry.profile;
  return nullptr;
}

bool KnownTrace(const std::string& name) {
  return name == "flat" || name == "step" || FindProfile(name) != nullptr ||
         carbon::FindRegionPreset(name) != nullptr;
}

}  // namespace

std::string CellSpec::Name() const {
  std::string name;
  if (mode == CampaignMode::kFleet) {
    name = "fleet-";
    name += SchemeToken(scheme);
    name += "-";
    name += AppToken(app);
    name += "-";
    name += RouterToken(router);
    name += "-";
    for (std::size_t i = 0; i < regions.size(); ++i) {
      if (i) name += "+";
      name += regions[i];
    }
  } else {
    name = SchemeToken(scheme);
    name += "-";
    name += AppToken(app);
    name += "-";
    name += trace;
  }
  name += "-g" + std::to_string(gpus);
  if (mode == CampaignMode::kSingleCluster && sizing_gpus != 0 &&
      sizing_gpus != gpus)
    name += "-z" + std::to_string(sizing_gpus);
  name += "-h" + NumToken(hours);
  if (lambda != 0.5) name += "-l" + NumToken(lambda);
  if (accuracy_limit_pct) name += "-a" + NumToken(*accuracy_limit_pct);
  if (control_interval_s != 300.0) name += "-i" + NumToken(control_interval_s);
  name += "-s" + std::to_string(seed);
  if (fault_seed != 0) name += "-f" + std::to_string(fault_seed);
  if (screen != 1) name += "-x" + std::to_string(screen);
  if (region_replicas != 1) name += "-r" + std::to_string(region_replicas);
  if (meanfield) name += "-mf";
  return name;
}

std::string CellSpec::Describe() const {
  std::string text(core::SchemeName(scheme));
  text += " ";
  text += models::ApplicationName(app);
  if (mode == CampaignMode::kFleet) {
    text += " fleet (";
    for (std::size_t i = 0; i < regions.size(); ++i) {
      if (i) text += " + ";
      text += regions[i];
    }
    if (region_replicas != 1)
      text += " x " + std::to_string(region_replicas);
    text += ") under ";
    text += RouterToken(router);
    text += ", " + std::to_string(gpus) + " GPUs/region";
    if (meanfield) text += ", mean-field";
  } else {
    text += " on " + trace + ", " + std::to_string(gpus) + " GPUs";
    if (sizing_gpus != 0 && sizing_gpus != gpus)
      text += " (sized for " + std::to_string(sizing_gpus) + ")";
  }
  text += ", " + NumToken(hours) + " h, seed " + std::to_string(seed);
  if (accuracy_limit_pct)
    text += ", accuracy limit " + NumToken(*accuracy_limit_pct) + "%";
  if (fault_seed != 0)
    text += ", fault seed " + std::to_string(fault_seed);
  if (screen != 1) text += ", screen x" + std::to_string(screen);
  return text;
}

bool operator==(const CellSpec& a, const CellSpec& b) {
  return a.mode == b.mode && a.scheme == b.scheme && a.app == b.app &&
         a.trace == b.trace && a.regions == b.regions &&
         a.router == b.router && a.meanfield == b.meanfield &&
         a.region_replicas == b.region_replicas && a.gpus == b.gpus &&
         a.sizing_gpus == b.sizing_gpus && a.hours == b.hours &&
         a.lambda == b.lambda &&
         a.accuracy_limit_pct == b.accuracy_limit_pct &&
         a.control_interval_s == b.control_interval_s && a.seed == b.seed &&
         a.fault_seed == b.fault_seed && a.screen == b.screen;
}

namespace {

// --- Axis extraction -------------------------------------------------------
//
// Every axis accepts a scalar (one value) or an array; every element is
// validated in place so diagnostics point at the offending value.

std::vector<const JsonValue*> AxisValues(const JsonValue& axis) {
  std::vector<const JsonValue*> values;
  if (axis.is_array()) {
    if (axis.AsArray().empty()) axis.Fail("axis must not be empty");
    for (const JsonValue& value : axis.AsArray()) values.push_back(&value);
  } else {
    values.push_back(&axis);
  }
  return values;
}

core::Scheme ParseScheme(const JsonValue& value) {
  const std::string& token = value.AsString();
  for (const NamedScheme& entry : kSchemes)
    if (token == entry.token) return entry.scheme;
  value.Fail("unknown scheme \"" + token +
             "\" (want base|co2opt|blover|clover|oracle)");
}

models::Application ParseApp(const JsonValue& value) {
  const std::string& token = value.AsString();
  for (const NamedApp& entry : kApps)
    if (token == entry.token) return entry.app;
  value.Fail("unknown app \"" + token +
             "\" (want detection|language|classification)");
}

fleet::RouterPolicy ParseRouter(const JsonValue& value) {
  const std::string& token = value.AsString();
  for (const NamedRouter& entry : kRouters)
    if (token == entry.token) return entry.policy;
  value.Fail("unknown router \"" + token +
             "\" (want static|least-loaded|carbon-greedy)");
}

std::string ParseTraceName(const JsonValue& value) {
  const std::string& token = value.AsString();
  if (!KnownTrace(token))
    value.Fail("unknown trace preset \"" + token +
               "\" (want flat|step|ciso-march|ciso-september|eso-march or a "
               "named region preset)");
  return token;
}

int ParseIntIn(const JsonValue& value, std::int64_t lo, std::int64_t hi,
               const char* what) {
  const std::int64_t parsed = value.AsInt();
  if (parsed < lo || parsed > hi)
    value.Fail(std::string(what) + " must be in [" + std::to_string(lo) +
               ", " + std::to_string(hi) + "]");
  return static_cast<int>(parsed);
}

double ParseDoubleIn(const JsonValue& value, double lo, double hi,
                     const char* what) {
  const double parsed = value.AsNumber();
  if (!(parsed >= lo && parsed <= hi))
    value.Fail(std::string(what) + " must be in [" + NumToken(lo) + ", " +
               NumToken(hi) + "]");
  return parsed;
}

std::vector<std::string> ParseRegionList(const JsonValue& value) {
  std::vector<std::string> regions;
  for (const JsonValue& region : value.AsArray()) {
    const std::string& token = region.AsString();
    if (carbon::FindRegionPreset(token) == nullptr)
      region.Fail("unknown region preset \"" + token + "\"");
    regions.push_back(token);
  }
  if (regions.empty()) value.Fail("region list must not be empty");
  if (regions.size() > 16) value.Fail("more than 16 regions in one fleet");
  return regions;
}

sim::FaultProfile ParseFaultProfile(const JsonValue& doc) {
  // Default rates for fault_seed cells; duration_s/num_gpus are per-cell.
  sim::FaultProfile profile;
  profile.gpu_faults_per_hour = 0.2;
  profile.flash_crowds_per_hour = 0.2;
  profile.flash_crowd_multiplier = 1.8;
  profile.trace_dropouts_per_hour = 0.1;

  const JsonValue* overrides = doc.Find("fault_profile");
  if (overrides == nullptr) return profile;
  struct Knob {
    const char* key;
    double* slot;
    double lo;
    double hi;
  };
  const Knob knobs[] = {
      {"gpu_faults_per_hour", &profile.gpu_faults_per_hour, 0.0, 10.0},
      {"mean_gpu_outage_s", &profile.mean_gpu_outage_s, 1.0, 86400.0},
      {"flash_crowds_per_hour", &profile.flash_crowds_per_hour, 0.0, 10.0},
      {"mean_flash_crowd_s", &profile.mean_flash_crowd_s, 1.0, 86400.0},
      {"flash_crowd_multiplier", &profile.flash_crowd_multiplier, 1.01, 10.0},
      {"trace_dropouts_per_hour", &profile.trace_dropouts_per_hour, 0.0,
       10.0},
      {"mean_trace_dropout_s", &profile.mean_trace_dropout_s, 1.0, 86400.0},
      {"rtt_spikes_per_hour", &profile.rtt_spikes_per_hour, 0.0, 10.0},
      {"mean_rtt_spike_s", &profile.mean_rtt_spike_s, 1.0, 86400.0},
      {"rtt_spike_ms", &profile.rtt_spike_ms, 0.0, 1000.0},
  };
  for (const JsonMember& member : overrides->AsObject()) {
    bool known = false;
    for (const Knob& knob : knobs) {
      if (member.key != knob.key) continue;
      *knob.slot =
          ParseDoubleIn(member.value, knob.lo, knob.hi, knob.key);
      known = true;
      break;
    }
    if (!known)
      member.value.Fail("unknown fault_profile key \"" + member.key + "\"");
  }
  return profile;
}

bool SafeName(const std::string& name) {
  if (name.empty() || name.size() > 80) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
  });
}

}  // namespace

CampaignSpec ParseCampaignSpec(const JsonValue& doc) {
  CampaignSpec spec;
  static const std::set<std::string> kTopKeys = {
      "schema", "name", "description", "mode", "threads", "fault_profile",
      "grid"};
  for (const JsonMember& member : doc.AsObject())
    if (kTopKeys.find(member.key) == kTopKeys.end())
      member.value.Fail("unknown key \"" + member.key + "\"");

  const JsonValue& schema = doc.At("schema");
  if (schema.AsString() != "clover-campaign-v1")
    schema.Fail("unknown schema \"" + schema.AsString() +
                "\" (want clover-campaign-v1)");

  const JsonValue& name = doc.At("name");
  spec.name = name.AsString();
  if (!SafeName(spec.name))
    name.Fail("campaign name must match [A-Za-z0-9_.-]{1,80}");

  if (const JsonValue* description = doc.Find("description"))
    spec.description = description->AsString();

  if (const JsonValue* mode = doc.Find("mode")) {
    const std::string& token = mode->AsString();
    if (token == "single") {
      spec.mode = CampaignMode::kSingleCluster;
    } else if (token == "fleet") {
      spec.mode = CampaignMode::kFleet;
    } else {
      mode->Fail("unknown mode \"" + token + "\" (want single|fleet)");
    }
  }

  if (const JsonValue* threads = doc.Find("threads"))
    spec.threads = ParseIntIn(*threads, 1, 1024, "threads");

  spec.fault_profile = ParseFaultProfile(doc);

  // --- Grid axes -----------------------------------------------------------
  const JsonValue& grid = doc.At("grid");
  const bool fleet_mode = spec.mode == CampaignMode::kFleet;

  struct AxisSpec {
    const char* key;
    bool single_only;
    bool fleet_only;
  };
  static const AxisSpec kAxes[] = {
      {"scheme", false, false},
      {"app", false, false},
      {"trace", true, false},
      {"regions", false, true},
      {"router", false, true},
      {"fidelity", false, true},
      {"region_replicas", false, true},
      {"gpus", false, false},
      {"sizing_gpus", true, false},
      {"hours", false, false},
      {"lambda", false, false},
      {"accuracy_limit_pct", true, false},
      {"control_interval_s", false, false},
      {"seed", false, false},
      {"fault_seed", true, false},
      {"screen", false, false},
  };
  for (const JsonMember& member : grid.AsObject()) {
    bool known = false;
    for (const AxisSpec& axis : kAxes) {
      if (member.key != axis.key) continue;
      if (axis.single_only && fleet_mode)
        member.value.Fail("axis \"" + member.key +
                          "\" is not available in fleet mode");
      if (axis.fleet_only && !fleet_mode)
        member.value.Fail("axis \"" + member.key +
                          "\" is only available in fleet mode");
      known = true;
      break;
    }
    if (!known)
      member.value.Fail("unknown grid axis \"" + member.key + "\"");
  }

  auto axis = [&grid](const char* key) -> std::vector<const JsonValue*> {
    const JsonValue* value = grid.Find(key);
    if (value == nullptr) return {};
    return AxisValues(*value);
  };

  std::vector<core::Scheme> schemes;
  for (const JsonValue* value : axis("scheme"))
    schemes.push_back(ParseScheme(*value));
  if (schemes.empty()) grid.Fail("grid is missing the \"scheme\" axis");

  std::vector<models::Application> apps;
  for (const JsonValue* value : axis("app")) apps.push_back(ParseApp(*value));
  if (apps.empty()) grid.Fail("grid is missing the \"app\" axis");

  std::vector<std::string> traces;
  for (const JsonValue* value : axis("trace"))
    traces.push_back(ParseTraceName(*value));
  if (traces.empty()) traces.push_back("ciso-march");

  std::vector<std::vector<std::string>> region_lists;
  std::vector<fleet::RouterPolicy> routers;
  std::vector<bool> fidelities;
  std::vector<int> replica_counts;
  if (fleet_mode) {
    const JsonValue* regions = grid.Find("regions");
    if (regions == nullptr)
      grid.Fail("fleet grid is missing the \"regions\" axis");
    // The axis is a list of region lists; a single flat list of names is
    // one fleet, not an axis of one-region fleets.
    for (const JsonValue& list : regions->AsArray())
      region_lists.push_back(ParseRegionList(list));
    if (region_lists.empty()) regions->Fail("axis must not be empty");
    for (const JsonValue* value : axis("router"))
      routers.push_back(ParseRouter(*value));
    if (routers.empty()) routers.push_back(fleet::RouterPolicy::kStatic);
    for (const JsonValue* value : axis("fidelity")) {
      const std::string& token = value->AsString();
      if (token == "sim") {
        fidelities.push_back(false);
      } else if (token == "meanfield") {
        // The fluid tier runs static schemes only; the grid is a cross
        // product, so any adaptive scheme on the scheme axis would produce
        // invalid (meanfield, adaptive) cells.
        for (const core::Scheme scheme : schemes)
          if (scheme != core::Scheme::kBase)
            value->Fail("fidelity \"meanfield\" requires scheme base");
        fidelities.push_back(true);
      } else {
        value->Fail("unknown fidelity \"" + token +
                    "\" (want sim|meanfield)");
      }
    }
    if (fidelities.empty()) fidelities.push_back(false);
    for (const JsonValue* value : axis("region_replicas"))
      replica_counts.push_back(
          ParseIntIn(*value, 1, 512, "region_replicas"));
    if (replica_counts.empty()) replica_counts.push_back(1);
  } else {
    region_lists.push_back({});
    routers.push_back(fleet::RouterPolicy::kStatic);
    fidelities.push_back(false);
    replica_counts.push_back(1);
  }

  std::vector<int> gpus;
  for (const JsonValue* value : axis("gpus"))
    gpus.push_back(ParseIntIn(*value, 1, 64, "gpus"));
  if (gpus.empty()) gpus.push_back(2);

  std::vector<int> sizing;
  for (const JsonValue* value : axis("sizing_gpus"))
    sizing.push_back(ParseIntIn(*value, 0, 64, "sizing_gpus"));
  if (sizing.empty()) sizing.push_back(0);

  std::vector<double> hours;
  for (const JsonValue* value : axis("hours"))
    hours.push_back(ParseDoubleIn(*value, 0.01, 24.0 * 365.0, "hours"));
  if (hours.empty()) hours.push_back(1.0);

  std::vector<double> lambdas;
  for (const JsonValue* value : axis("lambda"))
    lambdas.push_back(ParseDoubleIn(*value, 0.0, 1.0, "lambda"));
  if (lambdas.empty()) lambdas.push_back(0.5);

  std::vector<std::optional<double>> accuracy_limits;
  for (const JsonValue* value : axis("accuracy_limit_pct")) {
    if (value->is_null()) {
      accuracy_limits.push_back(std::nullopt);
    } else {
      accuracy_limits.push_back(
          ParseDoubleIn(*value, 0.1, 100.0, "accuracy_limit_pct"));
    }
  }
  if (accuracy_limits.empty()) accuracy_limits.push_back(std::nullopt);

  std::vector<double> intervals;
  for (const JsonValue* value : axis("control_interval_s"))
    intervals.push_back(
        ParseDoubleIn(*value, 30.0, 86400.0, "control_interval_s"));
  if (intervals.empty()) intervals.push_back(300.0);

  std::vector<std::uint64_t> seeds;
  for (const JsonValue* value : axis("seed")) seeds.push_back(value->AsUInt());
  if (seeds.empty()) seeds.push_back(1);

  std::vector<std::uint64_t> fault_seeds;
  for (const JsonValue* value : axis("fault_seed"))
    fault_seeds.push_back(value->AsUInt());
  if (fault_seeds.empty()) fault_seeds.push_back(0);

  std::vector<int> screens;
  for (const JsonValue* value : axis("screen"))
    screens.push_back(ParseIntIn(*value, 1, 64, "screen"));
  if (screens.empty()) screens.push_back(1);

  // --- Expansion (fixed axis order, scheme innermost) ----------------------
  std::set<std::string> seen;
  for (const std::string& trace : traces) {
    for (const std::vector<std::string>& regions : region_lists) {
      for (const models::Application app : apps) {
        for (const int g : gpus) {
          for (const int z : sizing) {
            for (const double h : hours) {
              for (const double l : lambdas) {
                for (const auto& limit : accuracy_limits) {
                  for (const double interval : intervals) {
                    for (const std::uint64_t seed : seeds) {
                      for (const std::uint64_t fault_seed : fault_seeds) {
                        for (const int screen : screens) {
                          for (const int replicas : replica_counts) {
                            for (const bool meanfield : fidelities) {
                              for (const fleet::RouterPolicy router :
                                   routers) {
                                for (const core::Scheme scheme : schemes) {
                                  CellSpec cell;
                                  cell.mode = spec.mode;
                                  cell.scheme = scheme;
                                  cell.app = app;
                                  cell.trace = fleet_mode ? "" : trace;
                                  cell.regions = regions;
                                  cell.router = router;
                                  cell.meanfield = meanfield;
                                  cell.region_replicas = replicas;
                                  cell.gpus = g;
                                  cell.sizing_gpus = z == g ? 0 : z;
                                  cell.hours = h;
                                  cell.lambda = l;
                                  cell.accuracy_limit_pct = limit;
                                  cell.control_interval_s = interval;
                                  cell.seed = seed;
                                  cell.fault_seed = fault_seed;
                                  cell.screen = screen;
                                  ++spec.grid_cells;
                                  if (seen.insert(cell.Name()).second)
                                    spec.cells.push_back(std::move(cell));
                                }
                              }
                            }
                          }
                        }
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return spec;
}

CampaignSpec LoadCampaignSpec(const std::string& path) {
  CampaignSpec spec = ParseCampaignSpec(ParseJsonFile(path));
  spec.source_path = path;
  return spec;
}

carbon::CarbonTrace MakeCellTrace(const CellSpec& cell) {
  CLOVER_CHECK_MSG(cell.mode == CampaignMode::kSingleCluster,
                   "fleet cells build traces per region");
  // The same constructions the scenario-matrix fixtures use (the shared
  // builders live in carbon/trace_generator.h): constant 250 gCO2/kWh, and
  // the 120 <-> 320 square wave with a 1.5 h period whose every edge is a
  // guaranteed reoptimization trigger.
  if (cell.trace == "flat") return carbon::FlatTrace(250.0, cell.hours);
  if (cell.trace == "step")
    return carbon::StepTrace(120.0, 320.0, /*period_hours=*/1.5, cell.hours);
  carbon::TraceGeneratorOptions options;
  options.duration_hours = cell.hours;
  // The same offset bench_util's EvalTrace applies, so a campaign cell and
  // the corresponding bench run consume bit-identical traces.
  options.seed = cell.seed + 41;
  if (const carbon::TraceProfile* profile = FindProfile(cell.trace))
    return carbon::GenerateTrace(*profile, options);
  const carbon::RegionPreset* preset = carbon::FindRegionPreset(cell.trace);
  CLOVER_CHECK_MSG(preset != nullptr, "unknown trace preset " << cell.trace);
  return carbon::GenerateRegionTrace(*preset, options);
}

core::ExperimentConfig MakeCellConfig(const CellSpec& cell,
                                      const sim::FaultProfile& profile,
                                      const carbon::CarbonTrace* trace) {
  CLOVER_CHECK(cell.mode == CampaignMode::kSingleCluster);
  core::ExperimentConfig config;
  config.app = cell.app;
  config.scheme = cell.scheme;
  config.trace = trace;
  config.duration_hours = cell.hours;
  config.num_gpus = cell.gpus;
  config.sizing_gpus = cell.sizing_gpus == 0 ? cell.gpus : cell.sizing_gpus;
  config.lambda = cell.lambda;
  config.accuracy_limit_pct = cell.accuracy_limit_pct;
  config.control_interval_s = cell.control_interval_s;
  config.seed = cell.seed;
  config.controller.screen_factor = cell.screen;
  if (cell.fault_seed != 0) {
    sim::FaultProfile cell_profile = profile;
    cell_profile.duration_s = HoursToSeconds(cell.hours);
    cell_profile.num_gpus = cell.gpus;
    config.faults = sim::GenerateFaultSchedule(cell_profile, cell.fault_seed);
  }
  return config;
}

std::string FaultProfileFingerprint(const sim::FaultProfile& profile) {
  std::string fingerprint;
  for (const double knob :
       {profile.gpu_faults_per_hour, profile.mean_gpu_outage_s,
        profile.flash_crowds_per_hour, profile.mean_flash_crowd_s,
        profile.flash_crowd_multiplier, profile.trace_dropouts_per_hour,
        profile.mean_trace_dropout_s, profile.rtt_spikes_per_hour,
        profile.mean_rtt_spike_s, profile.rtt_spike_ms}) {
    if (!fingerprint.empty()) fingerprint += ",";
    fingerprint += NumToken(knob);
  }
  return fingerprint;
}

fleet::FleetConfig MakeFleetCellConfig(const CellSpec& cell) {
  CLOVER_CHECK(cell.mode == CampaignMode::kFleet);
  fleet::FleetConfig config;
  config.app = cell.app;
  config.regions = fleet::RegionsFromPresets(cell.regions, cell.gpus);
  if (cell.region_replicas > 1) {
    // Tile the preset list replica-major. Replica k of preset p is renamed
    // "p.k" — the trace generator derives its noise stream from the region
    // name, so replicas share a grid's *shape* but diverge in noise, the
    // way neighboring zones on one grid do. Penalties repeat the base
    // list's (replicas of p sit at p's network distance).
    std::vector<fleet::RegionConfig> tiled;
    tiled.reserve(config.regions.size() *
                  static_cast<std::size_t>(cell.region_replicas));
    for (int k = 0; k < cell.region_replicas; ++k) {
      for (const fleet::RegionConfig& base : config.regions) {
        fleet::RegionConfig replica = base;
        replica.preset.name.append(".").append(std::to_string(k));
        tiled.push_back(std::move(replica));
      }
    }
    config.regions = std::move(tiled);
  }
  config.duration_hours = cell.hours;
  config.control_interval_s = cell.control_interval_s;
  config.scheme = cell.scheme;
  config.router = cell.router;
  config.lambda = cell.lambda;
  config.seed = cell.seed;
  config.controller.screen_factor = cell.screen;
  config.threads = 1;
  return config;
}

}  // namespace clover::exp
