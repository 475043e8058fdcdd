#include "fleet/job_spec.hpp"

#include <cstdio>
#include <istream>
#include <sstream>

#include "common/build_info.hpp"
#include "common/cli.hpp"
#include "core/heuristics.hpp"
#include "policy/fetch_policy.hpp"
#include "sim/simulator.hpp"
#include "workload/mix.hpp"

namespace smt::fleet {

namespace {

core::HeuristicType parse_heuristic_token(const std::string& s) {
  using core::HeuristicType;
  if (s == "1") return HeuristicType::kType1;
  if (s == "2") return HeuristicType::kType2;
  if (s == "3") return HeuristicType::kType3;
  if (s == "3p" || s == "3'") return HeuristicType::kType3Prime;
  if (s == "4") return HeuristicType::kType4;
  throw ConfigError("batch: adts heuristic must be one of 1|2|3|3p|4, got '" +
                    s + "'");
}

std::uint64_t parse_u64(const std::string& directive, const std::string& tok) {
  try {
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(tok, &used);
    if (used != tok.size()) throw std::invalid_argument(tok);
    return v;
  } catch (const std::exception&) {
    throw ConfigError("batch: '" + directive + "' needs an unsigned integer, "
                      "got '" + tok + "'");
  }
}

double parse_double(const std::string& directive, const std::string& tok) {
  try {
    std::size_t used = 0;
    const double v = std::stod(tok, &used);
    if (used != tok.size()) throw std::invalid_argument(tok);
    return v;
  } catch (const std::exception&) {
    throw ConfigError("batch: '" + directive + "' needs a number, got '" +
                      tok + "'");
  }
}

/// An ADTS grid variant "H@M" (heuristic @ IPC threshold).
struct AdtsVariant {
  std::string token;
  core::HeuristicType heuristic;
  double threshold;
};

}  // namespace

BatchSpec parse_batch(std::istream& in) {
  std::vector<std::string> mixes;
  std::vector<std::uint64_t> seeds;
  std::vector<policy::FetchPolicy> policies;
  std::vector<std::string> policy_tokens;
  std::vector<AdtsVariant> adts_variants;
  std::uint64_t cycles = 262144, warmup = 32768, quantum = 8192;
  std::uint64_t threads = 8;
  bool saw_cycles = false, saw_warmup = false, saw_threads = false,
       saw_quantum = false;

  const auto scalar_once = [](bool& seen, const std::string& directive) {
    if (seen) {
      throw ConfigError("batch: duplicate '" + directive +
                        "' directive (scalars may appear once)");
    }
    seen = true;
  };

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream tokens(line);
    std::string directive;
    if (!(tokens >> directive)) continue;  // blank / comment-only line

    std::vector<std::string> args;
    for (std::string tok; tokens >> tok;) args.push_back(tok);
    if (args.empty()) {
      throw ConfigError("batch line " + std::to_string(lineno) + ": '" +
                        directive + "' needs at least one value");
    }

    if (directive == "cycles") {
      scalar_once(saw_cycles, directive);
      cycles = parse_u64(directive, args[0]);
      if (cycles == 0) throw ConfigError("batch: cycles must be > 0");
    } else if (directive == "warmup") {
      scalar_once(saw_warmup, directive);
      warmup = parse_u64(directive, args[0]);
    } else if (directive == "threads") {
      scalar_once(saw_threads, directive);
      threads = parse_u64(directive, args[0]);
      if (threads < 1 || threads > 8) {
        throw ConfigError("batch: threads must be 1..8, got " + args[0]);
      }
    } else if (directive == "quantum") {
      scalar_once(saw_quantum, directive);
      quantum = parse_u64(directive, args[0]);
      if (quantum == 0) throw ConfigError("batch: quantum must be > 0");
    } else if (directive == "mix") {
      for (const std::string& m : args) {
        try {
          (void)workload::mix(m);
        } catch (const std::exception&) {
          throw ConfigError("batch: unknown mix '" + m + "'");
        }
        mixes.push_back(m);
      }
    } else if (directive == "seed") {
      for (const std::string& s : args) seeds.push_back(parse_u64(directive, s));
    } else if (directive == "policy") {
      for (const std::string& p : args) {
        try {
          policies.push_back(policy::parse_policy(p));
        } catch (const std::exception&) {
          throw ConfigError("batch: unknown fetch policy '" + p + "'");
        }
        policy_tokens.push_back(p);
      }
    } else if (directive == "adts") {
      for (const std::string& v : args) {
        const std::size_t at = v.find('@');
        if (at == std::string::npos || at == 0 || at + 1 >= v.size()) {
          throw ConfigError("batch: adts variants are heuristic@threshold "
                            "(e.g. 3@2), got '" + v + "'");
        }
        AdtsVariant av;
        av.token = v;
        av.heuristic = parse_heuristic_token(v.substr(0, at));
        av.threshold = parse_double(directive, v.substr(at + 1));
        if (av.threshold <= 0.0) {
          throw ConfigError("batch: adts threshold must be > 0, got '" + v +
                            "'");
        }
        adts_variants.push_back(av);
      }
    } else {
      throw ConfigError("batch line " + std::to_string(lineno) +
                        ": unknown directive '" + directive + "'");
    }
  }

  if (mixes.empty()) {
    throw ConfigError("batch: needs at least one 'mix' directive");
  }
  if (policies.empty() && adts_variants.empty()) {
    throw ConfigError("batch: needs at least one scheduling variant "
                      "('policy' or 'adts')");
  }
  if (seeds.empty()) seeds.push_back(2003);

  BatchSpec batch;
  for (const std::string& m : mixes) {
    for (const std::uint64_t s : seeds) {
      const auto base_job = [&](FleetJob& j) {
        j.mix = m;
        j.seed = s;
        j.threads = static_cast<std::size_t>(threads);
        j.cycles = cycles;
        j.warmup = warmup;
      };
      for (std::size_t p = 0; p < policies.size(); ++p) {
        FleetJob j;
        base_job(j);
        j.policy = policies[p];
        batch.jobs.push_back(j);
      }
      for (const AdtsVariant& av : adts_variants) {
        FleetJob j;
        base_job(j);
        j.adts = true;
        j.heuristic = av.heuristic;
        const std::size_t at = av.token.find('@');
        j.heuristic_token = av.token.substr(0, at);
        j.threshold = av.threshold;
        j.quantum = quantum;
        batch.jobs.push_back(j);
      }
    }
  }
  return batch;
}

sim::SimConfig sim_config_for(const FleetJob& job) {
  // Mirror of the option → SimConfig mapping in src/tools/smtsim.cpp:
  // digests computed here must equal the run.config_digest the worker
  // stamps into its own stats document.
  sim::SimConfig cfg;
  cfg.workload_seed = job.seed;
  cfg.apps =
      workload::mix_for_threads(workload::mix(job.mix), job.threads, job.seed);
  cfg.fixed_policy = job.adts ? policy::FetchPolicy::kIcount : job.policy;
  if (job.adts) {
    cfg.use_adts = true;
    cfg.adts.heuristic = job.heuristic;
    cfg.adts.ipc_threshold = job.threshold;
    cfg.adts.quantum_cycles = job.quantum;
  }
  return cfg;
}

std::uint64_t job_digest(const FleetJob& job) {
  Fnv1a h;
  h.mix(sim::config_digest(sim_config_for(job)));
  h.mix(job.cycles);
  h.mix(job.warmup);
  return h.digest();
}

std::uint64_t batch_digest(const BatchSpec& batch) {
  Fnv1a h;
  for (const FleetJob& job : batch.jobs) h.mix(job_digest(job));
  return h.digest();
}

std::vector<std::string> smtsim_args(const FleetJob& job,
                                     const std::string& stats_path) {
  std::vector<std::string> args{
      "--mix",     job.mix,
      "--threads", std::to_string(job.threads),
      "--seed",    std::to_string(job.seed),
      "--cycles",  std::to_string(job.cycles),
      "--warmup",  std::to_string(job.warmup)};
  if (job.adts) {
    args.emplace_back("--adts");
    args.emplace_back("--heuristic");
    args.push_back(job.heuristic_token);
    args.emplace_back("--threshold");
    // Full round-trip precision: smtsim re-parses with stod, and the
    // threshold feeds the config digest via AdtsConfig::ipc_threshold.
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", job.threshold);
    args.emplace_back(buf);
    args.emplace_back("--quantum");
    args.push_back(std::to_string(job.quantum));
  } else {
    args.emplace_back("--policy");
    args.emplace_back(policy::name(job.policy));
  }
  args.emplace_back("--stats-json");
  args.push_back(stats_path);
  return args;
}

std::string digest_hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return std::string(buf);
}

std::string digest_str(std::uint64_t digest) { return "0x" + digest_hex(digest); }

}  // namespace smt::fleet
