// Strict command-line parsing for bwfft_cli, refactored out of the tool
// so tests can drive it directly.
//
// The previous in-tool parser used std::atoll with no validation, so
// `--dims 0x0`, `--dims x128` or `--dims 12ax34` silently produced 0 or
// garbage dimensions and crashed (or divided by zero) deep inside plan
// construction. Every numeric token here must consume its whole string
// and land in an explicit validity range or the parse fails with a
// message naming the offending flag.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace bwfft::cli {

/// Parsed bwfft_cli options. Engine stays a (validated) string so this
/// header does not depend on the fft layer.
struct Options {
  std::vector<idx_t> dims{128, 128, 128};
  std::string engine = "dbuf";
  int threads = 0;    ///< 0 = topology default
  int compute = -1;   ///< -1 = the plan default (p_c = p)
  idx_t block = 0;    ///< 0 = LLC/2 policy
  idx_t mu = 0;       ///< 0 = auto packet size
  int reps = 3;
  bool inverse = false;
  bool verify = false;
  bool nontemporal = true;
  bool stats = false;
  bool verbose = false;  ///< print the degradation / fault report
  bool dispatch = false; ///< print the kernel ISA dispatch report and exit
  std::string isa;       ///< --isa request; empty = auto (runtime dispatch)
  std::string trace_path;  ///< empty = no chrome-trace export
  std::string tune;        ///< --tune level; empty = no autotuning
  std::string wisdom_path; ///< --wisdom file; empty = no persistence
  bool serve = false;      ///< run the exec::BatchExecutor serving demo
  int requests = 64;       ///< --requests per --serve session
  int producers = 4;       ///< concurrent --serve submitter threads
  int queue_cap = 256;     ///< --queue submission-queue capacity
  int deadline_ms = 0;     ///< --deadline-ms per-request deadline; 0 = none
  double quota_rate = 0.0; ///< --quota-rate tokens/s per tenant; 0 = off
  double quota_burst = 16.0;  ///< --quota-burst token-bucket capacity
  double integrity = 0.0;  ///< --integrity sampled check fraction [0,1]
  int retries = 1;         ///< --retries total attempts per request
  int batch_every = 0;     ///< --batch-every: every Nth request rides the
                           ///< batch lane (0 = all interactive)
  int tenants = 1;         ///< --tenants distinct quota identities
};

/// Strict base-10 integer: the whole token must parse and the value must
/// be >= min_value (overflow is rejected). Returns false with a
/// diagnostic in *err.
bool parse_int(const std::string& token, long long min_value, long long* out,
               std::string* err);

/// Strict decimal floating-point value in [min_value, max_value]; the
/// whole token must parse (NaN/inf and trailing garbage are rejected).
bool parse_double(const std::string& token, double min_value,
                  double max_value, double* out, std::string* err);

/// Strict "N" / "KxN" / "KxNxM" dims parser: 1 to 3 'x'-separated
/// tokens, each a positive integer (one token is a huge-1D transform).
bool parse_dims(const std::string& token, std::vector<idx_t>* out,
                std::string* err);

/// Accepted --engine spellings (includes "auto").
bool valid_engine(const std::string& name);

/// Accepted --tune levels: estimate, measure, exhaustive.
bool valid_tune_level(const std::string& name);

/// Accepted --isa spellings: auto, scalar, avx2, avx512 (kernels/isa.h).
bool valid_isa(const std::string& name);

/// Parse the full argument vector (argv[1..argc)). On failure returns
/// false with a usage-ready message in *err; *out is unspecified.
bool parse_args(const std::vector<std::string>& args, Options* out,
                std::string* err);

}  // namespace bwfft::cli
