// Shared command-line parsing helpers.
//
// desyn_cli, bench_partition and bench_mcr grew the same checked argument
// parsers independently (comma lists, positive counts, margins, partition
// spec strings, the `--flag value` idiom). This is the single home: every
// malformed value is a clean `error: ...` exit via fail(), never an
// uncaught std::invalid_argument out of stoi/stod.
//
// Note on layering: this lives in base/ because every executable links it,
// but parse_strategies() necessarily speaks the flow layer's PartitionSpec
// vocabulary — it is a CLI-facade helper, not base infrastructure.
#pragma once

#include <string>
#include <vector>

#include "core/partition.h"

namespace desyn::cli {

/// "a,b,,c" -> {"a","b","c"} (empty fields dropped).
std::vector<std::string> split_list(const std::string& list);

/// Positive integer (--jobs, --rounds, --threads, ...).
int parse_count(const std::string& s, const char* what);

/// Non-negative real (--budget-ms and friends).
double parse_nonneg(const std::string& s, const char* what);

/// Timing margin in [1, 100].
double parse_margin(const std::string& s);

/// Comma list of margins; at least one required.
std::vector<double> parse_margins(const std::string& list);

/// Comma list of partition spec strings (prefix[:N]|perff|single|auto[:B]|
/// explicit specs accepted by PartitionSpec::parse); at least one required.
std::vector<flow::PartitionSpec> parse_strategies(const std::string& list);

/// The `--flag value` idiom: returns argv[i+1] and advances i, or fails
/// with "<flag> needs a value" when the list ends at the flag.
std::string need_value(int argc, char** argv, int& i, const char* flag);

}  // namespace desyn::cli
