#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <array>
#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "requests.h"
#include "serve/http_client.h"

namespace perfbench {

/// One keep-alive connection of the load generator. It outlives single
/// phases, so the daemon's connection threads stay warm from the warm-up
/// into the measured phases, and its last generation is remembered for
/// the per-connection monotonicity check.
struct Connection {
  std::optional<hlm::serve::HttpClient> client;
  int last_generation = 0;
};

/// One traffic phase against a live daemon on 127.0.0.1:port, one
/// worker thread per connection.
struct LoadOptions {
  int port = 0;
  double seconds = 1.0;
  /// A closed loop stops after this many requests, or after `seconds`
  /// if that comes first; 0 = only `seconds`.
  size_t requests = 0;
  /// Requests per second of an open loop (request i is due at
  /// t0 + i / rate and timed from that due time); 0 runs a closed loop
  /// (each connection sends its next request when the previous one
  /// returns, timed from the send).
  double rate = 0.0;
  /// Every fresh_every-th request opens, uses and closes its own
  /// connection instead of the worker's keep-alive one; 0 never.
  int fresh_every = 0;
  /// Index of the first request; the phase walks the list cyclically.
  size_t first_index = 0;
  /// Wraps each HttpClient::Get in a serve.http.<route> trace span.
  bool trace = false;
};

/// Every kCheckEvery-th request keeps its body for the answer check;
/// odd, so the kept requests cycle through every route of the interleave.
inline constexpr size_t kCheckEvery = 15;

struct LoadResult {
  long long attempted = 0;
  long long transport_failures = 0;
  long long non_200 = 0;
  long long generation_regressions = 0;  // per connection
  long long connections_opened = 0;
  double elapsed_s = 0.0;  // wall time of the phase
  size_t next_index = 0;   // one past the highest request index claimed
  std::vector<double> latency_us;
  std::vector<double> late_us;  // open loop: send time - due time
  std::array<std::vector<double>, kNumOps> route_latency_us;
  std::vector<double> connect_us;  // fresh connections: Connect + Get
  /// Earliest steady-clock time (obs::NowMicros) each generation was
  /// seen in a 200 response.
  std::map<int, double> first_seen_us;
  std::vector<KeptResponse> kept;

  long long failures() const {
    return transport_failures + non_200 + generation_regressions;
  }
  /// Completions per second of the phase.
  double Rate() const {
    return elapsed_s > 0 ? static_cast<double>(latency_us.size()) / elapsed_s
                         : 0.0;
  }
};

/// Runs one phase on `connections` (reconnecting any that is closed),
/// cycling through `requests`. Never throws on transport errors: they are
/// counted and the worker reconnects.
LoadResult RunLoad(const std::vector<Request>& requests,
                   const LoadOptions& options,
                   std::vector<Connection>& connections);

/// Adds `from`'s counts, samples and elapsed time to `into`.
void Merge(LoadResult& into, LoadResult from);

/// Value at quantile q of `values` (nearest rank; 0 when empty).
double Quantile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
