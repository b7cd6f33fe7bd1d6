#include "load.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "obs/trace.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - start).count();
}

/// Sleeps until `due`, then spins out the last stretch: the kernel's
/// wake-up lag would otherwise be charged to the server as latency.
void WaitUntil(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(40);
  if (Clock::now() + kSpin < due) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const double position = std::ceil(q * static_cast<double>(values.size()));
  const size_t rank = std::min(
      values.size() - 1, static_cast<size_t>(std::max(position, 1.0)) - 1);
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

LoadResult RunLoad(const std::vector<Request>& requests,
                   const LoadOptions& options,
                   std::vector<Connection>& connections) {
  std::atomic<size_t> next{options.first_index};
  std::vector<LoadResult> results(connections.size());
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  const bool open_loop = options.rate > 0.0;

  auto run = [&](Connection& c, LoadResult& r) {
    // 1 ns timer slack: open-loop sends are due every few tens of µs.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      Clock::time_point due = Clock::now();
      if (open_loop) {
        due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(i - options.first_index) /
                              options.rate));
        if (due >= end) break;
        WaitUntil(due);
      } else if (due >= end || (options.requests > 0 &&
                                i - options.first_index >= options.requests)) {
        break;
      }
      const Request& request = requests[i % requests.size()];
      const int op = static_cast<int>(request.op);
      const bool fresh =
          options.fresh_every > 0 && i % options.fresh_every == 0;
      const Clock::time_point sent = Clock::now();
      ++r.attempted;

      std::optional<hlm::serve::HttpClient> fresh_client;
      std::optional<hlm::serve::HttpClient>& client =
          fresh ? fresh_client : c.client;
      if (!client.has_value()) {
        hlm::Result<hlm::serve::HttpClient> connected =
            hlm::serve::HttpClient::Connect("127.0.0.1", options.port);
        if (!connected.ok()) {
          ++r.transport_failures;
          continue;
        }
        client.emplace(std::move(connected).value());
        ++r.connections_opened;
      }
      hlm::Result<hlm::serve::HttpResponse> response = [&] {
        if (!options.trace) return client->Get(request.url);
        hlm::obs::TraceSpan span(
            std::string("serve.http.") + OpName(request.op), nullptr,
            "http." + std::to_string(i));
        return client->Get(request.url);
      }();
      const Clock::time_point done = Clock::now();
      if (!response.ok()) {
        ++r.transport_failures;
        client.reset();
        continue;
      }
      const double latency = MicrosSince(open_loop ? due : sent, done);
      r.latency_us.push_back(latency);
      r.route_latency_us[op].push_back(latency);
      if (open_loop) r.late_us.push_back(MicrosSince(due, sent));
      if (fresh) r.connect_us.push_back(MicrosSince(sent, done));
      if (response->status_code != 200) {
        ++r.non_200;
        continue;
      }
      const int generation = ParseGeneration(response->body);
      if (!fresh) {
        if (generation < c.last_generation) ++r.generation_regressions;
        c.last_generation = std::max(c.last_generation, generation);
      }
      const double seen_us = hlm::obs::NowMicros();
      auto [it, inserted] = r.first_seen_us.emplace(generation, seen_us);
      if (!inserted) it->second = std::min(it->second, seen_us);
      if (i % kCheckEvery == 0) {
        r.kept.push_back({i % requests.size(), generation,
                          std::move(response->body)});
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(connections.size());
  for (size_t w = 0; w < connections.size(); ++w) {
    threads.emplace_back(run, std::ref(connections[w]), std::ref(results[w]));
  }
  for (std::thread& t : threads) t.join();

  LoadResult total;
  total.elapsed_s = MicrosSince(start, Clock::now()) / 1e6;
  total.next_index = next.load();
  for (LoadResult& r : results) Merge(total, std::move(r));
  return total;
}

void Merge(LoadResult& into, LoadResult from) {
  into.attempted += from.attempted;
  into.transport_failures += from.transport_failures;
  into.non_200 += from.non_200;
  into.generation_regressions += from.generation_regressions;
  into.connections_opened += from.connections_opened;
  into.elapsed_s += from.elapsed_s;
  into.next_index = std::max(into.next_index, from.next_index);
  auto append = [](std::vector<double>& to, const std::vector<double>& v) {
    to.insert(to.end(), v.begin(), v.end());
  };
  append(into.latency_us, from.latency_us);
  append(into.late_us, from.late_us);
  append(into.connect_us, from.connect_us);
  for (int op = 0; op < kNumOps; ++op) {
    append(into.route_latency_us[op], from.route_latency_us[op]);
  }
  for (const auto& [generation, seen] : from.first_seen_us) {
    auto [it, inserted] = into.first_seen_us.emplace(generation, seen);
    if (!inserted) it->second = std::min(it->second, seen);
  }
  for (KeptResponse& kept : from.kept) into.kept.push_back(std::move(kept));
}

}  // namespace perfbench
