#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "corpus/generator.h"
#include "models/lda.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "repr/representation.h"
#include "serve/http_client.h"
#include "serve/registry.h"
#include "serve/request_recorder.h"

namespace hlm::serve {
namespace {

std::string TempDirFor(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Trains a tiny LDA + representation pair into `dir` and writes the
/// manifest. Cheap enough (40 companies, short Gibbs schedule) to run
/// once per test.
std::string BuildSnapshotDir(const std::string& dir) {
  std::filesystem::create_directories(dir);
  auto world = corpus::GenerateDefaultCorpus(40, 11);
  models::LdaConfig config;
  config.num_topics = 3;
  config.burn_in_iterations = 20;
  config.post_burn_in_samples = 4;
  models::LdaModel lda(world.corpus.num_categories(), config);
  EXPECT_TRUE(lda.Train(world.corpus.Sequences()).ok());
  EXPECT_TRUE(lda.SaveToFile(dir + "/lda.snap").ok());
  EXPECT_TRUE(repr::SaveRepresentation(
                  repr::LdaRepresentation(lda, world.corpus),
                  dir + "/lda_repr.snap")
                  .ok());
  ModelRegistry registry;
  EXPECT_TRUE(registry.Register("lda", ModelKind::kLda, "lda.snap").ok());
  EXPECT_TRUE(registry
                  .Register("lda-repr", ModelKind::kRepresentation,
                            "lda_repr.snap")
                  .ok());
  const std::string manifest = dir + "/manifest.txt";
  EXPECT_TRUE(registry.SaveManifest(manifest).ok());
  return manifest;
}

/// Republishes the manifest: rewrites it byte-identically through the
/// atomic writer, which bumps the mtime component of the stamp (what a
/// real `hlm_snapshot save` into the same dir does, minus retraining).
void RepublishManifest(const std::string& manifest) {
  std::ifstream in(manifest, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
  out << bytes;
}

Result<HttpResponse> Get(int port, const std::string& path) {
  auto client = HttpClient::Connect("127.0.0.1", port);
  if (!client.ok()) return client.status();
  return client.value().Get(path);
}

/// Opens a plain TCP connection to the server (5 s receive deadline so a
/// wedged server fails the test instead of hanging it). -1 on failure.
int ConnectRaw(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct timeval timeout {5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `request` verbatim on a fresh connection and returns every byte
/// the server writes before it closes (requests here ask for
/// Connection: close or are malformed, so the server always closes).
std::string RawExchange(int port, const std::string& request) {
  int fd = ConnectRaw(port);
  if (fd < 0) return "connect failed";
  std::string response;
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
      static_cast<ssize_t>(request.size())) {
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      response.append(chunk, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  return response;
}

/// Status code and body of one close-delimited raw exchange.
struct RawResponse {
  int code = 0;
  std::string body;
};

RawResponse RawGet(int port, const std::string& request) {
  const std::string response = RawExchange(port, request);
  RawResponse parsed;
  if (response.rfind("HTTP/1.1 ", 0) == 0) {
    parsed.code = std::atoi(response.c_str() + 9);
  }
  const size_t body_at = response.find("\r\n\r\n");
  if (body_at != std::string::npos) parsed.body = response.substr(body_at + 4);
  return parsed;
}

std::string GetRequest(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nConnection: close\r\n\r\n";
}

/// Number of mappings in this process's address space: each leaked
/// thread stack shows up here as a mapping plus its guard page.
int CountMappings() {
  std::ifstream maps("/proc/self/maps");
  int lines = 0;
  std::string line;
  while (std::getline(maps, line)) ++lines;
  return lines;
}

TEST(ServerTest, EndpointsServeJsonAndErrors) {
  const std::string dir = TempDirFor("server_endpoints");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();
  ASSERT_GT(port, 0);

  auto health = Get(port, "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().status_code, 200);
  EXPECT_NE(health.value().body.find("\"generation\":"), std::string::npos);

  auto recommend = Get(port, "/v1/recommend?tokens=0,1&k=3");
  ASSERT_TRUE(recommend.ok());
  EXPECT_EQ(recommend.value().status_code, 200);
  EXPECT_NE(recommend.value().body.find("\"items\":["), std::string::npos);
  // Owned products are excluded from recommendations.
  EXPECT_EQ(recommend.value().body.find("{\"product\":0,"),
            std::string::npos);
  EXPECT_EQ(recommend.value().body.find("{\"product\":1,"),
            std::string::npos);

  auto similar = Get(port, "/v1/similar?company=2&k=3");
  ASSERT_TRUE(similar.ok());
  EXPECT_EQ(similar.value().status_code, 200);
  EXPECT_NE(similar.value().body.find("\"neighbors\":["),
            std::string::npos);

  auto topics = Get(port, "/v1/topics?tokens=0,1,2");
  ASSERT_TRUE(topics.ok());
  EXPECT_EQ(topics.value().status_code, 200);
  EXPECT_NE(topics.value().body.find("\"topics\":["), std::string::npos);

  auto statusz = Get(port, "/statusz");
  ASSERT_TRUE(statusz.ok());
  EXPECT_EQ(statusz.value().status_code, 200);
  EXPECT_NE(statusz.value().body.find("==== hlm statusz ===="),
            std::string::npos);
  auto statusz_json = Get(port, "/statusz?format=json");
  ASSERT_TRUE(statusz_json.ok());
  EXPECT_EQ(statusz_json.value().status_code, 200);
  EXPECT_EQ(statusz_json.value().body.front(), '{');

  // Errors: bad token list, out-of-range company, unknown endpoint.
  auto bad_tokens = Get(port, "/v1/recommend?tokens=abc");
  ASSERT_TRUE(bad_tokens.ok());
  EXPECT_EQ(bad_tokens.value().status_code, 400);
  auto bad_company = Get(port, "/v1/similar?company=100000");
  ASSERT_TRUE(bad_company.ok());
  EXPECT_EQ(bad_company.value().status_code, 400);
  auto not_found = Get(port, "/v1/nope");
  ASSERT_TRUE(not_found.ok());
  EXPECT_EQ(not_found.value().status_code, 404);

  // One keep-alive connection answers many requests.
  auto client = HttpClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 10; ++i) {
    auto response = client.value().Get("/healthz");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status_code, 200);
  }
  server.value()->Stop();
}

// Golden bodies: the exact bytes every /v1 route and every error path
// answers for a fixed snapshot. Any refactor of the handlers must keep
// these byte-identical (the generation is process-wide, so it is read
// back rather than pinned).
TEST(ServerTest, GoldenResponseBodies) {
  const std::string dir = TempDirFor("server_golden");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();
  const std::string generation =
      "{\"generation\":" + std::to_string(server.value()->generation());

  struct Golden {
    std::string request;
    int code;
    std::string body;
  };
  const std::vector<Golden> goldens = {
      {GetRequest("/v1/topics?tokens=0,1,2"), 200,
       generation + ",\"topics\":[0.818181818,0.151515152,0.030303030]}"},
      {GetRequest("/v1/topics?tokens="), 200,
       generation + ",\"topics\":[0.333333333,0.333333333,0.333333333]}"},
      {GetRequest("/v1/recommend?tokens=0,1&k=3"), 200,
       generation + ",\"items\":[{\"product\":16,\"score\":0.267657690},"
                    "{\"product\":36,\"score\":0.232701011},"
                    "{\"product\":7,\"score\":0.163127247}]}"},
      {GetRequest("/v1/recommend?tokens=3"), 200,
       generation + ",\"items\":[{\"product\":16,\"score\":0.125471142},"
                    "{\"product\":36,\"score\":0.112421372},"
                    "{\"product\":31,\"score\":0.108182342},"
                    "{\"product\":7,\"score\":0.092146028},"
                    "{\"product\":25,\"score\":0.082289794}]}"},
      {GetRequest("/v1/similar?company=2&k=3"), 200,
       generation + ",\"neighbors\":[{\"company\":37,\"distance\":0.000067162},"
                    "{\"company\":0,\"distance\":0.000543450},"
                    "{\"company\":5,\"distance\":0.000543450}]}"},
      {GetRequest("/v1/recommend?tokens=abc"), 400,
       "{\"error\":\"not an integer: abc\"}"},
      {GetRequest("/v1/topics?tokens=1,-2"), 400,
       "{\"error\":\"negative token id: -2\"}"},
      {GetRequest("/v1/recommend?tokens=1&k=0"), 400,
       "{\"error\":\"k out of range: 0\"}"},
      {GetRequest("/v1/similar?k=3"), 400,
       "{\"error\":\"missing required param: company\"}"},
      {GetRequest("/v1/similar?company=2,3"), 400,
       "{\"error\":\"not an integer: 2,3\"}"},
      {"garbage\r\n\r\n", 400,
       "{\"error\":\"malformed request line: garbage\"}"},
      {GetRequest("/v1/nope"), 404,
       "{\"error\":\"no such endpoint: /v1/nope\"}"},
      {"POST /v1/topics HTTP/1.1\r\nConnection: close\r\n\r\n", 405,
       "{\"error\":\"only GET is supported\"}"},
  };
  for (const Golden& golden : goldens) {
    const RawResponse response = RawGet(port, golden.request);
    EXPECT_EQ(response.code, golden.code) << golden.request;
    EXPECT_EQ(response.body, golden.body) << golden.request;
  }
  server.value()->Stop();
}

// Ids are range-checked on their parsed 64-bit value: 2^32 + 7 must not
// wrap onto company 7, nor 2^32 + 1 onto token 1.
TEST(ServerTest, OutOfRangeIdsAreRejectedNotWrapped) {
  const std::string dir = TempDirFor("server_wide_ids");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();
  const std::string company_error =
      "{\"error\":\"company out of range: 4294967303\"}";
  const std::string token_error =
      "{\"error\":\"token out of range: 4294967297\"}";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"/v1/similar?company=4294967303", company_error},
      {"/v1/topics?tokens=4294967297", token_error},
      {"/v1/recommend?tokens=4294967297", token_error},
  };
  for (const auto& [path, error] : cases) {
    const RawResponse response = RawGet(port, GetRequest(path));
    EXPECT_EQ(response.code, 400) << path << " answered " << response.body;
    EXPECT_EQ(response.body, error) << path;
  }
  server.value()->Stop();
}

// Hundreds of short connections must leave the address space where it
// started: each finished connection releases its thread and its fd.
TEST(ServerTest, ConnectionChurnLeavesNoResidue) {
  const std::string dir = TempDirFor("server_churn");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();
  auto one_connection = [port] {
    auto response = Get(port, "/healthz?format=text");
    return response.ok() && response.value().status_code == 200;
  };
  // Warm up allocator arenas and the thread-stack cache first.
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(one_connection());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const int before = CountMappings();

  constexpr int kConnections = 600;
  constexpr int kMargin = 32;
  for (int i = 0; i < kConnections; ++i) ASSERT_TRUE(one_connection()) << i;
  // The last connections' threads may still be winding down.
  int after = CountMappings();
  for (int wait = 0; wait < 100 && after > before + kMargin; ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    after = CountMappings();
  }
  EXPECT_LE(after, before + kMargin)
      << kConnections << " connections grew the mapping count from "
      << before << " to " << after;
  server.value()->Stop();
}

// Stop() must not wait for idle keep-alive clients to hang up: it wakes
// their connection threads, and the client then reads EOF.
TEST(ServerTest, StopClosesIdleKeepAliveConnections) {
  const std::string dir = TempDirFor("server_stop_idle");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int fd = ConnectRaw(server.value()->port());
  ASSERT_GE(fd, 0);
  const std::string request = "GET /healthz?format=text HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[4096];
  while (response.find("\r\n\r\nok") == std::string::npos) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << "no response to the keep-alive request";
    response.append(chunk, static_cast<size_t>(n));
  }
  EXPECT_NE(response.find("Connection: keep-alive"), std::string::npos);

  const auto start = std::chrono::steady_clock::now();
  server.value()->Stop();
  const double stop_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  EXPECT_LT(stop_s, 2.0);
  EXPECT_EQ(::recv(fd, chunk, sizeof(chunk), 0), 0);
  ::close(fd);
}

TEST(ServerTest, ManualReloadSwapsGenerationExactlyWhenChanged) {
  const std::string dir = TempDirFor("server_reload");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int initial_generation = server.value()->generation();
  ASSERT_GT(initial_generation, 0);

  // Unchanged manifest: no swap.
  auto unchanged = server.value()->ReloadIfChanged();
  ASSERT_TRUE(unchanged.ok());
  EXPECT_FALSE(unchanged.value());
  EXPECT_EQ(server.value()->generation(), initial_generation);

  RepublishManifest(manifest);
  auto reloaded = server.value()->ReloadIfChanged();
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_TRUE(reloaded.value());
  EXPECT_GT(server.value()->generation(), initial_generation);

  // A manifest that breaks mid-publish keeps the old generation serving
  // and does not hammer the load path on every poll.
  const int good_generation = server.value()->generation();
  std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
  out << "hlm-registry 1\nlda lda\n";  // truncated record
  out.close();
  auto broken = server.value()->ReloadIfChanged();
  EXPECT_FALSE(broken.ok());
  EXPECT_EQ(server.value()->generation(), good_generation);
  auto still_broken = server.value()->ReloadIfChanged();
  ASSERT_TRUE(still_broken.ok());  // same broken stamp: skipped, no error
  EXPECT_FALSE(still_broken.value());
  auto health = Get(server.value()->port(), "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status_code, 200);
  server.value()->Stop();
}

// The tentpole race test: clients hammer every endpoint while the
// watcher republishes generations underneath them. Zero requests may
// fail, and no client may ever observe the generation move backwards.
// Run under -DHLM_SANITIZE=thread in tier-1 to certify the swap path.
TEST(ServerTest, HotReloadUnderLoadDropsNoRequests) {
  const std::string dir = TempDirFor("server_race");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  config.poll_interval_ms = 5;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();
  const int initial_generation = server.value()->generation();

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 150;
  std::atomic<int> failures{0};
  std::atomic<int> regressions{0};

  auto client_loop = [&](int client_index) {
    auto client = HttpClient::Connect("127.0.0.1", port);
    if (!client.ok()) {
      failures.fetch_add(kRequestsPerClient);
      return;
    }
    long long last_generation = -1;
    for (int i = 0; i < kRequestsPerClient; ++i) {
      const char* path = (i + client_index) % 3 == 0
                             ? "/v1/recommend?tokens=0,1&k=3"
                             : ((i + client_index) % 3 == 1
                                    ? "/v1/similar?company=1&k=3"
                                    : "/healthz");
      auto response = client.value().Get(path);
      if (!response.ok() || response.value().status_code != 200) {
        failures.fetch_add(1);
        continue;
      }
      const std::string& body = response.value().body;
      size_t at = body.find("\"generation\":");
      if (at == std::string::npos) {
        failures.fetch_add(1);
        continue;
      }
      long long generation = std::atoll(body.c_str() + at + 13);
      if (generation < last_generation) regressions.fetch_add(1);
      if (generation > last_generation) last_generation = generation;
    }
  };

  std::vector<std::thread> clients;  // hlm-lint: allow(no-raw-thread)
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&client_loop, c] { client_loop(c); });
  }
  // Publisher: republish the manifest a handful of times mid-run so
  // several generation swaps land while requests are in flight.
  for (int publish = 0; publish < 5; ++publish) {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    RepublishManifest(manifest);
  }
  for (std::thread& client : clients) {  // hlm-lint: allow(no-raw-thread)
    client.join();
  }

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(regressions.load(), 0);
  // The watcher picked up at least one republish (generations are
  // process-wide monotone, so any swap strictly increases it).
  for (int wait = 0; wait < 100; ++wait) {
    if (server.value()->generation() > initial_generation) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(server.value()->generation(), initial_generation);
  server.value()->Stop();
}

TEST(ServerTest, HealthzServesJsonAndPlainText) {
  const std::string dir = TempDirFor("server_healthz");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();

  auto json = Get(port, "/healthz");
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_EQ(json.value().status_code, 200);
  auto parsed = obs::JsonValue::Parse(json.value().body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n"
                           << json.value().body;
  const obs::JsonValue& doc = parsed.value();
  EXPECT_EQ(doc.Find("status")->AsString(), "ok");
  EXPECT_GE(doc.Find("generation")->AsNumber(), 1.0);
  EXPECT_GT(doc.Find("uptime_seconds")->AsNumber(), 0.0);
  EXPECT_GE(doc.Find("models_loaded")->AsNumber(), 2.0);

  // Plain probes (shell scripts, LB health checks) get the old body.
  auto text = Get(port, "/healthz?format=text");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value().status_code, 200);
  EXPECT_EQ(text.value().body, "ok");
  server.value()->Stop();
}

TEST(ServerTest, MetricszServesValidatedExposition) {
  const std::string dir = TempDirFor("server_metricsz");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();

  // Drive a couple of real requests so the per-route series move.
  ASSERT_TRUE(Get(port, "/v1/recommend?tokens=0,1&k=3").ok());
  ASSERT_TRUE(Get(port, "/v1/nope").ok());

  auto scrape = Get(port, "/metricsz");
  ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
  EXPECT_EQ(scrape.value().status_code, 200);
  const std::string& body = scrape.value().body;
  Status valid = obs::ValidateExposition(body);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  // Per-route families appear under their sanitized exposition names,
  // pre-registered so the scrape schema is complete from the start.
  EXPECT_NE(body.find("# TYPE hlm_serve_http_recommend_requests_total "
                      "counter"),
            std::string::npos);
  EXPECT_NE(
      body.find("# TYPE hlm_serve_http_recommend_request_seconds histogram"),
      std::string::npos);
  EXPECT_NE(body.find("hlm_serve_http_other_status_4xx_total"),
            std::string::npos);
  EXPECT_NE(body.find("hlm_serve_trace_kept_total"), std::string::npos);
  server.value()->Stop();
}

TEST(ServerTest, StatuszJsonCarriesTheWindowSection) {
  const std::string dir = TempDirFor("server_window");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();

  auto statusz = Get(port, "/statusz?format=json");
  ASSERT_TRUE(statusz.ok()) << statusz.status().ToString();
  auto parsed = obs::JsonValue::Parse(statusz.value().body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue* window = parsed.value().Find("window");
  ASSERT_NE(window, nullptr);
  EXPECT_DOUBLE_EQ(window->Find("window_s")->AsNumber(), 60.0);
  EXPECT_NE(window->Find("counter_deltas"), nullptr);
  EXPECT_NE(window->Find("histograms"), nullptr);
  server.value()->Stop();
}

TEST(RequestRecorderTest, CountsRoutesAndKeepsTails) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  auto value = [&](const std::string& name) {
    return metrics.GetCounter(name)->value();
  };
  const long long recommend_before =
      value("hlm.serve.http.recommend.requests_total");
  const long long recommend_2xx_before =
      value("hlm.serve.http.recommend.status_2xx_total");
  const long long similar_errors_before =
      value("hlm.serve.http.similar.errors_total");
  const long long similar_4xx_before =
      value("hlm.serve.http.similar.status_4xx_total");
  const long long kept_before = value("hlm.serve.trace.kept_total");
  const long long slow_before = value("hlm.serve.trace.slow_total");
  const long long sampled_before = value("hlm.serve.trace.sampled_total");

  RequestRecorder recorder;

  // Ordinals 1..99: fast, successful, unsampled — not kept.
  for (int i = 1; i < kTraceSampleEvery; ++i) {
    recorder.Record(Route::kRecommend, 200, 0.001, 1);
  }
  // Ordinal 100: the 1-in-100 sample fires — kept via sampling.
  recorder.Record(Route::kRecommend, 200, 0.001, 1);
  // Error: always kept, never double-counted as sampled.
  recorder.Record(Route::kSimilar, 404, 0.001, 1);
  // Slow: at/above the threshold — always kept.
  recorder.Record(Route::kTopics, 200, 0.3, 1);

  EXPECT_EQ(value("hlm.serve.http.recommend.requests_total") -
                recommend_before,
            100);
  EXPECT_EQ(value("hlm.serve.http.recommend.status_2xx_total") -
                recommend_2xx_before,
            100);
  EXPECT_EQ(value("hlm.serve.http.similar.errors_total") -
                similar_errors_before,
            1);
  EXPECT_EQ(value("hlm.serve.http.similar.status_4xx_total") -
                similar_4xx_before,
            1);
  EXPECT_EQ(value("hlm.serve.trace.kept_total") - kept_before, 3);
  EXPECT_EQ(value("hlm.serve.trace.slow_total") - slow_before, 1);
  EXPECT_EQ(value("hlm.serve.trace.sampled_total") - sampled_before, 1);
}

TEST(RequestRecorderTest, RouteForPathMatchesExactPathsOnly) {
  EXPECT_EQ(RouteForPath("/v1/recommend"), Route::kRecommend);
  EXPECT_EQ(RouteForPath("/v1/similar"), Route::kSimilar);
  EXPECT_EQ(RouteForPath("/v1/topics"), Route::kTopics);
  EXPECT_EQ(RouteForPath("/healthz"), Route::kHealthz);
  EXPECT_EQ(RouteForPath("/statusz"), Route::kStatusz);
  EXPECT_EQ(RouteForPath("/metricsz"), Route::kMetricsz);
  EXPECT_EQ(RouteForPath("/v1/nope"), Route::kOther);
  EXPECT_EQ(RouteForPath("/healthz2"), Route::kOther);
}

// A peer that completes the TCP handshake (listen backlog) but never
// reads or answers: the client's recv must fail with kDeadlineExceeded
// after io_timeout_s, not hang for the kernel default.
TEST(HttpClientTest, RecvTimeoutSurfacesAsDeadlineExceeded) {
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener,
                          reinterpret_cast<struct sockaddr*>(&addr), &len),
            0);
  const int port = ntohs(addr.sin_port);

  HttpClientOptions options;
  options.io_timeout_s = 0.2;
  auto client = HttpClient::Connect("127.0.0.1", port, options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto response = client.value().Get("/healthz");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded)
      << response.status().ToString();
  ::close(listener);
}

}  // namespace
}  // namespace hlm::serve
