#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/distance.h"
#include "common/logging.h"
#include "common/snapshot.h"
#include "common/string_util.h"
#include "models/lda.h"
#include "obs/errors.h"
#include "obs/events.h"
#include "obs/exposition.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/statusz.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "recsys/similarity_search.h"
#include "serve/registry.h"
#include "serve/request_recorder.h"

namespace hlm::serve {

namespace {

/// Identity of one manifest version: inode mtime plus a content hash.
/// The mtime alone misses same-second rewrites; the hash alone misses
/// `touch`-style republish signals. Either differing counts as changed.
struct ManifestStamp {
  long long mtime_ns = -1;
  uint64_t content_hash = 0;

  bool operator==(const ManifestStamp& other) const {
    return mtime_ns == other.mtime_ns && content_hash == other.content_hash;
  }
};

Result<ManifestStamp> StampManifest(const std::string& manifest_path) {
  struct ::stat st;
  if (::stat(manifest_path.c_str(), &st) != 0) {
    return obs::TrackError(
        "serve", Status::NotFound("cannot stat manifest: " + manifest_path));
  }
  std::ifstream in(manifest_path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return obs::TrackError(
        "serve", Status::DataLoss("cannot read manifest: " + manifest_path));
  }
  ManifestStamp stamp;
  stamp.mtime_ns =
      static_cast<long long>(st.st_mtim.tv_sec) * 1000000000LL +
      static_cast<long long>(st.st_mtim.tv_nsec);
  stamp.content_hash = Fnv1a64(bytes.str());
  return stamp;
}

/// One immutable serving bundle: the registry that owns the loaded
/// models, plus pre-resolved read-path handles. Built fully before
/// publication and never mutated after, so readers need no lock.
struct ServingSnapshot {
  ModelRegistry registry;
  const models::LdaModel* lda = nullptr;
  std::unique_ptr<recsys::SimilaritySearch> similarity;
  int generation = 0;
  ManifestStamp stamp;
};

/// Registry names the endpoints resolve at snapshot load; every snapshot
/// producer registers exactly these.
constexpr const char* kRecommendModel = "lda";
constexpr const char* kSimilarModel = "lda-repr";

Result<std::shared_ptr<const ServingSnapshot>> LoadSnapshot(
    const std::string& manifest_path) {
  HLM_ASSIGN_OR_RETURN(ManifestStamp stamp, StampManifest(manifest_path));
  auto bundle = std::make_shared<ServingSnapshot>();
  HLM_ASSIGN_OR_RETURN(bundle->registry,
                       ModelRegistry::FromManifest(manifest_path));
  HLM_ASSIGN_OR_RETURN(bundle->lda, bundle->registry.Lda(kRecommendModel));
  HLM_ASSIGN_OR_RETURN(const std::vector<std::vector<double>>* rows,
                       bundle->registry.Representation(kSimilarModel));
  bundle->similarity = std::make_unique<recsys::SimilaritySearch>(
      *rows, cluster::DistanceKind::kCosine);
  bundle->generation = bundle->registry.generation();
  bundle->stamp = stamp;
  return std::shared_ptr<const ServingSnapshot>(std::move(bundle));
}

/// Feeds the global time-series collector one delta bucket when it is
/// due. Called from the watcher loop every poll tick and from the
/// introspection endpoints, so the windowed /statusz section stays
/// populated whichever of the two is driving.
void TickStats() {
  obs::TimeSeriesCollector& collector = obs::TimeSeriesCollector::Global();
  const double now_s = obs::NowMicros() / 1e6;
  if (!collector.ShouldRecord(now_s)) return;
  collector.Record(now_s, obs::MetricsRegistry::Global().Snapshot());
}

// ---------------------------------------------------------------------------
// Minimal HTTP/1.1 plumbing (GET + keep-alive is all the endpoints need).

using Params = std::map<std::string, std::string>;

struct HttpRequest {
  std::string method;
  std::string path;  // target before '?'
  /// Query pairs split on '&' and the first '='. Values are raw: no
  /// percent-decoding happens, which the numeric params never need.
  Params params;
  bool keep_alive = true;
};

constexpr const char* kJson = "application/json";

struct Response {
  int code = 200;
  const char* content_type = kJson;
  std::string body;
};

const char* HttpStatusText(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    default: return "Internal Server Error";
  }
}

/// The one place a failure becomes an HTTP answer: a JSON error body,
/// with the status code chosen by the error's kind. Bad input
/// (InvalidArgument, OutOfRange) is 400, an unknown endpoint (NotFound)
/// 404, an unsupported method (Unimplemented) 405, anything else 500.
Response ErrorResponse(const Status& status) {
  int code = 500;
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange: code = 400; break;
    case StatusCode::kNotFound: code = 404; break;
    case StatusCode::kUnimplemented: code = 405; break;
    default: break;
  }
  obs::JsonWriter json;
  json.BeginObject().Key("error").String(status.message()).EndObject();
  return {code, kJson, json.Take()};
}

std::string RenderResponse(const Response& response, bool keep_alive) {
  std::string head = "HTTP/1.1 " + std::to_string(response.code) + " " +
                     HttpStatusText(response.code) + "\r\n";
  head += std::string("Content-Type: ") + response.content_type + "\r\n";
  head += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  head += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  head += "\r\n";
  return head + response.body;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Reads one request's header block ("\r\n\r\n"-terminated) from a
/// keep-alive socket. `buffer` carries bytes read past the previous
/// request's terminator. Returns false on EOF/error/oversized header.
bool ReadRequestHead(int fd, std::string& buffer, std::string& head) {
  constexpr size_t kMaxHead = 64 * 1024;
  while (true) {
    size_t end = buffer.find("\r\n\r\n");
    if (end != std::string::npos) {
      head = buffer.substr(0, end);
      buffer.erase(0, end + 4);
      return true;
    }
    if (buffer.size() > kMaxHead) return false;
    char chunk[4096];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<size_t>(n));
  }
}

Result<HttpRequest> ParseRequestHead(const std::string& head) {
  std::istringstream lines(head);
  std::string request_line;
  if (!std::getline(lines, request_line)) {
    return Status::InvalidArgument("empty request");
  }
  if (!request_line.empty() && request_line.back() == '\r') {
    request_line.pop_back();
  }
  std::istringstream parts(request_line);
  HttpRequest request;
  std::string target, version;
  if (!(parts >> request.method >> target >> version)) {
    return Status::InvalidArgument("malformed request line: " + request_line);
  }
  size_t query_at = target.find('?');
  request.path = target.substr(0, query_at);
  if (query_at != std::string::npos) {
    for (std::string_view pair : Split(target.substr(query_at + 1), '&')) {
      size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        request.params[std::string(pair)] = "";
      } else {
        request.params[std::string(pair.substr(0, eq))] =
            std::string(pair.substr(eq + 1));
      }
    }
  }
  // HTTP/1.1 defaults to keep-alive; only an explicit close drops it.
  std::string header;
  while (std::getline(lines, header)) {
    if (!header.empty() && header.back() == '\r') header.pop_back();
    std::string lower;
    lower.reserve(header.size());
    for (char c : header) {
      lower.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c + 32) : c);
    }
    if (lower.find("connection:") == 0 &&
        lower.find("close") != std::string::npos) {
      request.keep_alive = false;
    }
  }
  return request;
}

// ---------------------------------------------------------------------------
// Endpoints. The /v1 handlers return their JSON body or the error that
// Dispatch turns into the error answer.

/// The raw value of query param `key`, or nullptr when it is absent.
const std::string* FindParam(const Params& params, const char* key) {
  auto it = params.find(key);
  return it == params.end() ? nullptr : &it->second;
}

bool ParamIs(const Params& params, const char* key, const char* value) {
  const std::string* found = FindParam(params, key);
  return found != nullptr && *found == value;
}

/// Parses one id in [0, bound). The range check runs on the parsed
/// 64-bit value, so an id past the int range is rejected instead of
/// being narrowed onto a small valid id.
Result<int> ParseId(std::string_view text, int bound, const char* what) {
  HLM_ASSIGN_OR_RETURN(long long value, ParseInt64(text));
  if (value < 0) {
    return Status::InvalidArgument(std::string("negative ") + what +
                                   " id: " + std::string(text));
  }
  if (value >= bound) {
    return Status::OutOfRange(std::string(what) + " out of range: " +
                              std::string(text));
  }
  return static_cast<int>(value);
}

/// The comma-separated `tokens` param as product ids below `vocab`; an
/// absent or empty param is the empty history.
Result<std::vector<models::Token>> ParseTokens(const Params& params,
                                               int vocab) {
  std::vector<models::Token> tokens;
  const std::string* spec = FindParam(params, "tokens");
  if (spec == nullptr || spec->empty()) return tokens;
  for (std::string_view item : Split(*spec, ',')) {
    HLM_ASSIGN_OR_RETURN(models::Token token, ParseId(item, vocab, "token"));
    tokens.push_back(token);
  }
  return tokens;
}

/// The `k` param: a result count in [1, 1e6], 5 when absent.
Result<int> ParseK(const Params& params) {
  const std::string* text = FindParam(params, "k");
  if (text == nullptr) return 5;
  HLM_ASSIGN_OR_RETURN(long long value, ParseInt64(*text));
  if (value <= 0 || value > 1000000) {
    return Status::InvalidArgument("k out of range: " + *text);
  }
  return static_cast<int>(value);
}

/// Renders the /v1 success envelope {"generation":N,"<key>":[...]},
/// one `render(json, item)` per element.
template <typename T, typename Render>
std::string Envelope(int generation, const char* key,
                     const std::vector<T>& items, Render render) {
  obs::JsonWriter json;
  json.BeginObject().Key("generation").Int(generation).Key(key).BeginArray();
  for (const T& item : items) render(json, item);
  return json.EndArray().EndObject().Take();
}

Result<std::string> HandleTopics(const ServingSnapshot& bundle,
                                 const Params& params) {
  HLM_ASSIGN_OR_RETURN(std::vector<models::Token> tokens,
                       ParseTokens(params, bundle.lda->vocab_size()));
  return Envelope(bundle.generation, "topics",
                  bundle.lda->InferTopicMixture(tokens),
                  [](obs::JsonWriter& json, double p) { json.Fixed(p, 9); });
}

Result<std::string> HandleRecommend(const ServingSnapshot& bundle,
                                    const Params& params) {
  HLM_ASSIGN_OR_RETURN(std::vector<models::Token> tokens,
                       ParseTokens(params, bundle.lda->vocab_size()));
  HLM_ASSIGN_OR_RETURN(int k, ParseK(params));
  std::vector<bool> owned(bundle.lda->vocab_size(), false);
  for (models::Token token : tokens) owned[token] = true;
  std::vector<double> scores = bundle.lda->NextProductDistribution(tokens);
  // Top-k unowned products by score; ties break toward the smaller
  // product id so responses are deterministic.
  std::vector<int> candidates;
  candidates.reserve(scores.size());
  for (int p = 0; p < static_cast<int>(scores.size()); ++p) {
    if (!owned[p]) candidates.push_back(p);
  }
  const size_t keep = std::min(candidates.size(), static_cast<size_t>(k));
  std::partial_sort(candidates.begin(), candidates.begin() + keep,
                    candidates.end(), [&scores](int a, int b) {
                      if (scores[a] != scores[b]) {
                        return scores[a] > scores[b];
                      }
                      return a < b;
                    });
  candidates.resize(keep);
  return Envelope(bundle.generation, "items", candidates,
                  [&scores](obs::JsonWriter& json, int p) {
                    json.BeginObject().Key("product").Int(p);
                    json.Key("score").Fixed(scores[p], 9).EndObject();
                  });
}

Result<std::string> HandleSimilar(const ServingSnapshot& bundle,
                                  const Params& params) {
  const std::string* company_text = FindParam(params, "company");
  if (company_text == nullptr) {
    return Status::InvalidArgument("missing required param: company");
  }
  HLM_ASSIGN_OR_RETURN(
      int company,
      ParseId(*company_text, bundle.similarity->size(), "company"));
  HLM_ASSIGN_OR_RETURN(int k, ParseK(params));
  HLM_ASSIGN_OR_RETURN(std::vector<recsys::Neighbor> neighbors,
                       bundle.similarity->TopK(company, k));
  return Envelope(bundle.generation, "neighbors", neighbors,
                  [](obs::JsonWriter& json, const recsys::Neighbor& neighbor) {
                    json.BeginObject().Key("company").Int(neighbor.company_id);
                    json.Key("distance").Fixed(neighbor.distance, 9);
                    json.EndObject();
                  });
}

std::string HealthzBody(const ServingSnapshot& bundle) {
  obs::JsonWriter json;
  json.BeginObject().Key("status").String("ok");
  json.Key("generation").Int(bundle.generation);
  json.Key("uptime_seconds").Fixed(obs::NowMicros() / 1e6, 3);
  json.Key("models_loaded")
      .Int(static_cast<long long>(bundle.registry.loaded_count()));
  return json.EndObject().Take();
}

Response V1Response(Result<std::string> body) {
  if (!body.ok()) return ErrorResponse(body.status());
  return {200, kJson, std::move(body).value()};
}

/// Answers one parsed request on its already-classified route.
Response Dispatch(const HttpRequest& request, Route route,
                  const ServingSnapshot& bundle) {
  if (request.method != "GET") {
    return ErrorResponse(Status::Unimplemented("only GET is supported"));
  }
  switch (route) {
    case Route::kHealthz:
      if (ParamIs(request.params, "format", "text")) {
        return {200, "text/plain", "ok"};
      }
      return {200, kJson, HealthzBody(bundle)};
    case Route::kStatusz:
      TickStats();
      if (ParamIs(request.params, "format", "json")) {
        return {200, kJson, obs::StatuszJson()};
      }
      return {200, "text/plain", obs::StatuszText()};
    case Route::kMetricsz:
      TickStats();
      return {200, "text/plain; version=0.0.4; charset=utf-8",
              obs::RenderPrometheusText(
                  obs::MetricsRegistry::Global().Snapshot())};
    case Route::kTopics:
      return V1Response(HandleTopics(bundle, request.params));
    case Route::kRecommend:
      return V1Response(HandleRecommend(bundle, request.params));
    case Route::kSimilar:
      return V1Response(HandleSimilar(bundle, request.params));
    case Route::kOther:
      break;
  }
  return ErrorResponse(Status::NotFound("no such endpoint: " + request.path));
}

}  // namespace

// ---------------------------------------------------------------------------

struct Server::Impl {
  ServerConfig config;
  int listen_fd = -1;
  int port = 0;

  /// The serving bundle; swapped wholesale on reload. Readers copy the
  /// shared_ptr once per request and keep the old bundle alive for the
  /// request's lifetime, so swaps never invalidate in-flight work. A
  /// plain mutex guards the pointer instead of atomic<shared_ptr>:
  /// libstdc++'s _Sp_atomic releases its internal spin lock with
  /// relaxed ordering on the load path, which ThreadSanitizer (and a
  /// strict reading of the memory model) flags as a race against the
  /// publishing store. The critical section is a single refcount bump.
  mutable std::mutex snapshot_mu;  // hlm-lint: allow(lock-discipline)
  std::shared_ptr<const ServingSnapshot> snapshot;

  std::atomic<bool> stopping{false};

  /// live_fds holds the open connection fds. conn_mu guards it and is
  /// taken only at connect and disconnect, never per request. Each
  /// connection thread erases and closes its own fd under the lock, so
  /// Stop() only ever shuts down fds that are still open.
  std::mutex conn_mu;  // hlm-lint: allow(lock-discipline)
  std::condition_variable conn_drained;
  std::set<int> live_fds;

  /// Serializes reload attempts (watcher vs. explicit ReloadIfChanged)
  /// and guards last_attempt.
  std::mutex reload_mu;  // hlm-lint: allow(lock-discipline)
  ManifestStamp last_attempt;

  /// Wakes the watcher out of its poll sleep at Stop().
  std::mutex watcher_mu;  // hlm-lint: allow(lock-discipline)
  std::condition_variable watcher_cv;

  obs::Counter* reloads_total = nullptr;
  obs::Gauge* generation_gauge = nullptr;
  RequestRecorder recorder;

  std::thread accept_thread;   // hlm-lint: allow(no-raw-thread)
  std::thread watcher_thread;

  void InitMetrics() {
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
    reloads_total = metrics.GetCounter("hlm.serve.server.reloads_total");
    generation_gauge = metrics.GetGauge("hlm.serve.server.generation");
    metrics.GetGauge("hlm.serve.server.port")
        ->Set(static_cast<double>(port));
  }

  std::shared_ptr<const ServingSnapshot> CurrentSnapshot() const {
    std::lock_guard<std::mutex> lock(snapshot_mu);  // hlm-lint: allow(lock-discipline)
    return snapshot;
  }

  void PublishSnapshot(std::shared_ptr<const ServingSnapshot> bundle) {
    generation_gauge->Set(static_cast<double>(bundle->generation));
    std::lock_guard<std::mutex> lock(snapshot_mu);  // hlm-lint: allow(lock-discipline)
    snapshot = std::move(bundle);
  }

  Result<bool> ReloadIfChanged() {
    std::lock_guard<std::mutex> lock(reload_mu);  // hlm-lint: allow(lock-discipline)
    HLM_ASSIGN_OR_RETURN(ManifestStamp stamp,
                         StampManifest(config.manifest_path));
    if (stamp == CurrentSnapshot()->stamp || stamp == last_attempt) {
      return false;
    }
    // Remember the attempt before loading: a manifest that fails to
    // load is skipped until it changes again instead of being retried
    // (and error-counted) every poll tick.
    last_attempt = stamp;
    Result<std::shared_ptr<const ServingSnapshot>> loaded =
        LoadSnapshot(config.manifest_path);
    if (!loaded.ok()) {
      HLM_LOG(Warning) << "hot reload failed; keeping generation "
                       << CurrentSnapshot()->generation << ": "
                       << loaded.status().message();
      return loaded.status();
    }
    PublishSnapshot(loaded.value());
    reloads_total->Increment();
    HLM_EVENT("serve.server.reloaded",
              {{"generation", CurrentSnapshot()->generation}});
    return true;
  }

  void ServeConnection(int fd) {
    std::string buffer;
    while (!stopping.load(std::memory_order_relaxed)) {
      std::string head;
      if (!ReadRequestHead(fd, buffer, head)) break;
      // Span and clock start once the request head has arrived:
      // keep-alive idle time is not request latency.
      obs::TraceSpan span("serve.http.request");
      const double start_us = obs::NowMicros();
      Result<HttpRequest> request = ParseRequestHead(head);
      Route route = Route::kOther;
      int generation = -1;
      Response response;
      if (request.ok()) {
        route = RouteForPath(request->path);
        std::shared_ptr<const ServingSnapshot> bundle = CurrentSnapshot();
        generation = bundle->generation;
        response = Dispatch(*request, route, *bundle);
      } else {
        response = ErrorResponse(request.status());
      }
      recorder.Record(route, response.code,
                      (obs::NowMicros() - start_us) / 1e6, generation);
      const bool keep_alive = request.ok() && request->keep_alive;
      if (!SendAll(fd, RenderResponse(response, keep_alive)) || !keep_alive) {
        break;
      }
    }
    CloseConnection(fd);
  }

  void CloseConnection(int fd) {
    std::lock_guard<std::mutex> lock(conn_mu);  // hlm-lint: allow(lock-discipline)
    live_fds.erase(fd);
    ::close(fd);
    // Notified under the lock: once Stop() sees the set empty it may
    // destroy this Impl, so the unlock is the last touch of it.
    if (live_fds.empty()) conn_drained.notify_all();
  }

  void AcceptLoop() {
    while (!stopping.load(std::memory_order_relaxed)) {
      int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // listen socket shut down (Stop) or fatal error
      }
      int nodelay = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
      {
        std::lock_guard<std::mutex> lock(conn_mu);  // hlm-lint: allow(lock-discipline)
        if (stopping.load(std::memory_order_relaxed)) {
          ::close(fd);
          break;
        }
        live_fds.insert(fd);
      }
      try {
        // Detached: the thread unregisters and closes its own fd, and
        // Stop() waits for live_fds to drain instead of joining.
        // hlm-lint: allow(no-raw-thread)
        std::thread([this, fd] { ServeConnection(fd); }).detach();
      } catch (const std::system_error& e) {
        (void)obs::TrackError(
            "serve", Status::Internal(std::string("connection thread: ") +
                                      e.what()));
        CloseConnection(fd);
      }
    }
  }

  void WatcherLoop() {
    const auto interval = std::chrono::milliseconds(config.poll_interval_ms);
    while (true) {
      {
        std::unique_lock<std::mutex> lock(watcher_mu);  // hlm-lint: allow(lock-discipline)
        watcher_cv.wait_for(lock, interval, [this] {
          return stopping.load(std::memory_order_relaxed);
        });
      }
      if (stopping.load(std::memory_order_relaxed)) return;
      TickStats();
      // A failed reload is already error-counted and logged; keep
      // polling, since the next manifest version may load fine.
      (void)ReloadIfChanged();
    }
  }

  void Stop() {
    if (stopping.exchange(true)) return;
    {
      std::lock_guard<std::mutex> lock(watcher_mu);  // hlm-lint: allow(lock-discipline)
    }
    watcher_cv.notify_all();
    // Shut down the listen socket to kick accept() out of its block.
    if (listen_fd >= 0) ::shutdown(listen_fd, SHUT_RDWR);
    if (accept_thread.joinable()) accept_thread.join();
    if (watcher_thread.joinable()) watcher_thread.join();
    // No connection registers any more. Kick the live ones out of
    // recv() and wait until each has closed its own fd.
    {
      std::unique_lock<std::mutex> lock(conn_mu);  // hlm-lint: allow(lock-discipline)
      for (int fd : live_fds) ::shutdown(fd, SHUT_RDWR);
      conn_drained.wait(lock, [this] { return live_fds.empty(); });
    }
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
    }
    HLM_EVENT("serve.server.stopped", {{"port", port}});
  }
};

Server::Server() : impl_(std::make_unique<Impl>()) {}

Server::~Server() { Stop(); }

Result<std::unique_ptr<Server>> Server::Start(const ServerConfig& config) {
  if (config.manifest_path.empty()) {
    return obs::TrackError(
        "serve", Status::InvalidArgument("manifest_path must be set"));
  }
  std::unique_ptr<Server> server(new Server());
  Impl& impl = *server->impl_;
  impl.config = config;

  HLM_ASSIGN_OR_RETURN(std::shared_ptr<const ServingSnapshot> bundle,
                       LoadSnapshot(config.manifest_path));

  impl.listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (impl.listen_fd < 0) {
    return obs::TrackError(
        "serve",
        Status::Internal(std::string("socket: ") + std::strerror(errno)));
  }
  int reuse = 1;
  ::setsockopt(impl.listen_fd, SOL_SOCKET, SO_REUSEADDR, &reuse,
               sizeof(reuse));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(config.port));
  if (::bind(impl.listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return obs::TrackError(
        "serve", Status::Internal("bind port " +
                                  std::to_string(config.port) + ": " +
                                  std::strerror(errno)));
  }
  if (::listen(impl.listen_fd, 128) != 0) {
    return obs::TrackError(
        "serve",
        Status::Internal(std::string("listen: ") + std::strerror(errno)));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(impl.listen_fd,
                    reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) != 0) {
    return obs::TrackError(
        "serve",
        Status::Internal(std::string("getsockname: ") +
                         std::strerror(errno)));
  }
  impl.port = static_cast<int>(ntohs(addr.sin_port));

  impl.InitMetrics();
  impl.PublishSnapshot(std::move(bundle));
  impl.last_attempt = impl.CurrentSnapshot()->stamp;

  impl.accept_thread =  // hlm-lint: allow(no-raw-thread)
      std::thread([&impl] { impl.AcceptLoop(); });
  if (config.poll_interval_ms > 0) {
    impl.watcher_thread =  // hlm-lint: allow(no-raw-thread)
        std::thread([&impl] { impl.WatcherLoop(); });
  }
  HLM_EVENT("serve.server.started",
            {{"port", impl.port},
             {"generation", impl.CurrentSnapshot()->generation}});
  return server;
}

int Server::port() const { return impl_->port; }

int Server::generation() const {
  return impl_->CurrentSnapshot()->generation;
}

Result<bool> Server::ReloadIfChanged() { return impl_->ReloadIfChanged(); }

void Server::Stop() { impl_->Stop(); }

}  // namespace hlm::serve
