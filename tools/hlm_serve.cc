// hlm_serve: long-running online recommendation daemon over a model
// snapshot directory (see DESIGN.md "Serving").
//
//   hlm_serve --manifest DIR/manifest.txt [--port P] [--port_file F]
//             [--poll_interval_ms MS]
//
// Binds 127.0.0.1:<port> (port 0 picks an ephemeral port and prints
// it; --port_file additionally writes it for scripts), serves
// /healthz, /statusz, /metricsz, /v1/topics, /v1/recommend,
// /v1/similar from the manifest's "lda" and "lda-repr" models, and hot
// reloads the manifest when it changes on disk. SIGINT/SIGTERM stop
// the server cleanly.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "common/flags.h"
#include "common/status.h"
#include "serve/server.h"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

}  // namespace

int main(int argc, char** argv) {
  std::string manifest;
  std::string port_file;
  long long port = 0;
  long long poll_interval_ms = 200;

  hlm::FlagSet flags;
  flags.AddString("manifest", &manifest, "registry manifest path");
  flags.AddInt64("port", &port, "TCP port (0 = ephemeral)");
  flags.AddString("port_file", &port_file,
                  "write the bound port here (for scripts)");
  flags.AddInt64("poll_interval_ms", &poll_interval_ms,
                 "manifest poll interval; <= 0 disables hot reload");
  hlm::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  if (manifest.empty()) {
    std::fprintf(stderr, "--manifest is required\n%s", flags.Usage().c_str());
    return 2;
  }

  hlm::serve::ServerConfig config;
  config.manifest_path = manifest;
  config.port = static_cast<int>(port);
  config.poll_interval_ms = static_cast<int>(poll_interval_ms);

  hlm::Result<std::unique_ptr<hlm::serve::Server>> server =
      hlm::serve::Server::Start(config);
  if (!server.ok()) {
    std::fprintf(stderr, "hlm_serve: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }

  std::fprintf(stdout, "hlm_serve listening on 127.0.0.1:%d (generation %d)\n",
               server.value()->port(), server.value()->generation());
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.value()->port() << "\n";
    if (!out.good()) {
      std::fprintf(stderr, "hlm_serve: cannot write %s\n", port_file.c_str());
      return 1;
    }
  }

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stdout, "hlm_serve: stopping (generation %d)\n",
               server.value()->generation());
  server.value()->Stop();
  return 0;
}
