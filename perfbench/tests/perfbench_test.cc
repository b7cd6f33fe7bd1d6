// Tests of the benchmark's own machinery: the request generator is a
// pure function of its seed with an exact route interleave, open-loop
// timing charges a server stall to the requests queued behind it, and a
// response that differs from the reference by one byte is a failure.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/distance.h"
#include "load.h"
#include "models/lda.h"
#include "recsys/similarity_search.h"
#include "requests.h"

namespace perfbench {
namespace {

std::vector<std::vector<int>> Sequences() {
  std::vector<std::vector<int>> sequences;
  for (int c = 0; c < 50; ++c) {
    std::vector<int> sequence;
    for (int p = 0; p < c % 6; ++p) sequence.push_back((c * 7 + p * 3) % 40);
    sequences.push_back(sequence);
  }
  return sequences;
}

std::vector<std::string> Urls(uint64_t seed, double zipf_s) {
  std::vector<std::string> urls;
  for (const Request& r : GenerateRequests(Sequences(), 500, zipf_s, seed)) {
    urls.push_back(r.url);
  }
  return urls;
}

TEST(RequestGeneratorTest, SameSeedGivesSameUrlSequence) {
  for (double zipf_s : {0.0, 1.1}) {
    EXPECT_EQ(Urls(7, zipf_s), Urls(7, zipf_s));
    EXPECT_NE(Urls(7, zipf_s), Urls(8, zipf_s));
  }
}

TEST(RequestGeneratorTest, RoutesFollowTheExactInterleave) {
  for (uint64_t seed : {1, 2, 3}) {
    const std::vector<Request> requests =
        GenerateRequests(Sequences(), 400, 1.1, seed);
    int counts[kNumOps] = {};
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_EQ(requests[i].op, RouteAt(i));
      ++counts[static_cast<int>(requests[i].op)];
    }
    EXPECT_EQ(counts[static_cast<int>(Op::kRecommend)], 200);
    EXPECT_EQ(counts[static_cast<int>(Op::kSimilar)], 100);
    EXPECT_EQ(counts[static_cast<int>(Op::kTopics)], 100);
  }
}

TEST(RequestGeneratorTest, CheckedRequestsCoverEveryRoute) {
  int counts[kNumOps] = {};
  for (size_t i = 0; i < 4 * kCheckEvery; i += kCheckEvery) {
    ++counts[static_cast<int>(RouteAt(i))];
  }
  EXPECT_EQ(counts[static_cast<int>(Op::kRecommend)], 2);
  EXPECT_EQ(counts[static_cast<int>(Op::kSimilar)], 1);
  EXPECT_EQ(counts[static_cast<int>(Op::kTopics)], 1);
}

TEST(RequestGeneratorTest, BasketsComeFromTheCorpusAndAreNeverEmpty) {
  const std::vector<std::vector<int>> sequences = Sequences();
  for (const Request& r : GenerateRequests(sequences, 500, 0.0, 3)) {
    if (r.op == Op::kSimilar) continue;
    const std::vector<int>& owned = sequences[r.company];
    ASSERT_FALSE(r.basket.empty());
    ASSERT_LE(r.basket.size(), owned.size());
    EXPECT_TRUE(std::equal(r.basket.begin(), r.basket.end(), owned.begin()));
    if (r.op == Op::kTopics) EXPECT_EQ(r.basket, owned);
  }
}

/// Minimal keep-alive HTTP responder on a loopback port. Request number
/// `stall_at` (0-based, counted across connections) is answered only
/// after `stall` — a one-off server stall.
class StallingServer {
 public:
  StallingServer(long stall_at, std::chrono::milliseconds stall)
      : stall_at_(stall_at), stall_(stall) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(listen_fd_, 16);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    acceptor_ = std::thread([this] { Accept(); });
  }

  ~StallingServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    acceptor_.join();
    for (int fd : fds_) ::shutdown(fd, SHUT_RDWR);
    for (std::thread& t : connections_) t.join();
    for (int fd : fds_) ::close(fd);
    ::close(listen_fd_);
  }

  StallingServer(const StallingServer&) = delete;
  StallingServer& operator=(const StallingServer&) = delete;

  int port() const { return port_; }

 private:
  void Accept() {
    while (true) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      fds_.push_back(fd);
      connections_.emplace_back([this, fd] { Serve(fd); });
    }
  }

  void Serve(int fd) {
    const std::string body = "{\"generation\":1}";
    const std::string response =
        "HTTP/1.1 200 OK\r\nContent-Length: " + std::to_string(body.size()) +
        "\r\nConnection: keep-alive\r\n\r\n" + body;
    std::string buffer;
    char chunk[4096];
    while (true) {
      size_t end;
      while ((end = buffer.find("\r\n\r\n")) == std::string::npos) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) return;
        buffer.append(chunk, static_cast<size_t>(n));
      }
      buffer.erase(0, end + 4);
      if (served_.fetch_add(1) == stall_at_) std::this_thread::sleep_for(stall_);
      if (::send(fd, response.data(), response.size(), MSG_NOSIGNAL) <= 0) {
        return;
      }
    }
  }

  const long stall_at_;
  const std::chrono::milliseconds stall_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<long> served_{0};
  std::vector<int> fds_;                  // touched by the acceptor only
  std::vector<std::thread> connections_;  // until it has been joined
  std::thread acceptor_;
};

LoadResult OpenLoop(int port) {
  std::vector<Request> requests(1);
  requests[0].op = Op::kTopics;
  requests[0].url = "/v1/topics?tokens=1";
  LoadOptions options;
  options.port = port;
  options.seconds = 0.6;
  options.rate = 1000.0;
  std::vector<Connection> connections(1);
  return RunLoad(requests, options, connections);
}

TEST(OpenLoopTest, OneOffStallRaisesP90AndP99OfQueuedRequests) {
  double calm_p90 = 0.0, calm_p99 = 0.0;
  {
    StallingServer calm(-1, std::chrono::milliseconds(0));
    const LoadResult r = OpenLoop(calm.port());
    ASSERT_EQ(r.transport_failures, 0);
    ASSERT_GT(r.latency_us.size(), 500u);
    calm_p90 = Quantile(r.latency_us, 0.9);
    calm_p99 = Quantile(r.latency_us, 0.99);
  }
  StallingServer stalled(100, std::chrono::milliseconds(200));
  const LoadResult r = OpenLoop(stalled.port());
  ASSERT_EQ(r.transport_failures, 0);
  // About 200 of ~600 requests fall due during the stall and wait behind
  // it. A clock started at the send would see one slow request, which
  // neither p90 nor p99 shows; timing from the due time does.
  EXPECT_LT(calm_p90, 20000.0);
  EXPECT_LT(calm_p99, 40000.0);
  EXPECT_GT(Quantile(r.latency_us, 0.9), 50000.0);
  EXPECT_GT(Quantile(r.latency_us, 0.99), 100000.0);
  EXPECT_GT(Quantile(r.late_us, 0.99), 80000.0);
}

/// A tiny served set: LDA(2) on the test sequences and an index over
/// made-up 2-d rows.
struct TinySet {
  TinySet() : lda(40, Config()), index(Rows(), hlm::cluster::DistanceKind::kCosine) {
    std::vector<std::vector<int>> docs;
    for (const std::vector<int>& s : Sequences()) {
      if (!s.empty()) docs.push_back(s);
    }
    EXPECT_TRUE(lda.Train(docs).ok());
  }
  static hlm::models::LdaConfig Config() {
    hlm::models::LdaConfig config;
    config.num_topics = 2;
    config.burn_in_iterations = 10;
    config.post_burn_in_samples = 2;
    return config;
  }
  static std::vector<std::vector<double>> Rows() {
    std::vector<std::vector<double>> rows;
    for (int c = 0; c < 50; ++c) rows.push_back({1.0 + c % 7, 1.0 + c % 5});
    return rows;
  }
  hlm::models::LdaModel lda;
  hlm::recsys::SimilaritySearch index;
};

TEST(AnswerCheckTest, OneCorruptedByteCountsAsAFailure) {
  const TinySet set;
  const ServedSet served{&set.lda, &set.index};
  const std::vector<Request> requests = GenerateRequests(Sequences(), 64, 0.0, 5);
  std::vector<KeptResponse> kept;
  for (size_t i = 0; i < requests.size(); ++i) {
    kept.push_back({i, 3, ReferenceBody(requests[i], set.lda, set.index, 3, "t")});
  }
  const auto generation_3 = [&](int generation) -> const ServedSet* {
    return generation == 3 ? &served : nullptr;
  };
  EXPECT_EQ(CountMismatches(kept, requests, generation_3), 0);
  // One byte of one body flipped: exactly one failure.
  std::string& body = kept[17].body;
  body[body.size() / 2] ^= 0x01;
  EXPECT_EQ(CountMismatches(kept, requests, generation_3), 1);
  // A generation the daemon was never told to serve is a failure too.
  kept[17].body = ReferenceBody(requests[17], set.lda, set.index, 3, "t");
  kept[5].generation = 4;
  EXPECT_EQ(CountMismatches(kept, requests, generation_3), 1);
}

}  // namespace
}  // namespace perfbench
