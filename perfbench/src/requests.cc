#include "requests.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/string_util.h"
#include "math/rng.h"
#include "obs/trace.h"

namespace perfbench {

const char* OpName(Op op) {
  switch (op) {
    case Op::kRecommend: return "recommend";
    case Op::kSimilar: return "similar";
    case Op::kTopics: return "topics";
  }
  return "other";
}

namespace {

std::string JoinTokens(const std::vector<int>& tokens) {
  std::string out;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(tokens[i]);
  }
  return out;
}

/// Company-id sampler: uniform, or Zipf(s) over a seeded permutation so
/// the popular companies are not simply the lowest ids.
class CompanySampler {
 public:
  CompanySampler(int n, double zipf_s, hlm::Rng* rng) : rng_(rng) {
    if (zipf_s <= 0.0) return;
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), 0);
    rng_->Shuffle(&order_);
    cdf_.resize(n);
    double total = 0.0;
    for (int r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), zipf_s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
    n_ = n;
  }

  int Next(int n) {
    if (cdf_.empty()) return static_cast<int>(rng_->NextBounded(n));
    const double u = rng_->NextDouble();
    const int rank = static_cast<int>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return order_[std::min(rank, n_ - 1)];
  }

 private:
  hlm::Rng* rng_;
  std::vector<int> order_;
  std::vector<double> cdf_;
  int n_ = 0;
};

}  // namespace

Op RouteAt(size_t i) {
  constexpr Op kInterleave[] = {Op::kRecommend, Op::kSimilar, Op::kRecommend,
                                Op::kTopics};
  return kInterleave[i % 4];
}

std::vector<Request> GenerateRequests(
    const std::vector<std::vector<int>>& sequences, int count, double zipf_s,
    uint64_t seed) {
  hlm::Rng rng(seed);
  const int n = static_cast<int>(sequences.size());
  CompanySampler sampler(n, zipf_s, &rng);
  const std::string k = "&k=" + std::to_string(kTopK);
  std::vector<Request> requests;
  requests.reserve(count);
  while (static_cast<int>(requests.size()) < count) {
    Request request;
    request.op = RouteAt(requests.size());
    request.company = sampler.Next(n);
    if (request.op == Op::kSimilar) {
      request.url = "/v1/similar?company=" +
                    std::to_string(request.company) + k;
      requests.push_back(std::move(request));
      continue;
    }
    const std::vector<int>& sequence = sequences[request.company];
    if (sequence.empty()) continue;
    if (request.op == Op::kRecommend) {
      const size_t prefix = 1 + rng.NextBounded(sequence.size());
      request.basket.assign(sequence.begin(), sequence.begin() + prefix);
      request.url = "/v1/recommend?tokens=" + JoinTokens(request.basket) + k;
    } else {
      request.basket = sequence;
      request.url = "/v1/topics?tokens=" + JoinTokens(request.basket);
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

std::string ReferenceBody(const Request& request,
                          const hlm::models::LdaModel& lda,
                          const hlm::recsys::SimilaritySearch& index,
                          int generation, const std::string& request_id) {
  hlm::obs::TraceSpan root(std::string("replay.") + OpName(request.op),
                           nullptr, request_id);
  std::string body = "{\"generation\":" + std::to_string(generation);
  if (request.op == Op::kTopics) {
    std::vector<double> mixture;
    {
      hlm::obs::TraceSpan span("models.infer_topic", nullptr, request_id);
      mixture = lda.InferTopicMixture(request.basket);
    }
    body += ",\"topics\":[";
    for (size_t i = 0; i < mixture.size(); ++i) {
      if (i > 0) body += ",";
      body += hlm::FormatDouble(mixture[i], 9);
    }
    return body + "]}";
  }
  if (request.op == Op::kRecommend) {
    std::vector<double> scores;
    {
      hlm::obs::TraceSpan span("models.next_product", nullptr, request_id);
      scores = lda.NextProductDistribution(request.basket);
    }
    std::vector<bool> owned(scores.size(), false);
    for (int token : request.basket) owned[token] = true;
    std::vector<int> ranked;
    for (int p = 0; p < static_cast<int>(scores.size()); ++p) {
      if (!owned[p]) ranked.push_back(p);
    }
    // Higher score first, ties toward the smaller product id.
    std::stable_sort(ranked.begin(), ranked.end(), [&scores](int a, int b) {
      return scores[a] > scores[b];
    });
    ranked.resize(std::min<size_t>(ranked.size(), kTopK));
    body += ",\"items\":[";
    for (size_t i = 0; i < ranked.size(); ++i) {
      if (i > 0) body += ",";
      body += "{\"product\":" + std::to_string(ranked[i]) + ",\"score\":" +
              hlm::FormatDouble(scores[ranked[i]], 9) + "}";
    }
    return body + "]}";
  }
  hlm::Result<std::vector<hlm::recsys::Neighbor>> neighbors = [&] {
    hlm::obs::TraceSpan span("recsys.topk", nullptr, request_id);
    return index.TopK(request.company, kTopK);
  }();
  if (!neighbors.ok()) return "error: " + neighbors.status().message();
  body += ",\"neighbors\":[";
  for (size_t i = 0; i < neighbors->size(); ++i) {
    const hlm::recsys::Neighbor& neighbor = (*neighbors)[i];
    if (i > 0) body += ",";
    body += "{\"company\":" + std::to_string(neighbor.company_id) +
            ",\"distance\":" + hlm::FormatDouble(neighbor.distance, 9) + "}";
  }
  return body + "]}";
}

long long CountMismatches(
    const std::vector<KeptResponse>& kept, const std::vector<Request>& requests,
    const std::function<const ServedSet*(int generation)>& served_set) {
  long long mismatches = 0;
  for (const KeptResponse& response : kept) {
    const ServedSet* set = served_set(response.generation);
    if (set == nullptr ||
        ReferenceBody(requests[response.index], *set->lda, *set->index,
                      response.generation, "check") != response.body) {
      ++mismatches;
    }
  }
  return mismatches;
}

int ParseGeneration(const std::string& body) {
  static const std::string kPrefix = "{\"generation\":";
  if (body.compare(0, kPrefix.size(), kPrefix) != 0) return -1;
  int generation = 0;
  size_t i = kPrefix.size();
  if (i >= body.size() || body[i] < '0' || body[i] > '9') return -1;
  for (; i < body.size() && body[i] >= '0' && body[i] <= '9'; ++i) {
    generation = generation * 10 + (body[i] - '0');
  }
  return generation;
}

}  // namespace perfbench
