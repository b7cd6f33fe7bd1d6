#ifndef PERFBENCH_REQUESTS_H_
#define PERFBENCH_REQUESTS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "models/lda.h"
#include "recsys/similarity_search.h"

namespace perfbench {

/// The three read endpoints the daemon serves.
enum class Op { kRecommend = 0, kSimilar = 1, kTopics = 2 };
inline constexpr int kNumOps = 3;
const char* OpName(Op op);

/// One generated request: the URL the daemon receives plus the inputs
/// the in-process reference answer is computed from.
struct Request {
  Op op = Op::kTopics;
  int company = 0;           // /v1/similar query id, else basket owner
  std::vector<int> basket;   // /v1/recommend and /v1/topics tokens
  std::string url;
};

/// Result count every generated request asks for (`k=`).
inline constexpr int kTopK = 5;

/// Route of request i: the fixed interleave recommend, similar,
/// recommend, topics. Every four consecutive requests hold the 50/25/25
/// mix exactly, so a percentile near a route's share cannot move between
/// routes from one run to the next.
Op RouteAt(size_t i);

/// Draws `count` requests from `sequences` (one time-ordered install
/// sequence per company, the corpus order the snapshot was built from),
/// request i on route RouteAt(i). Company ids follow Zipf(zipf_s) over a
/// seeded permutation of ids, or are uniform when zipf_s is 0. Recommend
/// baskets are a time-ordered prefix of a real sequence, topics baskets
/// a whole sequence; a company with an empty sequence is redrawn for
/// both. The same seed gives the same request list.
std::vector<Request> GenerateRequests(
    const std::vector<std::vector<int>>& sequences, int count, double zipf_s,
    uint64_t seed);

/// The response body the daemon must return for `request` from a
/// snapshot holding `lda` and an index over its representation, at
/// `generation`: same ranking, tie-breaking and FormatDouble(., 9)
/// rendering as the server. Opens replay.* / models.* / recsys.* trace
/// spans (no-ops unless the trace recorder is enabled).
std::string ReferenceBody(const Request& request,
                          const hlm::models::LdaModel& lda,
                          const hlm::recsys::SimilaritySearch& index,
                          int generation, const std::string& request_id);

/// The models one snapshot set serves.
struct ServedSet {
  const hlm::models::LdaModel* lda = nullptr;
  const hlm::recsys::SimilaritySearch* index = nullptr;
};

/// A response kept for the answer check: index into the request list,
/// the generation it carried, and its body.
struct KeptResponse {
  size_t index = 0;
  int generation = 0;
  std::string body;
};

/// Kept responses whose body is not byte for byte the ReferenceBody of
/// their request at their generation. `served_set` maps a generation to
/// the set the daemon served under it, or nullptr for one that was
/// never published, which counts as a mismatch.
long long CountMismatches(
    const std::vector<KeptResponse>& kept, const std::vector<Request>& requests,
    const std::function<const ServedSet*(int generation)>& served_set);

/// Generation stamped at the start of a response body, or -1.
int ParseGeneration(const std::string& body);

}  // namespace perfbench

#endif  // PERFBENCH_REQUESTS_H_
