#include "trace/trace.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace cca::trace {

std::string keyword_name(KeywordId id) {
  return "kw" + std::to_string(id);
}

void QueryTrace::add_query(std::vector<KeywordId> keywords) {
  CCA_CHECK_MSG(!keywords.empty(), "empty query");
  std::sort(keywords.begin(), keywords.end());
  keywords.erase(std::unique(keywords.begin(), keywords.end()),
                 keywords.end());
  CCA_CHECK_MSG(keywords.back() < vocabulary_size_,
                "keyword " << keywords.back() << " outside vocabulary of "
                           << vocabulary_size_);
  digest_.add32(static_cast<std::uint32_t>(keywords.size()));
  for (const KeywordId k : keywords) digest_.add32(k);
  queries_.push_back(Query{std::move(keywords)});
}

double QueryTrace::mean_query_length() const {
  if (queries_.empty()) return 0.0;
  std::size_t total = 0;
  for (const Query& q : queries_) total += q.size();
  return static_cast<double>(total) / static_cast<double>(queries_.size());
}

std::size_t QueryTrace::multi_keyword_queries() const {
  std::size_t n = 0;
  for (const Query& q : queries_)
    if (q.size() >= 2) ++n;
  return n;
}

std::vector<std::size_t> QueryTrace::keyword_frequencies() const {
  std::vector<std::size_t> freq(vocabulary_size_, 0);
  for (const Query& q : queries_)
    for (KeywordId k : q.keywords) ++freq[k];
  return freq;
}

}  // namespace cca::trace
