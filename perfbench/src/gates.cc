#include "gates.h"

#include <bit>
#include <cstdint>
#include <string>

namespace perfbench {
namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameItems(const std::vector<fairrec::ScoredItem>& a,
               const std::vector<fairrec::ScoredItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item || !SameBits(a[i].score, b[i].score)) return false;
  }
  return true;
}

}  // namespace

bool SameUserResponse(const fairrec::serve::UserRecResponse& a,
                      const fairrec::serve::UserRecResponse& b) {
  return a.generation == b.generation && SameItems(a.items, b.items);
}

bool SameGroupResponse(const fairrec::serve::GroupRecResponse& a,
                       const fairrec::serve::GroupRecResponse& b) {
  if (a.generation != b.generation || a.selector != b.selector ||
      !SameItems(a.items, b.items) || !SameBits(a.score.fairness, b.score.fairness) ||
      !SameBits(a.score.relevance_sum, b.score.relevance_sum) ||
      !SameBits(a.score.value, b.score.value) || a.members.size() != b.members.size()) {
    return false;
  }
  for (size_t m = 0; m < a.members.size(); ++m) {
    const auto& x = a.members[m];
    const auto& y = b.members[m];
    if (x.user != y.user || x.satisfied != y.satisfied ||
        !SameBits(x.relevance_sum, y.relevance_sum) ||
        !SameBits(x.satisfaction, y.satisfaction)) {
      return false;
    }
  }
  return true;
}

bool SameIndexBytes(const fairrec::PeerIndex& a, const fairrec::PeerIndex& b) {
  if (!(a == b)) return false;
  std::string bytes_a;
  std::string bytes_b;
  a.SerializeTo(bytes_a);
  b.SerializeTo(bytes_b);
  return bytes_a == bytes_b;
}

bool SameGraphState(const fairrec::IncrementalPeerGraph& a,
                    const fairrec::IncrementalPeerGraph& b) {
  return a.matrix() == b.matrix() && a.store() == b.store() &&
         SameIndexBytes(*a.index(), *b.index());
}

}  // namespace perfbench
