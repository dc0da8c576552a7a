#include "index/radix_tree.h"

#include <algorithm>

namespace hamming {

namespace {

// Copies bits [src_start, src_start+len) of `src` into positions [0, len)
// of a fresh label code.
BinaryCode MakeLabel(const BinaryCode& src, std::size_t src_start,
                     std::size_t len) {
  return src.Substring(src_start, len);
}

}  // namespace

Status RadixTreeIndex::Build(const std::vector<BinaryCode>& codes) {
  root_.reset();
  size_ = 0;
  code_bits_ = codes.empty() ? 0 : codes[0].size();
  for (std::size_t i = 0; i < codes.size(); ++i) {
    HAMMING_RETURN_NOT_OK(Insert(static_cast<TupleId>(i), codes[i]));
  }
  return Status::OK();
}

Status RadixTreeIndex::Insert(TupleId id, const BinaryCode& code) {
  if (code_bits_ == 0) code_bits_ = code.size();
  if (code.size() != code_bits_) {
    return Status::InvalidArgument("code length mismatch");
  }
  if (!root_) {
    root_ = std::make_unique<Node>();
    root_->label = code;
    root_->label_len = code_bits_;
    root_->ids.push_back(id);
    ++size_;
    return Status::OK();
  }

  Node* node = root_.get();
  std::size_t depth = 0;  // bits of `code` consumed before node's label
  for (;;) {
    // First position where the code disagrees with the edge label.
    std::size_t match = 0;
    while (match < node->label_len &&
           node->label.GetBit(match) == code.GetBit(depth + match)) {
      ++match;
    }
    if (match < node->label_len) {
      // Split the edge at `match`: the existing node keeps the shared
      // prefix, its old suffix and the new code's suffix become children.
      auto suffix_node = std::make_unique<Node>();
      suffix_node->label =
          MakeLabel(node->label, match + 1, node->label_len - match - 1);
      suffix_node->label_len = node->label_len - match - 1;
      suffix_node->child[0] = std::move(node->child[0]);
      suffix_node->child[1] = std::move(node->child[1]);
      suffix_node->ids = std::move(node->ids);

      auto new_leaf = std::make_unique<Node>();
      std::size_t leaf_start = depth + match + 1;
      new_leaf->label = MakeLabel(code, leaf_start, code_bits_ - leaf_start);
      new_leaf->label_len = code_bits_ - leaf_start;
      new_leaf->ids.push_back(id);

      bool old_bit = node->label.GetBit(match);
      node->label = MakeLabel(node->label, 0, match);
      node->label_len = match;
      node->ids.clear();
      node->child[old_bit ? 1 : 0] = std::move(suffix_node);
      node->child[old_bit ? 0 : 1] = std::move(new_leaf);
      ++size_;
      return Status::OK();
    }
    depth += node->label_len;
    if (depth == code_bits_) {
      // Exact duplicate code: append the id to the leaf.
      node->ids.push_back(id);
      ++size_;
      return Status::OK();
    }
    // Descend along the next bit. The branch-point bit itself is encoded
    // by which child slot we take, so the child's label starts one bit
    // further in.
    bool bit = code.GetBit(depth);
    auto& next = node->child[bit ? 1 : 0];
    ++depth;  // consume the branch bit
    if (!next) {
      auto leaf = std::make_unique<Node>();
      leaf->label = MakeLabel(code, depth, code_bits_ - depth);
      leaf->label_len = code_bits_ - depth;
      leaf->ids.push_back(id);
      next = std::move(leaf);
      ++size_;
      return Status::OK();
    }
    node = next.get();
  }
}

Status RadixTreeIndex::Delete(TupleId id, const BinaryCode& code) {
  if (!root_ || code.size() != code_bits_) {
    return Status::KeyError("tuple not found in radix tree");
  }
  // Walk down remembering the parent link for the final merge.
  Node* node = root_.get();
  Node* parent = nullptr;
  int parent_slot = -1;
  std::size_t depth = 0;
  for (;;) {
    for (std::size_t i = 0; i < node->label_len; ++i) {
      if (node->label.GetBit(i) != code.GetBit(depth + i)) {
        return Status::KeyError("tuple not found in radix tree");
      }
    }
    depth += node->label_len;
    if (depth == code_bits_) break;
    bool bit = code.GetBit(depth);
    auto& next = node->child[bit ? 1 : 0];
    if (!next) return Status::KeyError("tuple not found in radix tree");
    parent = node;
    parent_slot = bit ? 1 : 0;
    node = next.get();
    ++depth;
  }
  auto it = std::find(node->ids.begin(), node->ids.end(), id);
  if (it == node->ids.end()) {
    return Status::KeyError("tuple not found in radix tree");
  }
  node->ids.erase(it);
  --size_;
  if (!node->ids.empty()) return Status::OK();

  // Empty leaf: unlink it and, if the parent now has a single child,
  // merge parent + branch bit + child into one edge.
  if (parent == nullptr) {
    root_.reset();
    return Status::OK();
  }
  parent->child[parent_slot].reset();
  Node* sibling = parent->child[1 - parent_slot].get();
  if (sibling != nullptr && parent->ids.empty()) {
    // parent label + sibling branch bit + sibling label collapse.
    BinaryCode merged(parent->label_len + 1 + sibling->label_len);
    for (std::size_t i = 0; i < parent->label_len; ++i) {
      merged.SetBit(i, parent->label.GetBit(i));
    }
    merged.SetBit(parent->label_len, parent_slot == 0);
    for (std::size_t i = 0; i < sibling->label_len; ++i) {
      merged.SetBit(parent->label_len + 1 + i, sibling->label.GetBit(i));
    }
    parent->label = merged;
    parent->label_len = merged.size();
    parent->ids = std::move(sibling->ids);
    auto c0 = std::move(sibling->child[0]);
    auto c1 = std::move(sibling->child[1]);
    parent->child[0] = std::move(c0);
    parent->child[1] = std::move(c1);
  }
  return Status::OK();
}

Status RadixTreeIndex::SearchBatch(std::span<const QueryRequest> requests,
                                   std::span<QueryResponse> responses) const {
  return SearchEach(requests, responses,
                    [this](const QueryRequest& req, QueryResponse* resp) {
                      return SearchOne(req.code, req.h, resp);
                    });
}

Status RadixTreeIndex::SearchOne(const BinaryCode& query, std::size_t h,
                                 QueryResponse* resp) const {
  if (!root_) return Status::OK();
  if (query.size() != code_bits_) {
    return Status::InvalidArgument("query length mismatch");
  }
  obs::QueryStats& stats = resp->stats;
  // DFS with accumulated prefix distance; prune per Proposition 1.
  struct Frame {
    const Node* node;
    std::size_t depth;  // position of the node's label start in the code
    std::size_t dist;   // accumulated distance over bits [0, depth)
  };
  std::vector<Frame> stack;
  stack.push_back({root_.get(), 0, 0});
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    // Each visited edge is one shared-prefix (FLSS) distance evaluation.
    ++stats.signatures_enumerated;
    std::size_t dist = f.dist;
    for (std::size_t i = 0; i < f.node->label_len && dist <= h; ++i) {
      if (f.node->label.GetBit(i) != query.GetBit(f.depth + i)) ++dist;
    }
    if (dist > h) continue;
    std::size_t depth = f.depth + f.node->label_len;
    if (depth == code_bits_) {
      // Labels and branch bits cover all L positions, so at a leaf the
      // accumulated distance is exact.
      resp->ids.insert(resp->ids.end(), f.node->ids.begin(),
                       f.node->ids.end());
      resp->distances.insert(resp->distances.end(), f.node->ids.size(),
                             static_cast<uint32_t>(dist));
      stats.candidates_generated += f.node->ids.size();
      continue;
    }
    bool qbit = query.GetBit(depth);
    // The branch bit contributes 0 to the matching child, 1 to the other.
    if (f.node->child[qbit ? 1 : 0]) {
      stack.push_back({f.node->child[qbit ? 1 : 0].get(), depth + 1, dist});
    }
    if (dist + 1 <= h && f.node->child[qbit ? 0 : 1]) {
      stack.push_back(
          {f.node->child[qbit ? 0 : 1].get(), depth + 1, dist + 1});
    }
  }
  stats.results += resp->ids.size();
  return Status::OK();
}

void RadixTreeIndex::CountNodes(const Node* n, std::size_t* count) {
  if (n == nullptr) return;
  ++*count;
  CountNodes(n->child[0].get(), count);
  CountNodes(n->child[1].get(), count);
}

std::size_t RadixTreeIndex::NodeCount() const {
  std::size_t count = 0;
  CountNodes(root_.get(), &count);
  return count;
}

void RadixTreeIndex::AccountNode(const Node* n, MemoryBreakdown* mb) {
  if (n == nullptr) return;
  // Label bits + two child pointers.
  std::size_t node_bytes = (n->label_len + 7) / 8 + 2 * sizeof(void*) +
                           sizeof(std::size_t);
  if (n->IsLeaf()) {
    mb->leaf_bytes += node_bytes + n->ids.size() * sizeof(TupleId);
  } else {
    mb->internal_bytes += node_bytes;
  }
  AccountNode(n->child[0].get(), mb);
  AccountNode(n->child[1].get(), mb);
}

MemoryBreakdown RadixTreeIndex::Memory() const {
  MemoryBreakdown mb;
  AccountNode(root_.get(), &mb);
  return mb;
}

}  // namespace hamming
