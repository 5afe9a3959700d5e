#include "nn/tensor.h"

#include <stdexcept>
#include <unordered_set>

namespace paragraph::nn {

namespace {
thread_local bool t_grad_enabled = true;
}  // namespace

bool grad_enabled() { return t_grad_enabled; }

NoGradGuard::NoGradGuard() : prev_(t_grad_enabled) { t_grad_enabled = false; }

NoGradGuard::~NoGradGuard() { t_grad_enabled = prev_; }

Tensor::Tensor(Matrix value, bool requires_grad) : node_(std::make_shared<Node>()) {
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
  node_->needs_backward = requires_grad;
}

Tensor Tensor::from_op(Matrix value, std::vector<Tensor> parents,
                       std::function<void(const Matrix&)> backward) {
  Tensor t;
  t.node_ = std::make_shared<Node>();
  t.node_->value = std::move(value);
  bool needs = false;
  if (t_grad_enabled) {
    for (const auto& p : parents) {
      if (p.needs_backward()) needs = true;
    }
  }
  t.node_->needs_backward = needs;
  if (needs) {
    t.node_->parents = std::move(parents);
    t.node_->backward_fn = std::move(backward);
  }
  return t;
}

const Matrix& Tensor::grad() const {
  if (node_->grad.empty() && !node_->value.empty()) {
    node_->grad = Matrix(node_->value.rows(), node_->value.cols(), 0.0f);
  }
  return node_->grad;
}

void Tensor::zero_grad() {
  if (!node_->grad.empty()) node_->grad.fill(0.0f);
}

void Tensor::accumulate_grad(const Matrix& g) const {
  // Constants (and subgraphs no parameter feeds) don't participate in
  // backprop; dropping their gradients here prunes the sweep.
  if (!node_->needs_backward) return;
  if (node_->grad.empty()) {
    node_->grad = g;
  } else {
    add_inplace(node_->grad, g);
  }
}

void Tensor::backward() const {
  if (!defined()) throw std::logic_error("backward() on undefined tensor");
  if (node_->value.rows() != 1 || node_->value.cols() != 1)
    throw std::logic_error("backward() requires a scalar (1x1) tensor");

  // Iterative post-order DFS to get a topological order of the DAG.
  std::vector<Node*> topo;
  std::unordered_set<Node*> visited;
  struct Frame {
    Node* node;
    std::size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({node_.get(), 0});
  visited.insert(node_.get());
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      Node* p = f.node->parents[f.next_parent++].node_.get();
      if (p != nullptr && !visited.contains(p) && p->needs_backward) {
        visited.insert(p);
        stack.push_back({p, 0});
      }
    } else {
      topo.push_back(f.node);
      stack.pop_back();
    }
  }

  // Seed d(loss)/d(loss) = 1 and sweep in reverse topological order.
  node_->grad = Matrix(1, 1, std::vector<float>{1.0f});
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    Node* n = *it;
    if (n->backward_fn && !n->grad.empty()) n->backward_fn(n->grad);
  }
}

float Tensor::item() const {
  if (node_->value.rows() != 1 || node_->value.cols() != 1)
    throw std::logic_error("item() requires a scalar (1x1) tensor");
  return node_->value(0, 0);
}

}  // namespace paragraph::nn
