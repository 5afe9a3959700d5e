// Reverse-mode automatic differentiation over Matrix values.
//
// A Tensor is a cheap shared handle to a node in an implicit compute DAG.
// While grad mode is on (the default) and some input needs a gradient, a
// differentiable op (see ops.h / graph_ops.h) creates a fresh node whose
// backward closure scatters the incoming gradient to its parents.
// Training builds a new DAG per step; calling backward() on the (scalar)
// loss runs a topological sweep and accumulates gradients into every node
// with requires_grad set (typically the Parameters of a Module).
//
// Inference runs under a NoGradGuard instead. Grad mode is then off for
// the calling thread: ops return plain value nodes that hold no parents
// and no closure, so an intermediate is freed as soon as its last consumer
// drops its handle. The forward arithmetic is the same in both modes, so
// the values are bit-identical.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "nn/matrix.h"

namespace paragraph::nn {

class Tensor {
 public:
  Tensor() = default;

  // Leaf tensor. `requires_grad` marks trainable parameters.
  explicit Tensor(Matrix value, bool requires_grad = false);

  // Interior node produced by an op. `backward` receives the gradient
  // w.r.t. this node's value and must push gradients into the parents via
  // accumulate_grad(). Pass an empty function for non-differentiable ops.
  // With grad mode off, or no parent needing a gradient, the node keeps
  // neither the parents nor `backward`.
  static Tensor from_op(Matrix value, std::vector<Tensor> parents,
                        std::function<void(const Matrix& grad_out)> backward);

  bool defined() const { return node_ != nullptr; }
  const Matrix& value() const { return node_->value; }
  Matrix& mutable_value() { return node_->value; }
  std::size_t rows() const { return node_->value.rows(); }
  std::size_t cols() const { return node_->value.cols(); }

  bool requires_grad() const { return node_->requires_grad; }

  // True when this node takes part in backprop: it, or an ancestor
  // recorded while grad mode was on, requires a gradient.
  bool needs_backward() const { return defined() && node_->needs_backward; }

  // Gradient accumulated by the last backward(); zero matrix if untouched.
  const Matrix& grad() const;
  Matrix& mutable_grad() { return const_cast<Matrix&>(grad()); }
  void zero_grad();

  // Adds `g` into this node's gradient buffer (used by op backward closures).
  void accumulate_grad(const Matrix& g) const;

  // Runs reverse-mode AD from this node. Requires a 1x1 value (a loss).
  void backward() const;

  // Scalar convenience accessor; requires a 1x1 tensor.
  float item() const;

  // Identity comparison (same underlying node).
  bool is(const Tensor& other) const { return node_ == other.node_; }

 private:
  struct Node {
    Matrix value;
    Matrix grad;  // empty until first accumulation
    bool requires_grad = false;
    bool needs_backward = false;  // true if this or any ancestor requires grad
    std::vector<Tensor> parents;
    std::function<void(const Matrix&)> backward_fn;
  };

  std::shared_ptr<Node> node_;
};

// Whether ops on the calling thread record backward closures. Per thread,
// so a training step on one thread keeps its tape while another thread
// runs inference.
bool grad_enabled();

// Turns grad mode off for the calling thread for the guard's lifetime and
// restores the previous mode on exit (also when unwinding an exception),
// so guards nest.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

// True when an op over `inputs` must record its backward closure: grad mode
// is on and some input needs a gradient. Ops test it once, before building
// the closure or any buffer only backward reads, and otherwise return a
// plain Tensor(value).
template <typename... Ts>
bool records_backward(const Ts&... inputs) {
  return grad_enabled() && (inputs.needs_backward() || ...);
}

}  // namespace paragraph::nn
