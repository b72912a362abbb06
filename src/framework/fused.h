#pragma once

/// @file
/// JIT-fused pointwise operators (§3.3, §4.3.4).
///
/// Mirrors @torch.jit.script + NVFuser behaviour: a chain of pointwise ops is
/// emitted as a *single* fused operator whose ET node carries **no schema**
/// (the current ET format lacks fused-op reconstruction metadata), so the
/// replayer must skip it — the paper's documented coverage gap.

#include <string>
#include <vector>

#include "framework/session.h"

namespace mystique::fw {

/// out = relu(a * b + c), executed as one fused kernel.
/// The backward decomposes into ordinary ATen ops, as JIT autodiff does.
Tensor fused_mul_add_relu(Session& s, const Tensor& a, const Tensor& b, const Tensor& c);

} // namespace mystique::fw
