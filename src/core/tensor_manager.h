#pragma once

/// @file
/// Argument and tensor management (§4.4).
///
/// Walking the selected ops in execution order, every tensor ID is classified
/// as *intermediate* (first seen as an output of an earlier selected op —
/// saved at generation and passed to downstream consumers) or *external*
/// (its producer is not in the replayed set — explicitly instantiated before
/// execution with the recorded shape/dtype and random values).
///
/// The embedding-lookup index tensors are the documented special case: their
/// values drive the access pattern, so external int64 tensors consumed by
/// embedding ops are generated from a configurable distribution (uniform by
/// default, refinable by the user per §4.4), and offset tensors are generated
/// as valid monotonically-increasing bag boundaries.

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "et/node.h"
#include "framework/session.h"

namespace mystique::core {

/// User-refinable generation policy for embedding index tensors (§4.4).
///
/// The default is a Zipf distribution with an exponent "derived empirically
/// from the operators in our production environment" (the paper's default
/// for information the ET does not capture); users refine it through this
/// interface when they know their tables' index statistics.
struct EmbeddingGenConfig {
    enum class Distribution { kUniform, kZipf };
    Distribution distribution = Distribution::kZipf;
    /// Zipf exponent when distribution == kZipf.
    double zipf_s = 1.05;
};

/// Per-tensor generation policy derived from the consuming operator.
struct Int64GenPolicy {
    enum class Kind {
        kGeneric,  ///< small non-negative values
        kIndices,  ///< embedding row indices in [0, rows)
        kOffsets,  ///< monotone bag boundaries over a paired index tensor
        kClasses,  ///< classification targets in [0, classes)
    };
    Kind kind = Kind::kGeneric;
    int64_t upper = 10;     ///< rows / classes bound
    int64_t pair_nnz = 0;   ///< for kOffsets: the paired indices tensor length
};

/// Classification + instantiation + runtime binding of replay tensors.
class TensorManager {
  public:
    TensorManager(fw::Session& session, EmbeddingGenConfig config);

    /// Classifies tensors over the selected ops' ET nodes (in execution
    /// order) and derives int64 generation policies from consumer ops.
    void analyze(const std::vector<const et::Node*>& selected_ops);

    /// Creates all external tensors up-front (§4.4 "explicitly instantiate
    /// them before execution").
    void instantiate_externals();

    /// Resolves a tensor argument to its current binding; throws ReplayError
    /// for unknown IDs.
    fw::Tensor resolve(const et::TensorMeta& meta) const;

    /// Binds an op output to its recorded tensor ID.
    void bind_output(const et::TensorMeta& meta, fw::Tensor t);

    std::size_t num_external() const { return externals_.size(); }
    std::size_t num_intermediate() const { return intermediates_.size(); }

    /// Order-independent digest of every live binding's bytes (uid-sorted —
    /// bindings_ is an ordered map).  The differential oracle compares it
    /// across replays of the same plan: equal digests mean bit-identical
    /// numerics regardless of the execution schedule that produced them.
    /// Storage bytes are mixed a word at a time (Fnv1a::mix_words), so two
    /// sets of bindings that differ in one word always digest differently;
    /// the value is a witness for comparisons, not a seal.
    uint64_t digest() const;

  private:
    fw::Tensor generate_external(const et::TensorMeta& meta);

    fw::Session& session_;
    EmbeddingGenConfig config_;
    std::map<int64_t, et::TensorMeta> externals_;      // uid → meta
    std::map<int64_t, Int64GenPolicy> policies_;       // uid → policy
    std::map<int64_t, bool> intermediates_;            // uid → produced flag
    std::map<int64_t, fw::Tensor> bindings_;           // uid → live tensor
};

} // namespace mystique::core
