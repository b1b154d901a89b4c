#ifndef SECMED_CORE_PREPARED_H_
#define SECMED_CORE_PREPARED_H_

#include <memory>
#include <string>

#include "core/protocol.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/rng.h"

namespace secmed {

/// Prepared-dataset state shared between sessions of a long-lived
/// mediation service (src/service/). A datasource's expensive
/// per-relation delivery work — hashing the active domain, commutative
/// or homomorphic encryption of the value sets, hybrid-sealing the tuple
/// sets — is a pure function of the relation, the join attributes, the
/// protocol parameters and the client key. The cache memoizes exactly
/// those functions so a series of queries pays the crypto once.
///
/// Determinism contract (docs/SERVICE.md): an entry's bytes are a pure
/// function of its *key*. All randomness used to compute an entry is
/// drawn from PrepareRng(key), a DRBG seeded from the registry label and
/// the key string — never from the session RNG. Consequences:
///  - a warm run sends the same bytes as the cold run that populated the
///    entry (byte-identical transcripts, not just results);
///  - an entry recomputed after eviction, or computed concurrently by
///    two racing sessions, is byte-for-byte the same value;
///  - every process of a replicated TCP deployment computes the same
///    prepared bytes regardless of its private cache history, so the
///    frame-level byte verification keeps passing.
/// Runs without a cache (ctx->prepared == nullptr) take the legacy path
/// and draw from the session RNG; their transcripts are unchanged.
class PreparedValue {
 public:
  virtual ~PreparedValue() = default;

  /// Approximate resident size, charged against the registry's byte
  /// budget (LRU eviction).
  virtual size_t ByteSize() const = 0;
};

/// A prepared value that is just bytes (a precomputed message payload, a
/// memoized decryption). Shared by several protocol sites.
struct PreparedBlob : PreparedValue {
  Bytes bytes;

  explicit PreparedBlob(Bytes b) : bytes(std::move(b)) {}
  size_t ByteSize() const override { return bytes.size(); }
};

/// The cache interface the protocols in src/core/ program against; the
/// LRU registry implementing it lives in src/service/prepared_registry.h.
/// Implementations must be thread-safe (concurrent sessions share one
/// cache).
class PreparedCache {
 public:
  virtual ~PreparedCache() = default;

  /// The cached value for `key`, or null on a miss.
  virtual std::shared_ptr<const PreparedValue> Get(const std::string& key) = 0;

  /// Inserts `value` under `key` and returns the resident entry — the
  /// already-present one if another session won the race (first insert
  /// wins; by the determinism contract both values hold identical bytes).
  virtual std::shared_ptr<const PreparedValue> Put(
      const std::string& key, std::shared_ptr<const PreparedValue> value) = 0;

  /// The deterministic randomness source for computing the entry `key`:
  /// seeded from the registry's prepare label and the key string alone.
  virtual std::unique_ptr<RandomSource> PrepareRng(const std::string& key) = 0;
};

/// Hex SHA-256 of `material` — the digest component of cache keys.
std::string PreparedDigest(const Bytes& material);

/// Canonical cache key "<kind>/<party>/v<version>/<digest(material)>".
/// `version` is the owning datasource's catalog version, so a data or
/// policy change retires every key minted under the old version;
/// content-addressed kinds (memoized decryptions) pass 0.
std::string PreparedKey(const std::string& kind, const std::string& party,
                        uint64_t version, const Bytes& material);

/// Catalog version of the datasource `name` in `ctx` (0 when absent) —
/// the `version` component for source-keyed prepared entries.
uint64_t SourceCatalogVersion(const ProtocolContext* ctx,
                              const std::string& name);

/// Looks up `key`, computing and inserting the value with `compute`
/// (called with the key's prepare RNG) on a miss. T must derive from
/// PreparedValue; `compute` returns Result<std::shared_ptr<const T>>.
template <typename T, typename Fn>
Result<std::shared_ptr<const T>> GetOrCompute(PreparedCache* cache,
                                              const std::string& key,
                                              Fn&& compute) {
  if (std::shared_ptr<const PreparedValue> hit = cache->Get(key)) {
    if (auto typed = std::dynamic_pointer_cast<const T>(hit)) return typed;
    // A kind collision cannot happen with well-formed keys; recompute
    // rather than crash if it somehow does.
  }
  std::unique_ptr<RandomSource> rng = cache->PrepareRng(key);
  SECMED_ASSIGN_OR_RETURN(std::shared_ptr<const T> value,
                          std::forward<Fn>(compute)(rng.get()));
  if (auto typed = std::dynamic_pointer_cast<const T>(
          cache->Put(key, value))) {
    return typed;
  }
  return value;
}

/// A source's prepared value: looked up under PreparedKey(kind, source,
/// the source's catalog version, material()) when ctx->prepared is
/// attached, and computed with that key's prepare RNG on a miss; computed
/// from the session RNG when it is not. `material` is only called on the
/// cached path, so uncached runs never serialize it.
template <typename T, typename MaterialFn, typename ComputeFn>
Result<std::shared_ptr<const T>> PreparedOrCompute(ProtocolContext* ctx,
                                                   const char* kind,
                                                   const std::string& source,
                                                   MaterialFn&& material,
                                                   ComputeFn&& compute) {
  if (ctx->prepared == nullptr) return compute(ctx->rng);
  return GetOrCompute<T>(
      ctx->prepared,
      PreparedKey(kind, source, SourceCatalogVersion(ctx, source), material()),
      std::forward<ComputeFn>(compute));
}

/// Hybrid-decrypts `blob` with the client's private key, memoizing the
/// plaintext under the ciphertext digest when ctx->prepared is attached.
/// Decryption is deterministic, so memoization can never change the
/// plaintext — it only skips the RSA work on blobs repeated across a
/// query series (prepared source payloads are stable bytes, so warm
/// sessions hit for every sealed tuple set and schema blob).
Result<Bytes> ClientHybridDecrypt(ProtocolContext* ctx, const Bytes& blob);

/// Paillier counterpart for the PM protocol's evaluation ciphertexts:
/// decrypts `ciphertext` (big-endian bytes) with the client's
/// homomorphic key, memoized under the ciphertext digest.
Result<Bytes> ClientPaillierDecrypt(ProtocolContext* ctx,
                                    const Bytes& ciphertext);

}  // namespace secmed

#endif  // SECMED_CORE_PREPARED_H_
