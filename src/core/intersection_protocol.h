#ifndef SECMED_CORE_INTERSECTION_PROTOCOL_H_
#define SECMED_CORE_INTERSECTION_PROTOCOL_H_

#include "core/protocol.h"

namespace secmed {

/// Secure mediated INTERSECTION — the other operation of Agrawal et al.'s
/// framework (Section 4 cites their intersection and join protocols; the
/// paper's Section 8 calls for "inclusion of other relational operations").
///
/// Given the usual two-relation join query, these protocols compute the
/// set of *common join values* domactive(R1.Ajoin) ∩ domactive(R2.Ajoin)
/// instead of the joined tuples: the client learns exactly which values
/// the two sources share (one row per value, join columns only), nothing
/// about the non-matching values and no payload columns at all.
///
/// Both run the standard request phase, so credential checking and access
/// filtering apply before any value is considered.
class IntersectionProtocol {
 public:
  virtual ~IntersectionProtocol() = default;
  virtual std::string name() const = 0;

  /// Runs the protocol; the result has one column per join attribute and
  /// one row per common (composite) value, sorted canonically.
  virtual Result<Relation> Run(const std::string& sql,
                               ProtocolContext* ctx) = 0;
};

/// Intersection via commutative encryption: each source ships f_ei(h(a)),
/// source 1 with encrypt(a); the mediator matches double ciphertexts and
/// returns source 1's matched encrypted values to the client.
class CommutativeIntersectionProtocol : public IntersectionProtocol {
 public:
  explicit CommutativeIntersectionProtocol(size_t group_bits = 512)
      : group_bits_(group_bits) {}

  std::string name() const override { return "commutative-intersection"; }
  Result<Relation> Run(const std::string& sql, ProtocolContext* ctx) override;

 private:
  size_t group_bits_;
};

/// Intersection via private matching: the polynomial payload is the join
/// value itself (always small enough for the naive embedding), so the
/// client decrypts the common values directly.
class PmIntersectionProtocol : public IntersectionProtocol {
 public:
  std::string name() const override { return "pm-intersection"; }
  Result<Relation> Run(const std::string& sql, ProtocolContext* ctx) override;
};

}  // namespace secmed

#endif  // SECMED_CORE_INTERSECTION_PROTOCOL_H_
