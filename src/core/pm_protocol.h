#ifndef SECMED_CORE_PM_PROTOCOL_H_
#define SECMED_CORE_PM_PROTOCOL_H_

#include "core/matching.h"
#include "core/protocol.h"

namespace secmed {

/// Options of the private-matching delivery phase.
struct PmProtocolOptions {
  /// Footnote 2 of the paper: when true (default), the tuple sets are
  /// encrypted under fresh session keys and only <ID, session key> rides
  /// inside the homomorphic polynomial payload, avoiding the plaintext
  /// length restriction of asymmetric encryption. When false, the whole
  /// serialized tuple set is embedded in the payload (fails with
  /// kInvalidArgument when a tuple set does not fit below the Paillier
  /// modulus).
  bool session_key_payloads = true;
};

/// Secure mediation with efficient private matching (Section 5.1,
/// Listing 4), after Freedman et al.
///
/// Delivery phase:
///  2./3. Each Si builds the polynomial Pi whose roots are (the field
///     encodings of) its active join values, encrypts the coefficients
///     under the client's public homomorphic (Paillier) key from the
///     credentials, and sends them to the mediator.
///  4. The mediator forwards the encrypted coefficients to the opposite
///     datasource.
///  5./6. Each source blindly evaluates the opposite polynomial at its own
///     values: ek = E(rk · Pj(ak) + (ak || payload)) with fresh random rk.
///  7. The mediator sends the n + m encrypted values to the client.
///  8. The client decrypts: for common values the payload emerges, for all
///     others the masking randomizes the plaintext. Matching value pairs
///     are combined into the global result.
///
/// The client receives (encrypted remnants of) both partial results but
/// can only open the matching part; the mediator learns the polynomial
/// degrees |domactive(Ri.Ajoin)| (Table 1).
class PmJoinProtocol : public JoinProtocol {
 public:
  explicit PmJoinProtocol(PmProtocolOptions options = {}) : options_(options) {}

  std::string name() const override { return "pm"; }

  Result<Relation> Run(const std::string& sql, ProtocolContext* ctx) override;

  /// Number of evaluations the client decrypted in the last run (n + m).
  size_t last_evaluation_count() const { return last_evaluation_count_; }

 private:
  PmProtocolOptions options_;
  size_t last_evaluation_count_ = 0;
};

}  // namespace secmed

#endif  // SECMED_CORE_PM_PROTOCOL_H_
