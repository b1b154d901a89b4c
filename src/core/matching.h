#ifndef SECMED_CORE_MATCHING_H_
#define SECMED_CORE_MATCHING_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/protocol.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/rng.h"

namespace secmed {

/// The two matching rounds of the paper's delivery phase. Every protocol
/// that works on the common join values runs one of them:
///  - the commutative round (Listing 3, steps 1-7) under the commutative
///    join, the commutative intersection and the aggregate join;
///  - the private-matching round (Listing 4, steps 2-8) under the PM join
///    and the PM intersection.
/// A round runs every party's steps over ctx->bus after the request phase.
/// The protocols differ only in what a source attaches to each of its join
/// values, in the mediator's result message and in the client's
/// post-processing.
///
/// Every structural field a round reads from the wire is checked: a source
/// tag must be 1 or 2 and arrive once per message kind, a payload ID must
/// name a forwarded entry exactly once, and the opposite polynomial must
/// have a coefficient. Anything else fails the run with kProtocolError.

/// What a source attaches to one join value: `which` is the source's tag
/// (1 or 2), `value` the composite join-value encoding, `tuples` its tuple
/// set Tup_i(a) and `rng` that value's own forked randomness. Called
/// concurrently for distinct values.
using AttachFn = std::function<Result<Bytes>(
    uint8_t which, const Bytes& value, const Relation& tuples,
    RandomSource* rng)>;

/// A protocol's use of the commutative round.
struct CommutativeRound {
  /// Size of the safe-prime group QR(p).
  size_t group_bits = 512;
  /// Footnote 1 off: the mediator keeps the payloads and forwards
  /// fixed-length IDs with the hash parts. On: the payloads travel along.
  bool forward_payloads = false;
  /// Whether each source seals its partial-result schema for the client.
  bool seal_schema = false;
  /// Prepared-cache kind of a source's delivery (steps 1-3). Each payload
  /// format needs its own kind: under a shared kind one protocol would
  /// ship another's cached payloads.
  const char* deliver_kind = nullptr;
  /// Payload inputs other than the relation, the join attributes, the
  /// group and the client key; appended to the delivery's cache material.
  Bytes payload_material;
  /// The payload each source attaches to a join value (step 2).
  AttachFn attach;
};

/// The mediator's state after step 7.
struct CommutativeMatch {
  /// The sources' sealed schemas; empty unless seal_schema.
  Bytes schema1, schema2;
  /// The payloads of source 1 and source 2 for every matched join value,
  /// in the order of the double ciphertexts.
  std::vector<std::pair<Bytes, Bytes>> pairs;
};

/// Steps 1-7 of Listing 3: each source encrypts its hashed join values
/// under a fresh commutative key and sends them with its payloads
/// (comm_message_set); the mediator exchanges the hash parts
/// (comm_exchange); each source encrypts the other's values on top
/// (comm_double_encrypted); the mediator matches equal double ciphertexts.
Result<CommutativeMatch> RunCommutativeRound(const RequestState& state,
                                             const CommutativeRound& round,
                                             ProtocolContext* ctx);

/// A protocol's use of the private-matching round.
struct PmRound {
  /// Whether each source seals its partial-result schema for the client.
  bool seal_schema = false;
  /// Footnote 2: the payload is sealed under a fresh session key and only
  /// <ID, session key> rides in the Paillier plaintext; the sealed payloads
  /// travel in a table keyed by random IDs. Off: the payload itself rides
  /// in the plaintext and must fit below the Paillier modulus.
  bool session_keys = false;
  /// Prepared-cache kinds of the coefficients (steps 2-3) and of the
  /// evaluations (steps 5-6); one pair per payload format.
  const char* coeffs_kind = nullptr;
  const char* evaluate_kind = nullptr;
  /// The payload each source attaches to a join value (step 6); a pure
  /// function of the join value and its tuple set.
  AttachFn attach;
  /// Type of the mediator's message carrying the evaluations to the
  /// client (step 7).
  const char* result_type = nullptr;
};

/// A join value both sources hold, as opened by the client.
struct PmMatch {
  Bytes fingerprint;  // of the join value
  Bytes payload1, payload2;
};

/// The client's state after step 8.
struct PmOpened {
  /// The sources' schemas; empty unless seal_schema.
  Schema schema1, schema2;
  /// The matched join values in fingerprint order.
  std::vector<PmMatch> matches;
  /// Evaluations the client decrypted (n + m).
  size_t evaluations = 0;
};

/// Steps 2-8 of Listing 4: each source encrypts the coefficients of the
/// polynomial whose roots are its join values (pm_coefficients); the
/// mediator forwards them to the other source (pm_exchange); each source
/// blindly evaluates the other's polynomial at its own values with its
/// payload attached (pm_evaluations); the mediator ships the evaluations
/// to the client (`result_type`), which decrypts them and matches the
/// payloads that open.
Result<PmOpened> RunPmRound(const RequestState& state, const PmRound& round,
                            ProtocolContext* ctx);

/// Draws `count` distinct random 64-bit payload-table IDs from `rng`,
/// redrawing on collision (bounded attempts per ID, then kInternal).
/// Random — not sequential — IDs keep the mediator from learning the
/// relative order of join values; redrawing keeps a 64-bit birthday
/// collision from silently dropping a payload-table entry at the client.
/// Exposed as a free function so tests can force collisions with a
/// stubbed RandomSource.
Result<std::vector<uint64_t>> DrawDistinctPayloadIds(size_t count,
                                                     RandomSource* rng);

/// 128-bit fingerprint of a composite join-value encoding: the root both
/// sources agree on in the PM round.
Bytes ValueFingerprint(const Bytes& value);

}  // namespace secmed

#endif  // SECMED_CORE_MATCHING_H_
