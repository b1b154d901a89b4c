#ifndef SECMED_CORE_PROTOCOL_H_
#define SECMED_CORE_PROTOCOL_H_

#include <map>
#include <string>

#include "mediation/client.h"
#include "mediation/datasource.h"
#include "mediation/mediator.h"
#include "mediation/network.h"
#include "obs/scope.h"
#include "relational/relation.h"
#include "util/result.h"
#include "util/rng.h"

namespace secmed {

class BinaryReader;   // util/serialize.h
class PreparedCache;  // core/prepared.h

/// The parties and infrastructure a protocol run executes over.
struct ProtocolContext {
  Client* client = nullptr;
  Mediator* mediator = nullptr;
  std::map<std::string, DataSource*> sources;  // by datasource name
  /// The transport the run communicates over: the in-process NetworkBus
  /// or a TcpTransport of a multi-process deployment (net/transport.h).
  Transport* bus = nullptr;
  RandomSource* rng = nullptr;
  /// Worker threads for the embarrassingly-parallel crypto loops
  /// (coefficient encryption, blind evaluation, double encryption, bucket
  /// sealing). 0 = hardware concurrency, 1 = exact legacy serial path.
  /// Results and transcripts are bit-identical for every value under a
  /// seeded rng (per-item RNG forking — see RandomSource::Fork).
  size_t threads = 0;
  /// Observability scope (obs/scope.h). Null — the default — disables
  /// all instrumentation at negligible cost (one predicted branch per
  /// probe; bench_obs_overhead verifies < 2% on full protocol runs).
  /// Span names follow `party/phase/operation`, e.g.
  /// `source1/delivery/pm.encrypt_coeffs` or `client/post/decrypt`.
  obs::Scope* obs = nullptr;
  /// Prepared-dataset cache of a long-lived service deployment
  /// (core/prepared.h, src/service/). Null — the default — keeps every
  /// protocol on its legacy one-shot path with unchanged transcripts.
  /// Non-null routes the per-relation delivery work (domain hashing,
  /// commutative/homomorphic encryption, tuple-set sealing) and the
  /// client's repeated decryptions through the cache; all cached bytes
  /// are pure functions of their keys, so warm and cold sessions are
  /// byte-identical.
  PreparedCache* prepared = nullptr;
};

/// Message types of the common request phase (Listing 1).
inline constexpr char kMsgGlobalQuery[] = "global_query";
inline constexpr char kMsgPartialQuery[] = "partial_query";

/// Outcome of the request phase: the mediator's plan plus, per source,
/// the plaintext partial result (held at the source; never sent) and the
/// client key extracted from the forwarded credentials.
struct RequestState {
  JoinQueryPlan plan;
  std::vector<Credential> credentials;
  Relation r1;  // source1-local plaintext partial result
  Relation r2;
  RsaPublicKey client_key1;  // client key as seen by source1
  RsaPublicKey client_key2;
};

/// Executes Listing 1 over the bus: the client sends the global query with
/// its credentials, the mediator localizes the datasources and forwards
/// the partial queries with credential subsets and join attributes, and
/// each datasource checks the credentials and evaluates its partial query.
Result<RequestState> RunRequestPhase(const std::string& sql,
                                     ProtocolContext* ctx);

/// A delivery-phase protocol computing the JOIN over encrypted partial
/// results. Each implementation corresponds to one of the paper's
/// Sections 3–5.
class JoinProtocol {
 public:
  virtual ~JoinProtocol() = default;

  /// Short identifier ("das", "commutative", "pm").
  virtual std::string name() const = 0;

  /// Runs request + delivery phases for the global query and returns the
  /// global result as reconstructed by the client.
  virtual Result<Relation> Run(const std::string& sql,
                               ProtocolContext* ctx) = 0;
};

/// Output schema of the mediated join: schema1 followed by schema2 minus
/// its join columns (natural-join convention shared by all protocols).
Result<Schema> JoinedSchema(const Schema& schema1, const Schema& schema2,
                            const std::vector<std::string>& join_attributes);
Result<Schema> JoinedSchema(const Schema& schema1, const Schema& schema2,
                            const std::string& join_attribute);

/// Positions of the given join columns in the schema.
Result<std::vector<size_t>> JoinColumnIndexes(
    const Schema& schema, const std::vector<std::string>& join_attributes);

/// Composite grouping key: the concatenated canonical encodings of the
/// tuple's join values. Empty when any join value is NULL (NULL never
/// joins).
Bytes CompositeJoinKey(const Tuple& tuple, const std::vector<size_t>& indexes);

/// Groups a relation's tuples by composite join value — the paper's
/// Tup_i(a) sets, generalized to several join attributes. Tuples with a
/// NULL join value are omitted.
std::map<Bytes, Relation> GroupTuplesByJoinValue(
    const Relation& rel, const std::vector<size_t>& indexes);

/// Seals a partial-result schema for the client, which needs it to decode
/// the tuple sets the sources deliver.
Result<Bytes> SealSchema(const RsaPublicKey& client_key, const Schema& schema,
                         RandomSource* rng);

/// Opens a SealSchema blob at the client, memoized through ctx->prepared.
Result<Schema> OpenSchema(ProtocolContext* ctx, const Bytes& blob);

/// Reads the source tag of a per-source message; it must be 1 or 2 and
/// new to `seen`, which tracks one message kind (index 0 unused). Fails
/// with kProtocolError otherwise.
Result<uint8_t> ReadSourceTag(BinaryReader* r, bool (&seen)[3],
                              const char* kind);

/// Appends to `out` the pairwise combinations of `tup1` × `tup2`, dropping
/// the join columns of the second side (client step 8 of Listings 3/4).
void AppendJoinedCrossProduct(const Relation& tup1, const Relation& tup2,
                              const std::vector<size_t>& j2, Relation* out);

}  // namespace secmed

#endif  // SECMED_CORE_PROTOCOL_H_
